"""Property-based tests for the simulation substrate."""

from hypothesis import example, given, settings, strategies as st

from repro import DistObject, entry
from repro.sim import Channel, RngRegistry, Simulator
from tests.conftest import make_cluster

delays = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


class TestSchedulerProperties:
    @given(st.lists(delays, min_size=1, max_size=50))
    def test_callbacks_fire_in_nondecreasing_time_order(self, offsets):
        sim = Simulator()
        fired = []
        for offset in offsets:
            sim.call_after(offset, lambda o=offset: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(offsets)

    @given(st.lists(delays, min_size=1, max_size=50))
    def test_same_time_preserves_submission_order(self, offsets):
        sim = Simulator()
        fired = []
        for index, offset in enumerate(offsets):
            sim.call_after(offset, fired.append, (offset, index))
        sim.run()
        # stable sort by time: indices at equal times stay ascending
        assert fired == sorted(fired, key=lambda pair: (pair[0], pair[1]))

    @given(st.lists(delays, min_size=2, max_size=40),
           st.data())
    def test_cancellation_only_removes_cancelled(self, offsets, data):
        sim = Simulator()
        fired = []
        handles = [sim.call_after(offset, fired.append, i)
                   for i, offset in enumerate(offsets)]
        to_cancel = data.draw(st.sets(
            st.integers(min_value=0, max_value=len(offsets) - 1),
            max_size=len(offsets)))
        for index in to_cancel:
            sim.cancel(handles[index])
        sim.run()
        assert set(fired) == set(range(len(offsets))) - to_cancel

    @given(st.lists(delays, min_size=1, max_size=30))
    def test_clock_never_goes_backwards(self, offsets):
        sim = Simulator()
        observed = []
        for offset in offsets:
            sim.call_after(offset, lambda: observed.append(sim.now))
        sim.run()
        for earlier, later in zip(observed, observed[1:]):
            assert later >= earlier


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**32),
           st.text(min_size=1, max_size=20))
    def test_stream_reproducible(self, seed, name):
        a = RngRegistry(seed).stream(name).random()
        b = RngRegistry(seed).stream(name).random()
        assert a == b

    @given(st.integers(min_value=0, max_value=2**32),
           st.lists(st.text(min_size=1, max_size=10), min_size=2,
                    max_size=6, unique=True))
    def test_stream_independent_of_sibling_creation(self, seed, names):
        # drawing from other streams first never changes a stream's draws
        solo = RngRegistry(seed).stream(names[-1]).random()
        registry = RngRegistry(seed)
        for name in names[:-1]:
            registry.stream(name).random()
        assert registry.stream(names[-1]).random() == solo


class _Receiver(DistObject):
    @entry
    def take(self, ctx, chan, received, waiter):
        received[waiter] = yield ctx.recv(chan)


#: one step of a channel program; ``drop`` names a waiter by arrival
#: number (modulo how many there are) that stops waiting: its future is
#: cancelled, its thread terminated
channel_ops = st.one_of(
    st.just(("put",)), st.just(("get",)), st.just(("recv",)),
    st.tuples(st.just("drop"), st.integers(min_value=0, max_value=40)),
    st.just(("reset",)))


class TestPrimitiveProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(channel_ops, max_size=40))
    @example([("recv",), ("drop", 0), ("put",), ("get",)])  # lost "x"
    @example([("get",), ("recv",), ("get",), ("drop", 0), ("reset",),
              ("put",), ("recv",)])
    def test_channel_is_fifo(self, program):
        """Items go out in FIFO order to the waiters still waiting, in
        arrival order — ``get()`` futures and threads parked in
        ``ctx.recv`` alike; each item is received exactly once, never by
        a cancelled future or a dead thread, and ``reset()`` forgets
        items and both kinds of waiter."""
        cluster = make_cluster(n_nodes=1)
        cap = cluster.create_object(_Receiver, node=0)
        chan = Channel(cluster.sim)
        received = {}  # waiter number -> item, as the threads saw it
        waiters = []  # arrival order: a SimFuture or a DThread
        # the model: what each waiter must end up with
        waiting, queued, expected, items = [], [], {}, iter(range(1000))

        def settle():
            cluster.run(until=cluster.now + 0.01)

        for op in program:
            if op[0] == "put":
                item = next(items)
                if waiting:
                    expected[waiting.pop(0)] = item
                else:
                    queued.append(item)
                chan.put(item)
            elif op[0] in ("get", "recv"):
                number = len(waiters)
                if queued:
                    expected[number] = queued.pop(0)
                else:
                    waiting.append(number)
                waiters.append(
                    chan.get() if op[0] == "get" else
                    cluster.spawn(cap, "take", chan, received, number, at=0))
            elif op[0] == "drop" and waiters:
                number = op[1] % len(waiters)
                waiter = waiters[number]
                if number in waiting:
                    waiting.remove(number)
                if hasattr(waiter, "cancel"):
                    waiter.cancel()  # False once resolved: a no-op
                else:
                    cluster.invoker.terminate_thread(waiter, reason="drop")
            elif op[0] == "reset":
                assert chan.reset() == queued
                queued.clear()
                waiting.clear()  # forgotten: never served
            settle()  # threads reach their recv / take their item
        settle()
        for number, waiter in enumerate(waiters):
            if hasattr(waiter, "cancel"):
                if waiter.done and not waiter.cancelled:
                    received[number] = waiter.result()
        assert received == expected
        assert chan.drain() == queued
