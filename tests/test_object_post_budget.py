"""The scheduler-event budget of a post, counted exactly.

``scheduler_stats()["scheduled"]`` is every callback the simulator was
asked to run; its delta over a batch of posts is host-independent and
repeats exactly, so the numbers here are equalities, not floors. A
queued object post on the master handler thread costs one event, its
handler's ``compute``: the home node queues it inside the raise, and the
master takes the next post inside the step that finished the last one
whenever nothing else is due at that instant. Waking a parked master is
the only instant hop left. The same file pins what the fold must keep:
post *k* is concluded, and whatever its conclusion queued at that
instant has run, before handler *k+1* runs its first statement.
"""

import pytest

from repro import Decision, DistObject, entry, on_event
from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.primitives import Channel
from repro.sim.scheduler import WheelSimulator
from repro.threads.thread import RECV_FOLDS
from repro.transport.realtime import RealtimeScheduler
from tests.conftest import make_cluster

N = 16


class Target(DistObject):
    def __init__(self):
        super().__init__()
        self.hits = 0

    @on_event("WORK")
    def on_work(self, ctx, block):
        self.hits += 1
        yield ctx.compute(1e-5)

    @on_event("NOP")
    def on_nop(self, ctx, block):
        self.hits += 1
        return
        yield  # a generator function that yields nothing


class Holder(DistObject):
    @entry
    def hold(self, ctx, seen):
        def on_work(hctx, block):
            yield hctx.compute(1e-5)
            seen.append(block.user_data)
            return Decision.RESUME

        yield ctx.attach_handler("WORK", on_work)
        yield ctx.sleep(100.0)


def _scheduled(cluster) -> int:
    return cluster.scheduler_stats()["scheduled"]


def _object_posts(event: str, home: int = 0, **config) -> int:
    """Scheduler events spent on N posts raised in one instant from
    node 0 at an object on ``home``, after one warm-up post (it creates
    the master handler thread)."""
    cluster = make_cluster(n_nodes=2, **config)
    for name in ("WORK", "NOP"):
        cluster.register_event(name)
    cap = cluster.create_object(Target, node=home)
    cluster.raise_event(event, cap, from_node=0)
    cluster.run(until=1.0)
    before = _scheduled(cluster)
    for _ in range(N):
        cluster.raise_event(event, cap, from_node=0)
    cluster.run(until=2.0)
    assert cluster.get_object(cap).hits == N + 1
    assert cluster.quiescent()
    return _scheduled(cluster) - before


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
class TestHomeNodePost:
    def test_one_event_per_post_plus_one_wake(self, scheduler):
        assert _object_posts("WORK", scheduler=scheduler) == N + 1

    def test_two_when_the_handler_yields_nothing(self, scheduler):
        """Two per post is what a handler that yields nothing costs on a
        thread made for it; the master handler thread spends the wake
        alone on the whole batch."""
        assert _object_posts("NOP", scheduler=scheduler) == 1
        per_event = dict(scheduler=scheduler, object_event_mode="per-event")
        assert _object_posts("NOP", **per_event) == 2 * N

    def test_per_event_thread_pays_its_creation(self, scheduler):
        """E3's other mode: the ``thread_create_cost`` timer and the
        one-shot thread's first step, then the handler's compute."""
        per_event = dict(scheduler=scheduler, object_event_mode="per-event")
        assert _object_posts("WORK", **per_event) == 3 * N
        assert _object_posts("NOP", **per_event) == 2 * N


def test_remote_durable_post():
    """Sixteen journaled posts over the reliable channel, one instant:
    message transits, ack timers and one store.ack window for the batch,
    plus one master wake and the sixteen computes — 56 and 40 while the
    master hopped once per post to take its next one."""
    assert _object_posts("WORK", home=1, durable_delivery=True) == 41
    assert _object_posts("NOP", home=1, durable_delivery=True) == 25


def test_thread_notice_costs_what_it_did():
    """The thread path is untouched: a tid notice with a one-handler
    chain is context switch + ``surrogate_cost`` timer + the handler's
    compute; a queue of them shares one suspension."""
    cluster = make_cluster(n_nodes=2)
    cluster.register_event("WORK")
    cap = cluster.create_object(Holder, node=0)
    seen = []
    thread = cluster.spawn(cap, "hold", seen, at=0)
    cluster.run(until=1.0)
    before = _scheduled(cluster)
    cluster.raise_event("WORK", thread.tid, from_node=0, user_data="one")
    cluster.run(until=2.0)
    assert _scheduled(cluster) - before == 3
    before = _scheduled(cluster)
    for k in range(N):
        cluster.raise_event("WORK", thread.tid, from_node=0, user_data=k)
    cluster.run(until=3.0)
    assert _scheduled(cluster) - before == 2 * N + 1
    assert seen == ["one", *range(N)]


# ----------------------------------------------------------------------
# the query the fold asks
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", [Simulator, WheelSimulator])
class TestNothingDueNow:
    def test_idle_and_lane(self, backend):
        sim = backend()
        assert sim.nothing_due_now()
        handle = sim.call_soon(print)
        assert not sim.nothing_due_now()
        sim.cancel(handle)
        assert sim.nothing_due_now()  # a cancelled entry is not due

    def test_timed_entries_at_this_instant(self, backend):
        sim = backend()
        seen = []
        sim.call_at(1.0, lambda: seen.append(sim.nothing_due_now()))
        sim.call_at(1.0, seen.append, "second")
        sim.call_at(1.0, lambda: seen.append(sim.nothing_due_now()))
        sim.call_at(2.0, seen.append, "later")
        sim.run(until=1.5)
        # the first sees the second due; the last sees only 2.0 ahead
        assert seen == [False, "second", True]
        cancelled = []

        def first():
            sim.cancel(cancelled[0])
            seen.append(sim.nothing_due_now())

        sim.call_at(3.0, first)
        sim.call_at(3.0, lambda: seen.append(sim.nothing_due_now()))
        cancelled.append(sim.call_at(3.0, seen.append, "never"))
        sim.run()
        # the last one at 3.0 sees only the cancelled entry behind it
        assert seen[3:] == ["later", False, True]

    def test_a_spilled_entry_at_now_is_due(self, backend):
        sim = backend()
        sim.run(until=10_000.0)  # past any wheel horizon
        sim.call_soon(print)
        assert not sim.nothing_due_now()


def test_the_wall_clock_never_folds():
    scheduler = RealtimeScheduler(poll=0.001)
    try:
        assert not scheduler.nothing_due_now()
    finally:
        scheduler.close()


# ----------------------------------------------------------------------
# where the hop stays
# ----------------------------------------------------------------------

class Noisy(DistObject):
    """Queues a same-instant callback from each handler run."""

    def __init__(self, sim, log):
        super().__init__()
        self.sim = sim
        self.log = log

    @on_event("WORK")
    def on_work(self, ctx, block):
        self.log.append(("start", block.user_data))
        yield ctx.compute(1e-5)
        self.sim.call_soon(self.log.append, ("soon", block.user_data))


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_a_callback_queued_by_the_handler_keeps_the_hop(scheduler):
    cluster = make_cluster(n_nodes=1, scheduler=scheduler)
    cluster.register_event("WORK")
    log = []
    cap = cluster.create_object(Noisy, cluster.sim, log, node=0)
    before = _scheduled(cluster)
    for k in range(N):
        cluster.raise_event("WORK", cap, from_node=0, user_data=k)
    cluster.run()
    assert log == [(kind, k) for k in range(N) for kind in ("start", "soon")]
    # master creation, N computes, N call_soons, and N - 1 recv hops
    assert _scheduled(cluster) - before == 1 + N + N + N - 1


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_a_local_sync_raisers_arrive_keeps_the_hop(scheduler):
    """Each conclusion queues the raiser's ``_arrive`` at its instant:
    the master's next take waits behind it, so raiser *k* is resumed
    before handler *k+1* starts."""
    cluster = make_cluster(n_nodes=1, scheduler=scheduler)
    cluster.register_event("WORK")
    futures, log = [], []

    class Counting(DistObject):
        @on_event("WORK")
        def on_work(self, ctx, block):
            log.append(sum(future.done for future in futures))
            yield ctx.compute(1e-5)
            return block.user_data

    cap = cluster.create_object(Counting, node=0)
    before = _scheduled(cluster)
    futures += [cluster.raise_and_wait("WORK", cap, from_node=0, user_data=k)
                for k in range(N)]
    cluster.run()
    assert log == list(range(N))
    assert [future.result() for future in futures] == list(range(N))
    # master creation, N computes, N arrives, and N - 1 recv hops
    assert _scheduled(cluster) - before == 1 + N + N + N - 1


class Consumer(DistObject):
    """A user thread that takes ``count`` items from a channel."""

    @entry
    def take(self, ctx, channel, count, log, after_first=None):
        def on_poke(hctx, block):
            log.append("notice")
            yield hctx.compute(0)
            return Decision.RESUME

        yield ctx.attach_handler("POKE", on_poke)
        total = 0
        for _ in range(count):
            total += yield ctx.recv(channel)
            log.append("item")
            if after_first is not None:
                after_first()
                after_first = None
        return total


def test_a_pending_notice_is_delivered_before_the_next_item():
    """The notice lands while the thread runs, between its first item
    and its next recv, with two items waiting: it is handled first."""
    cluster = make_cluster(n_nodes=1)
    cluster.register_event("POKE")
    channel, log = Channel(cluster.sim), []
    for k in (1, 2, 3):
        channel.put(k)
    cap = cluster.create_object(Consumer, node=0)
    thread = cluster.spawn(cap, "take", channel, 3, log, lambda: (
        cluster.raise_event("POKE", thread.tid, from_node=0)), at=0)
    cluster.run()
    assert thread.completion.result() == 6
    assert log == ["item", "notice", "item", "item"]


def test_a_thread_feeding_its_own_channel_is_still_caught():
    cluster = make_cluster(n_nodes=1)
    channel, spins = Channel(cluster.sim), [0]

    class Feeder(DistObject):
        @entry
        def spin(self, ctx):
            while True:
                channel.put(spins[0])
                yield ctx.recv(channel)
                spins[0] += 1

    cluster.spawn(cluster.create_object(Feeder, node=0), "spin", at=0)
    with pytest.raises(SimulationError):
        cluster.run(max_events=100)
    assert 0 < spins[0] <= 100 * (RECV_FOLDS + 1)


def test_a_long_queue_drains_without_recursion():
    cluster = make_cluster(n_nodes=1)
    channel, log = Channel(cluster.sim), []
    count = 100_000
    for k in range(count):
        channel.put(k)
    cap = cluster.create_object(Consumer, node=0)
    cluster.register_event("POKE")
    thread = cluster.spawn(cap, "take", channel, count, log, at=0)
    before = _scheduled(cluster)
    cluster.run(max_events=None)
    assert thread.completion.result() == count * (count - 1) // 2
    # one hop per RECV_FOLDS + 1 items taken, give or take the ends
    assert _scheduled(cluster) - before < count // RECV_FOLDS + 16


# ----------------------------------------------------------------------
# the order the fold keeps
# ----------------------------------------------------------------------

class Ordered(DistObject):
    """Records, as each handler's first statement, how many earlier
    posts have concluded by then."""

    def __init__(self, concluded, log):
        super().__init__()
        self.concluded = concluded
        self.log = log

    @on_event("WORK")
    def on_work(self, ctx, block):
        self.log.append((block.user_data, self.concluded()))
        yield ctx.compute(1e-5)
        if block.user_data % 4 == 3:
            raise RuntimeError("poison pill")
        return block.user_data * 10


def test_post_k_concludes_before_handler_k_plus_one_starts():
    """Sixteen posts queued on the master in one instant run FIFO, and
    each is acked in the journal, its blocked raiser resumed, or
    dead-lettered before the next handler's first statement."""
    cluster = make_cluster(n_nodes=1, durable_delivery=True,
                           poison_threshold=1)
    cluster.register_event("WORK")
    raisers, log = [], []

    def concluded():
        stats = cluster.durability_stats()
        return (stats["delivered"] + stats.get("quarantined", 0),
                sum(future.done for future in raisers),
                len(cluster.dead_letters()))

    cap = cluster.create_object(Ordered, concluded, log, node=0)
    raisers += [cluster.raise_and_wait("WORK", cap, from_node=0, user_data=k)
                for k in range(N)]
    cluster.run(until=1.0)
    assert log == [(k, (k, k, k // 4)) for k in range(N)]
    assert [f.result() for f in raisers if not f.failed] == [
        k * 10 for k in range(N) if k % 4 != 3]
    assert cluster.durability_stats()["pending"] == 0
