"""Unit tests for sim futures and channels."""

import pytest

from repro import DistObject, entry
from repro.errors import InvocationAborted, NodeCrashedError, SimulationError
from repro.sim import Channel, SimFuture, Simulator
from tests.conftest import make_cluster


@pytest.fixture()
def sim():
    return Simulator()


class TestSimFuture:
    def test_resolve_and_result(self, sim):
        fut = SimFuture(sim)
        assert not fut.done
        fut.resolve(42)
        assert fut.done
        assert fut.result() == 42

    def test_result_before_done_raises(self, sim):
        fut = SimFuture(sim)
        with pytest.raises(SimulationError):
            fut.result()

    def test_fail_reraises(self, sim):
        fut = SimFuture(sim)
        fut.fail(ValueError("boom"))
        assert fut.failed
        with pytest.raises(ValueError, match="boom"):
            fut.result()

    def test_fail_requires_exception(self, sim):
        fut = SimFuture(sim)
        with pytest.raises(SimulationError):
            fut.fail("not an exception")

    def test_double_resolve_rejected(self, sim):
        fut = SimFuture(sim)
        fut.resolve(1)
        with pytest.raises(SimulationError):
            fut.resolve(2)

    def test_cancel(self, sim):
        fut = SimFuture(sim)
        assert fut.cancel() is True
        assert fut.cancelled
        assert fut.cancel() is False
        with pytest.raises(SimulationError):
            fut.result()

    def test_callbacks_run_via_scheduler(self, sim):
        fut = SimFuture(sim)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        fut.resolve("v")
        assert seen == []  # not synchronous
        sim.run()
        assert seen == ["v"]

    def test_callback_added_after_done_still_fires(self, sim):
        fut = SimFuture(sim)
        fut.resolve(7)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        sim.run()
        assert seen == [7]

    def test_multiple_callbacks_fifo(self, sim):
        fut = SimFuture(sim)
        seen = []
        fut.add_done_callback(lambda f: seen.append("a"))
        fut.add_done_callback(lambda f: seen.append("b"))
        fut.resolve(None)
        sim.run()
        assert seen == ["a", "b"]


class TestChannel:
    def test_put_then_get(self, sim):
        chan = Channel(sim)
        chan.put("a")
        assert chan.get().result() == "a"

    def test_get_then_put(self, sim):
        chan = Channel(sim)
        getter = chan.get()
        assert not getter.done
        chan.put("b")
        assert getter.result() == "b"

    def test_fifo_ordering(self, sim):
        chan = Channel(sim)
        for i in range(5):
            chan.put(i)
        assert [chan.get().result() for _ in range(5)] == list(range(5))

    def test_getters_served_in_order(self, sim):
        chan = Channel(sim)
        g1, g2 = chan.get(), chan.get()
        chan.put("first")
        chan.put("second")
        assert g1.result() == "first"
        assert g2.result() == "second"

    def test_len_and_drain(self, sim):
        chan = Channel(sim)
        chan.put(1)
        chan.put(2)
        assert len(chan) == 2
        assert chan.drain() == [1, 2]
        assert len(chan) == 0

    def test_put_skips_cancelled_getter(self, sim):
        chan = Channel(sim)
        g1, g2 = chan.get(), chan.get()
        g1.cancel()
        chan.put("x")
        assert g2.result() == "x"

    def test_reset_forgets_waiting_getters(self, sim):
        """Regression: after a consumer dies mid-``get`` (node crash),
        its stale future must not swallow the next ``put`` — ``reset``
        drops items AND waiters so a fresh consumer sees new items."""
        chan = Channel(sim)
        stale = chan.get()  # consumer dies while parked here
        assert not stale.done
        chan.reset()  # crash cleanup
        chan.put("post-crash")  # must not be handed to the dead waiter
        assert not stale.done
        assert chan.get().result() == "post-crash"

    def test_reset_forgets_parked_waiters_too(self, sim):
        chan = Channel(sim)
        offered = []
        chan.park(lambda item: offered.append(item) or True)
        chan.reset()
        chan.put("post-crash")
        assert offered == [] and chan.drain() == ["post-crash"]

    def test_futures_and_parked_waiters_share_one_fifo(self, sim):
        """``put`` serves the oldest waiter that still wants an item,
        whichever kind it is; one that declines is skipped for good."""
        chan = Channel(sim)
        taken = []

        def taker(name, wants=True):
            return lambda item: wants and (taken.append((name, item))
                                           or True)

        first = chan.get()
        chan.park(taker("gone", wants=False))
        chan.park(taker("parked"))
        cancelled = chan.get()
        cancelled.cancel()
        last = chan.get()
        for item in "abc":
            chan.put(item)
        assert first.result() == "a"
        assert taken == [("parked", "b")]
        assert last.result() == "c"
        chan.put("d")  # nobody left waiting
        assert chan.pop() == "d" and len(chan) == 0

    def test_unpark_removes_exactly_that_waiter(self, sim):
        chan = Channel(sim)
        taken = []
        takers = [lambda item, i=i: taken.append((i, item)) or True
                  for i in range(3)]
        for take in takers:
            chan.park(take)
        chan.unpark(takers[1])
        chan.unpark(takers[1])  # already gone: a no-op
        chan.put("x")
        chan.put("y")
        assert taken == [(0, "x"), (2, "y")]

    def test_settle_reports_whether_it_completed_the_future(self, sim):
        fut = SimFuture(sim)
        assert fut.settle("v") is True
        assert fut.settle("w") is False
        assert fut.result() == "v"
        failed = SimFuture(sim)
        assert failed.settle(None, ValueError("boom")) is True
        assert failed.failed

    def test_reset_returns_queued_items(self, sim):
        chan = Channel(sim)
        chan.put(1)
        chan.put(2)
        stale = chan.get()  # resolved immediately with 1
        assert stale.result() == 1
        assert chan.reset() == [2]
        assert len(chan) == 0


class _Consumer(DistObject):
    @entry
    def take(self, ctx, chan, got, n=1):
        for _ in range(n):
            item = yield ctx.recv(chan)
            got.append((str(ctx.tid), item, ctx.now))
        return "done"

    @entry
    def take_with_handler(self, ctx, chan, got, seen):
        def on_evt(hctx, block):
            yield hctx.compute(1e-3)
            seen.append((block.user_data, hctx.now))

        yield ctx.attach_handler("EVT", on_evt)
        item = yield ctx.recv(chan)
        got.append((str(ctx.tid), item, ctx.now))

    @entry
    def await_future(self, ctx, fut, log):
        try:
            yield ctx.wait(fut)
        except ValueError as exc:
            log.append(("caught", str(exc), ctx.now))
        finally:
            log.append("cleanup")
        yield ctx.compute(1e-3)
        return "survived"

    @entry
    def call_then_wait(self, ctx, inner, stale, fresh, log):
        try:
            yield ctx.invoke(inner, "await_future", stale, log)
        except InvocationAborted:
            log.append("aborted")
        return (yield ctx.wait(fresh))


class TestCtxWait:
    """``ctx.wait``: the future's outcome reaches the frame at its wait
    point, once, and a wait the thread abandoned takes nothing."""

    def _rig(self):
        cluster = make_cluster(n_nodes=1)
        cap = cluster.create_object(_Consumer, node=0)
        return cluster, cap, SimFuture(cluster.sim), []

    def test_failed_future_is_raised_inside_the_frame_at_its_wait(self):
        cluster, cap, fut, log = self._rig()
        thread = cluster.spawn(cap, "await_future", fut, log, at=0)
        cluster.run(until=0.1)
        assert (thread.state, thread.wait_kind) == ("blocked", "future")
        cluster.sim.call_after(0.15, fut.fail, ValueError("nope"))
        cluster.run(until=1.0)
        assert log == [("caught", "nope", 0.25), "cleanup"]
        assert thread.completion.result() == "survived"

    def test_aborted_wait_drops_its_stale_completion(self):
        """The aborted frame's future completes after the caller has
        moved on to another wait: the caller must not be resumed by it."""
        cluster, cap, stale, log = self._rig()
        fresh = SimFuture(cluster.sim)
        inner = cluster.create_object(_Consumer, node=0)
        thread = cluster.spawn(cap, "call_then_wait", inner, stale, fresh,
                               log, at=0)
        cluster.run(until=0.1)
        assert cluster.invoker.abort_invocation(thread, inner.oid) is True
        cluster.run(until=0.2)
        assert log == ["cleanup", "aborted"]
        assert (thread.state, thread.wait_kind) == ("blocked", "future")
        stale.resolve("stale")
        cluster.run(until=0.3)
        assert thread.state == "blocked"
        fresh.resolve("fresh")
        cluster.run(until=0.4)
        assert thread.completion.result() == "fresh"


class TestCtxRecv:
    """``ctx.recv``: a thread parked on an empty channel is handed the
    next item directly, in arrival order, and one that stopped waiting
    never takes an item with it."""

    def _rig(self):
        cluster = make_cluster(n_nodes=1)
        cluster.register_event("EVT")
        cap = cluster.create_object(_Consumer, node=0)
        return cluster, cap, Channel(cluster.sim), []

    def test_parked_thread_is_handed_the_item_in_one_hop(self):
        cluster, cap, chan, got = self._rig()
        thread = cluster.spawn(cap, "take", chan, got, at=0)
        cluster.run(until=0.1)
        assert (thread.state, thread.wait_kind) == ("blocked", "recv")
        before = cluster.scheduler_stats()["scheduled"]
        chan.put("x")
        assert cluster.scheduler_stats()["scheduled"] == before + 1
        cluster.run(until=0.2)
        assert got == [(str(thread.tid), "x", 0.1)]
        assert thread.state == "done"

    def test_queued_items_are_received_in_order_one_hop_each(self):
        cluster, cap, chan, got = self._rig()
        for item in "abc":
            chan.put(item)
        thread = cluster.spawn(cap, "take", chan, got, 3, at=0)
        cluster.run(until=0.1)
        assert [item for _, item, _ in got] == ["a", "b", "c"]
        assert thread.state == "done" and len(chan) == 0

    def test_threads_are_served_in_arrival_order(self):
        cluster, cap, chan, got = self._rig()
        threads = [cluster.spawn(cap, "take", chan, got, at=0)
                   for _ in range(3)]
        cluster.run(until=0.1)
        for item in "abc":
            chan.put(item)
        cluster.run(until=0.2)
        assert [(tid, item) for tid, item, _ in got] == [
            (str(t.tid), item) for t, item in zip(threads, "abc")]

    @pytest.mark.parametrize("how", ["terminate-event", "terminate",
                                     "destroy-abrupt"])
    def test_a_thread_killed_while_parked_takes_no_item(self, how):
        """Regression: the dead thread's getter future stayed in the
        channel, ``put`` resolved it and the item was dropped on the
        stale wait epoch — the next consumer blocked for ever."""
        cluster, cap, chan, got = self._rig()
        victim = cluster.spawn(cap, "take", chan, got, at=0)
        cluster.run(until=0.1)
        assert victim.state == "blocked"
        if how == "terminate-event":
            cluster.raise_event("TERMINATE", victim.tid, from_node=0)
        elif how == "terminate":
            cluster.invoker.terminate_thread(victim, reason="test")
        else:
            cluster.invoker.destroy_thread_abrupt(
                victim, NodeCrashedError("test"))
        cluster.run(until=0.2)
        assert victim.state == "terminated"
        chan.put("x")
        assert len(chan) == 1  # nobody is waiting: the item is queued
        heir = cluster.spawn(cap, "take", chan, got, at=0)
        cluster.run(until=0.3)
        assert heir.state == "done"
        assert [(tid, item) for tid, item, _ in got] == [
            (str(heir.tid), "x")]

    def test_a_dead_waiter_is_skipped_for_the_next_live_one(self):
        cluster, cap, chan, got = self._rig()
        victim = cluster.spawn(cap, "take", chan, got, at=0)
        heir = cluster.spawn(cap, "take", chan, got, at=0)
        cluster.run(until=0.1)
        cluster.invoker.terminate_thread(victim, reason="test")
        chan.put("x")  # before the unwind has even finished
        cluster.run(until=0.2)
        assert [(tid, item) for tid, item, _ in got] == [
            (str(heir.tid), "x")]

    def test_item_arriving_during_a_notice_is_received_after_it(self):
        """``ctx.recv`` is interruptible: a notice delivered while the
        thread is parked runs its handler at once; an item put meanwhile
        is stashed and received when the suspension ends."""
        cluster, cap, chan, got = self._rig()
        seen = []
        thread = cluster.spawn(cap, "take_with_handler", chan, got, seen,
                               at=0)
        cluster.run(until=0.1)
        assert thread.state == "blocked"
        cluster.raise_event("EVT", thread.tid, from_node=0, user_data="n1")
        cluster.run(until=0.1005)  # mid-handler
        assert thread.suspended_by_event
        chan.put("x")
        assert len(chan) == 0  # taken by the suspended thread
        cluster.run(until=0.2)
        assert [data for data, _ in seen] == ["n1"]
        (_, item, at), = got
        assert item == "x" and at >= seen[0][1]
        assert thread.state == "done"

    def test_notice_while_parked_leaves_the_thread_parked(self):
        cluster, cap, chan, got = self._rig()
        seen = []
        thread = cluster.spawn(cap, "take_with_handler", chan, got, seen,
                               at=0)
        cluster.run(until=0.1)
        cluster.raise_event("EVT", thread.tid, from_node=0, user_data="n1")
        cluster.run(until=0.2)
        assert len(seen) == 1 and got == []
        assert (thread.state, thread.wait_kind) == ("blocked", "recv")
        chan.put("late")
        cluster.run(until=0.3)
        assert [item for _, item, _ in got] == ["late"]
