"""Tests for handler supervision: watchdog deadlines, buddy circuit
breakers, dead-letter quarantine, the SWIM failure detector — and
the knobs-off guarantee that none of it perturbs unsupervised runs."""

from dataclasses import replace
from functools import partial

import pytest

from repro import (
    TRANSPORT_DSM,
    Decision,
    DistObject,
    entry,
    handler_entry,
    on_event,
)
from repro.bench.chaos import ChaosSpec, hung_handlers, run_chaos
from repro.dsm import PagerServer, attach_pager
from repro.errors import (
    DeadThreadError,
    EventError,
    EventQuarantinedError,
    HandlerTimeout,
    PagerError,
    RpcTimeout,
)
from repro.events.handlers import (
    HandlerChain,
    HandlerContext,
    HandlerRegistration,
)
from repro.events.supervise import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.threads.thread import KIND_KERNEL
from tests.conftest import make_cluster


def _rig(**cfg):
    cluster = make_cluster(**cfg)
    cluster.register_event("EVT")
    return cluster


def _hang(hctx, block):
    yield hctx.sleep(1e9)
    return Decision.RESUME


# ======================================================================
# circuit breaker (pure state machine)
# ======================================================================

class TestCircuitBreaker:
    def test_closed_admits_everything(self):
        breaker = CircuitBreaker(threshold=3, reset=1.0)
        assert breaker.state == CLOSED
        for now in (0.0, 5.0, 100.0):
            assert breaker.allow(now) == (True, False)

    def test_threshold_consecutive_failures_open_it(self):
        breaker = CircuitBreaker(threshold=3, reset=1.0)
        assert not breaker.record_failure(0.1)
        assert not breaker.record_failure(0.2)
        assert breaker.record_failure(0.3)  # the opening failure reports
        assert breaker.state == OPEN
        assert breaker.opened_at == 0.3

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, reset=1.0)
        breaker.record_failure(0.1)
        assert not breaker.record_success()  # already closed: no close
        breaker.record_failure(0.2)
        assert breaker.state == CLOSED  # count restarted after success
        assert breaker.record_failure(0.3)

    def test_open_rejects_inside_the_reset_window(self):
        breaker = CircuitBreaker(threshold=1, reset=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(0.5) == (False, False)
        assert breaker.state == OPEN

    def test_reset_window_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(threshold=1, reset=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.5) == (True, True)  # the half-open probe
        assert breaker.state == HALF_OPEN
        # While the probe is in flight nothing else gets through.
        assert breaker.allow(1.6) == (False, False)

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, reset=1.0)
        breaker.record_failure(0.0)
        breaker.allow(1.5)
        assert breaker.record_success()  # reports the close
        assert breaker.state == CLOSED
        assert breaker.allow(1.6) == (True, False)

    def test_probe_failure_reopens_and_refreshes_the_window(self):
        breaker = CircuitBreaker(threshold=1, reset=1.0)
        breaker.record_failure(0.0)
        breaker.allow(1.5)
        assert breaker.record_failure(1.6)  # re-open reports
        assert breaker.state == OPEN
        assert breaker.opened_at == 1.6
        assert breaker.allow(2.0) == (False, False)


# ======================================================================
# watchdog deadlines
# ======================================================================

class HungApp(DistObject):
    @entry
    def work(self, ctx, seen, deadline=None, subscribe=False):
        def watch(hctx, block):
            seen.append(block.user_data)
            yield hctx.compute(0)
            return Decision.RESUME

        if subscribe:
            yield ctx.attach_handler("HANDLER_TIMEOUT", watch)
        yield ctx.attach_handler("EVT", _hang, deadline=deadline)
        yield ctx.sleep(100.0)
        return "survived"


class TestWatchdog:
    def test_hung_last_handler_falls_through_to_default(self):
        """Satellite: a timeout on the last (only) handler must land on
        the event's default decision — RESUME for a user event."""
        cluster = _rig(n_nodes=2, handler_deadline=0.05)
        app = cluster.create_object(HungApp, node=0)
        thread = cluster.spawn(app, "work", [], at=0)
        cluster.run(until=0.1)
        start = cluster.now
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=start + 1.0)
        assert thread.state == "blocked"  # resumed back into its sleep
        stats = cluster.supervision_stats()
        assert stats["handler_timeouts"] == 1
        # No HANDLER_TIMEOUT subscription: no extra notice was raised.
        assert not any(r.category == "event" and r.name == "deliver"
                       and r.get("event") == "HANDLER_TIMEOUT"
                       for r in cluster.tracer.records)

    def test_timeout_propagates_to_the_next_handler(self):
        cluster = _rig(n_nodes=2, handler_deadline=0.05)
        handled = []

        class App(DistObject):
            @entry
            def work(self, ctx):
                def fallback(hctx, block):
                    handled.append(block.user_data)
                    yield hctx.compute(0)
                    return Decision.RESUME

                yield ctx.attach_handler("EVT", fallback)
                yield ctx.attach_handler("EVT", _hang)  # LIFO: runs first
                yield ctx.sleep(100.0)

        app = cluster.create_object(App, node=0)
        thread = cluster.spawn(app, "work", at=0)
        cluster.run(until=0.1)
        cluster.raise_event("EVT", thread.tid, from_node=1, user_data="x")
        cluster.run(until=1.0)
        assert handled == ["x"]
        assert cluster.supervision_stats()["handler_timeouts"] == 1

    def test_handler_timeout_event_delivered_to_subscriber(self):
        cluster = _rig(n_nodes=2, handler_deadline=0.05)
        seen = []
        app = cluster.create_object(HungApp, node=0)
        thread = cluster.spawn(app, "work", seen, None, True, at=0)
        cluster.run(until=0.1)
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=1.0)
        assert seen == [{"event": "EVT", "deadline": 0.05}]
        assert thread.state == "blocked"

    def test_per_registration_deadline_overrides_disabled_global(self):
        cluster = _rig(n_nodes=2)  # no handler_deadline knob
        app = cluster.create_object(HungApp, node=0)
        thread = cluster.spawn(app, "work", [], 0.04, at=0)
        cluster.run(until=0.1)
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=1.0)
        assert thread.state == "blocked"
        assert cluster.supervision_stats()["handler_timeouts"] == 1

    def test_no_deadline_means_the_handler_hangs(self):
        """The pre-supervision contrast: without a watchdog the hung
        surrogate wedges the thread's delivery forever."""
        cluster = _rig(n_nodes=2)
        app = cluster.create_object(HungApp, node=0)
        thread = cluster.spawn(app, "work", [], at=0)
        cluster.run(until=0.1)
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=2.0)
        assert thread.delivering_block is not None  # still mid-delivery
        assert cluster.supervision_stats()["handler_timeouts"] == 0

    def test_object_handler_watchdog_unwedges_the_master(self):
        hits = []

        class SlowObj(DistObject):
            @on_event("EVT")
            def on_evt(self, ctx, block):
                hits.append(block.user_data)
                if block.user_data == 0:
                    yield ctx.sleep(1e9)
                yield ctx.compute(1e-4)

        cluster = _rig(n_nodes=2, handler_deadline=0.05)
        cap = cluster.create_object(SlowObj, node=1)
        cluster.raise_event("EVT", cap, from_node=0, user_data=0)
        cluster.raise_event("EVT", cap, from_node=0, user_data=1)
        cluster.run(until=2.0)
        # Post 0 hung and was killed at the deadline; post 1 still ran.
        assert hits == [0, 1]
        assert cluster.supervision_stats()["handler_timeouts"] >= 1

class Slow(DistObject):
    """EVT handler that runs for ``user_data`` virtual seconds."""

    def __init__(self, hits):
        super().__init__()
        self.hits = hits

    @on_event("EVT")
    def on_evt(self, ctx, block):
        self.hits.append(block.user_data)
        yield ctx.sleep(block.user_data)
        return f"slept {block.user_data}"


class FailsOnce(DistObject):
    def __init__(self, runs):
        super().__init__()
        self.runs = runs

    @on_event("EVT")
    def on_evt(self, ctx, block):
        self.runs.append(block.user_data)
        yield ctx.compute(1e-4)
        if self.runs.count(block.user_data) == 1 and block.user_data == "flaky":
            raise RuntimeError("first run fails")
        return block.user_data


class Computes(DistObject):
    """EVT handler that computes 1 ms, calls ``after(user_data)`` if
    given, and returns its ``user_data``."""

    def __init__(self, after=None):
        super().__init__()
        self.after = after

    @on_event("EVT")
    def on_evt(self, ctx, block):
        yield ctx.compute(1e-3)
        if self.after is not None:
            self.after(block.user_data)
        return block.user_data


class PagedOnEvent(DistObject):
    """A pageable object whose EVT handler attaches a buddy pager and
    reads an unmaterialised field for post 0 only."""

    dsm_pageable = True
    dsm_pages = 4

    def __init__(self, pager):
        super().__init__()
        self.pager = pager

    @on_event("EVT")
    def on_evt(self, ctx, block):
        if block.user_data == 0:
            yield attach_pager(self.pager)
            yield ctx.read("k")
        yield ctx.compute(1e-3)
        return block.user_data


class SetsTimer(DistObject):
    """EVT handler computing 1 ms; post 0 first sets a one-shot
    TERMINATE timer due inside post 2's run."""

    @on_event("EVT")
    def on_evt(self, ctx, block):
        if block.user_data == 0:
            yield ctx.set_timer(2.5e-3, event="TERMINATE", recurring=False)
        yield ctx.compute(1e-3)
        return block.user_data


class TestObjectHandlerExitsOnce:
    """``run_object_handler(on_exit=)``: whichever way a handler run
    ends, its post hears of it exactly once, and the node keeps one
    master handler thread serving the queue."""

    def _exits(self, handler_exits):
        return [[type(error).__name__ if error else value
                 for value, error in exits] for _, exits in handler_exits]

    @pytest.mark.parametrize("backoff", [0.0, 1e-3])
    def test_poison_retry_queues_behind_the_posts_already_waiting(
            self, backoff, handler_exits, conclusions):
        cluster = _rig(n_nodes=1, poison_threshold=3, handler_backoff=backoff)
        runs = []
        cap = cluster.create_object(FailsOnce, runs, node=0)
        futures = [cluster.raise_and_wait("EVT", cap, from_node=0,
                                          user_data=data)
                   for data in ("flaky", 1, 2)]
        cluster.run(until=1.0)
        # the failed run is retried on the same master, behind the queue
        assert runs == ["flaky", 1, 2, "flaky"]
        assert self._exits(handler_exits) == [
            ["RuntimeError"], [1], [2], ["flaky"]]
        assert [f.result() for f in futures] == ["flaky", 1, 2]
        assert cluster.kernels[0].objects.handler_threads_created == 1
        assert cluster.supervision_stats()["chain_retries"] == 1
        assert conclusions.count("executed") == 3
        conclusions.check()

    def test_deadline_expiry_with_work_waiting_respawns_the_master(
            self, handler_exits, conclusions):
        cluster = _rig(n_nodes=1, handler_deadline=0.05)
        hits = []
        cap = cluster.create_object(Slow, hits, node=0)
        futures = [cluster.raise_and_wait("EVT", cap, from_node=0,
                                          user_data=seconds)
                   for seconds in (1e9, 0.01, 0.02)]
        cluster.run(until=1.0)
        assert hits == [1e9, 0.01, 0.02]
        assert self._exits(handler_exits) == [
            ["HandlerTimeout"], ["slept 0.01"], ["slept 0.02"]]
        with pytest.raises(HandlerTimeout):
            futures[0].result()
        assert [f.result() for f in futures[1:]] == ["slept 0.01",
                                                     "slept 0.02"]
        objects = cluster.kernels[0].objects
        assert objects.handler_threads_created == 2
        assert not objects._master.frames
        assert cluster.supervision_stats()["handler_timeouts"] == 1
        conclusions.check()
        assert cluster.quiescent()

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_terminate_at_the_master_is_a_dead_target(
            self, scheduler, handler_exits, conclusions):
        """Only a user thread is an event target: a TERMINATE raised at
        the master's tid mid-run is §7.2's dead-target notice, and the
        run it hit and the posts behind it complete on the one master."""
        cluster = _rig(n_nodes=1, seed=1, scheduler=scheduler)
        cap = cluster.create_object(FailsOnce, [], node=0)
        futures = [cluster.raise_and_wait("EVT", cap, from_node=0,
                                          user_data=data)
                   for data in (0, 1, 2)]
        cluster.run(until=5e-5)  # inside the first run's compute
        objects = cluster.kernels[0].objects
        terminate = cluster.raise_and_wait("TERMINATE", objects._master.tid,
                                           from_node=0)
        cluster.run(until=1.0)
        assert self._exits(handler_exits) == [[0], [1], [2]]
        assert [f.result() for f in futures] == [0, 1, 2]
        with pytest.raises(DeadThreadError):
            terminate.result()
        assert cluster.events.dead_targets == 1
        assert objects.handler_threads_created == 1
        assert objects._master.wait_kind == "parked"
        assert not objects._master.frames
        conclusions.check()
        assert cluster.quiescent()

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_terminate_at_a_per_event_thread_before_its_first_step(
            self, scheduler, handler_exits, conclusions):
        """A per-event thread is made at post time and first stepped
        ``thread_create_cost`` later. A TERMINATE at it inside that
        window used to kill it with no frame, and the newest post then
        waited in the queue for good; now the raiser is told the target
        is dead and every post runs."""
        cluster = _rig(n_nodes=1, seed=1, scheduler=scheduler,
                       object_event_mode="per-event")
        cap = cluster.create_object(Computes, node=0)
        futures = [cluster.raise_and_wait("EVT", cap, from_node=0,
                                          user_data=data)
                   for data in (0, 1, 2)]
        cluster.run(until=1e-4)  # inside thread_create_cost
        oldest = next(thread for thread in cluster.live_threads.values()
                      if thread.kind == KIND_KERNEL)
        terminate = cluster.raise_and_wait("TERMINATE", oldest.tid,
                                           from_node=0)
        cluster.run(until=1.0)
        assert [f.result() for f in futures] == [0, 1, 2]
        with pytest.raises(DeadThreadError):
            terminate.result()
        assert self._exits(handler_exits) == [[0], [1], [2]]
        assert cluster.events.dead_targets == 1
        assert not cluster.kernels[0].objects._queue
        conclusions.check()
        assert cluster.quiescent()

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_terminate_reaching_the_master_in_its_hop(
            self, scheduler, handler_exits, conclusions):
        """The notice lands while the master hops between two runs, with
        no frame: it used to die there and strand the posts behind the
        run it had just ended. The raise queued by the first handler is
        due at its exit, so the master hops, and the raise runs first."""
        cluster = _rig(n_nodes=1, seed=1, scheduler=scheduler)
        objects = cluster.kernels[0].objects

        def terminate_the_master(data):
            if data == 0:
                cluster.sim.call_soon(cluster.raise_event, "TERMINATE",
                                      objects._master.tid)

        cap = cluster.create_object(Computes, terminate_the_master, node=0)
        futures = [cluster.raise_and_wait("EVT", cap, from_node=0,
                                          user_data=data)
                   for data in (0, 1, 2)]
        cluster.run(until=1.0)
        assert [f.result() for f in futures] == [0, 1, 2]
        assert self._exits(handler_exits) == [[0], [1], [2]]
        assert cluster.events.dead_targets == 1
        assert not objects._queue
        assert objects.handler_threads_created == 1
        assert objects._master.wait_kind == "parked"
        conclusions.check()
        assert cluster.quiescent()

    @pytest.mark.parametrize("mode", ["master", "per-event"])
    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_a_page_fault_in_an_object_handler_ends_its_run(
            self, scheduler, mode, handler_exits, conclusions):
        """VM_FAULT is a notice to the faulting thread, and a loop thread
        is no event target: an object handler that touches an
        unmaterialised page gets ``PagerError`` at the access (its buddy
        pager attached or not), its run ends with it, and the posts
        behind it run."""
        cluster = _rig(n_nodes=2, seed=1, scheduler=scheduler,
                       object_event_mode=mode)
        pager = cluster.create_object(PagerServer, node=1)
        cap = cluster.create_object(PagedOnEvent, pager, node=0,
                                    transport=TRANSPORT_DSM)
        futures = [cluster.raise_and_wait("EVT", cap, from_node=0,
                                          user_data=data)
                   for data in (0, 1, 2)]
        cluster.run(until=1.0)
        with pytest.raises(PagerError):
            futures[0].result()
        assert [f.result() for f in futures[1:]] == [1, 2]
        assert self._exits(handler_exits) == [["PagerError"], [1], [2]]
        objects = cluster.kernels[0].objects
        assert not objects._queue
        if mode == "master":
            assert objects.handler_threads_created == 1
            assert objects._master.wait_kind == "parked"
        assert cluster.dsm.protocol_stats()["vm_faults"] == 1
        assert cluster.get_object(pager).faults_served == 0
        conclusions.check()
        assert cluster.quiescent()

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_a_timer_set_in_an_object_handler_reaches_no_one(
            self, scheduler, handler_exits, conclusions):
        """A timer set by a handler is the master's, and its notice is
        refused as any other: a TERMINATE timer firing in a later run
        neither ends that run nor replaces the master."""
        cluster = _rig(n_nodes=1, seed=1, scheduler=scheduler)
        cap = cluster.create_object(SetsTimer, node=0)
        futures = [cluster.raise_and_wait("EVT", cap, from_node=0,
                                          user_data=data)
                   for data in (0, 1, 2)]
        cluster.run(until=1.0)
        assert [f.result() for f in futures] == [0, 1, 2]
        assert self._exits(handler_exits) == [[0], [1], [2]]
        objects = cluster.kernels[0].objects
        assert objects.handler_threads_created == 1
        assert objects._master.alive and not objects._master.armed_timers
        conclusions.check()
        assert cluster.quiescent()

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_handler_due_back_on_the_deadline_loses_the_tie_once(
            self, scheduler, handler_exits, conclusions):
        """The handler's wake-up and its watchdog share an instant; the
        watchdog was armed first, so it fires first and the wake-up
        finds its thread gone: one exit, the timeout's."""
        cluster = _rig(n_nodes=1, handler_deadline=0.05, scheduler=scheduler)
        hits = []
        cap = cluster.create_object(Slow, hits, node=0)
        tied = cluster.raise_and_wait("EVT", cap, from_node=0, user_data=0.05)
        after = cluster.raise_and_wait("EVT", cap, from_node=0,
                                       user_data=0.01)
        cluster.run(until=1.0)
        assert self._exits(handler_exits) == [["HandlerTimeout"],
                                             ["slept 0.01"]]
        with pytest.raises(HandlerTimeout):
            tied.result()
        assert after.result() == "slept 0.01"
        assert cluster.supervision_stats()["handler_timeouts"] == 1
        conclusions.check()

    def test_watchdog_firing_behind_the_exit_in_one_instant_is_a_no_op(
            self, handler_exits, conclusions):
        """The other order of that tie cannot be scheduled today (the
        exit cancels its watchdog), so it is driven by hand: the
        supervisor's watchdog callback, called in the instant the
        handler returned, finds the run over."""
        cluster = _rig(n_nodes=1, handler_deadline=0.05)
        sim, watchdogs = cluster.sim, []
        call_after = sim.call_after
        supervisor = cluster.events.supervisor

        def spying(delay, fn, *args):
            if fn == supervisor._expired:
                watchdogs.append(partial(fn, *args))
            return call_after(delay, fn, *args)

        sim.call_after = spying
        late = []

        class Done(DistObject):
            @on_event("EVT")
            def on_evt(self, ctx, block):
                yield ctx.compute(0.01)
                # queued behind this very step, in the same instant
                sim.call_soon(lambda: (watchdogs[0](),
                                       late.append(sim.now)))
                return "returned"

        cap = cluster.create_object(Done, node=0)
        future = cluster.raise_and_wait("EVT", cap, from_node=0)
        cluster.run(until=1.0)
        assert late == [0.01] and future.result() == "returned"
        assert self._exits(handler_exits) == [["returned"]]
        assert cluster.supervision_stats()["handler_timeouts"] == 0
        master = cluster.kernels[0].objects._master
        assert master.alive and master.wait_kind == "parked"
        conclusions.check()


class TimedChainApp(DistObject):
    """A chain whose handler *i* sleeps ``steps[i][0]`` under deadline
    ``steps[i][1]``; all PROPAGATE."""

    @entry
    def work(self, ctx, steps, log, seen):
        def watch(hctx, block):
            seen.append(block.user_data)
            yield hctx.compute(0)
            return Decision.RESUME

        def step(pos, seconds):
            def handler(hctx, block):
                log.append((pos, "start", hctx.real_tid))
                yield hctx.sleep(seconds)
                log.append((pos, "end", hctx.real_tid))
                return Decision.PROPAGATE
            return handler

        yield ctx.attach_handler("HANDLER_TIMEOUT", watch)
        for pos in reversed(range(len(steps))):  # LIFO: 0 runs first
            seconds, deadline = steps[pos]
            yield ctx.attach_handler("EVT", step(pos, seconds),
                                     deadline=deadline)
        yield ctx.sleep(100.0)


class TestResidentSurrogateWatchdog:
    """The chain's handlers share one surrogate, so a watchdog must die
    with the handler run it was armed for."""

    def _run(self, steps):
        cluster = _rig(n_nodes=2)
        log, seen = [], []
        app = cluster.create_object(TimedChainApp, node=0)
        thread = cluster.spawn(app, "work", steps, log, seen, at=0)
        cluster.run(until=0.1)
        cancelled = cluster.sim.stats()["cancellations"]
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=cluster.now + 1.0)
        cancelled = cluster.sim.stats()["cancellations"] - cancelled
        return cluster, thread, log, seen, cancelled

    def test_timeout_mid_chain_replaces_the_surrogate(self):
        cluster, thread, log, seen, _ = self._run(
            [(1e-3, None), (1e9, 0.05), (1e-3, None)])
        assert [(pos, what) for pos, what, _ in log] == [
            (0, "start"), (0, "end"), (1, "start"),
            (2, "start"), (2, "end")]
        first, hung, fresh = log[0][2], log[2][2], log[3][2]
        assert first == hung != fresh
        assert cluster.supervision_stats()["handler_timeouts"] == 1
        assert seen == [{"event": "EVT", "deadline": 0.05}]  # raised once
        destroyed = cluster.tracer.select("thread", "destroy")
        assert [r.get("tid") for r in destroyed] == [str(hung)]
        assert thread.state == "blocked"
        # the replacement, not the destroyed one, stays parked with the
        # thread and serves its next notice
        [parked] = [t for t in cluster.live_threads.values()
                    if t.kind == "surrogate"]
        assert parked.tid == fresh and parked is thread.chain_surrogate
        assert (parked.wait_kind, parked.frames) == ("parked", [])
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=cluster.now + 0.01)
        assert log[5][:2] == (0, "start") and log[5][2] == fresh

    def test_finished_handlers_watchdog_never_fires_into_the_next(self):
        # Handler 0's deadline (armed at t, due t+0.05) falls inside
        # handler 1's run (t+0.03 .. t+0.07, own deadline t+0.08).
        cluster, thread, log, seen, cancelled = self._run(
            [(0.03, 0.05), (0.04, 0.05)])
        assert [(pos, what) for pos, what, _ in log] == [
            (0, "start"), (0, "end"), (1, "start"), (1, "end")]
        assert len({real for _, _, real in log}) == 1
        assert cluster.supervision_stats()["handler_timeouts"] == 0
        assert seen == []
        assert cancelled == 2  # both watchdogs disarmed at handler exit
        assert thread.state == "blocked"


# ======================================================================
# buddy retry / breaker / fast-fail
# ======================================================================

class Buddy(DistObject):
    def __init__(self):
        super().__init__()
        self.served = []

    @handler_entry
    def on_tick(self, ctx, block):
        yield ctx.compute(1e-4)
        self.served.append(block.user_data)
        return Decision.RESUME


class BuddyWorker(DistObject):
    @entry
    def work(self, ctx, buddy_cap, handled):
        def fallback(hctx, block):
            handled[block.user_data] = handled.get(block.user_data, 0) + 1
            yield hctx.compute(1e-6)
            return Decision.RESUME

        yield ctx.attach_handler("EVT", fallback)
        yield ctx.attach_handler("EVT", "on_tick", buddy=buddy_cap)
        yield ctx.sleep(1e9)


def _buddy_rig(**cfg):
    cluster = _rig(n_nodes=3, reliable_delivery=True, max_retransmits=4,
                   **cfg)
    buddy = cluster.create_object(Buddy, node=1)
    worker = cluster.create_object(BuddyWorker, node=0)
    handled = {}
    thread = cluster.spawn(worker, "work", buddy, handled, at=0)
    cluster.run(until=0.1)
    return cluster, buddy, thread, handled


class TestBuddySupervision:
    def test_retries_then_falls_through_to_fallback(self):
        cluster, buddy, thread, handled = _buddy_rig(handler_retries=2)
        cluster.crash_node(1)
        cluster.raise_event("EVT", thread.tid, from_node=0, user_data=0)
        cluster.run(until=cluster.now + 3.0)
        assert handled == {0: 1}
        assert cluster.get_object(buddy).served == []
        assert cluster.supervision_stats()["handler_retries"] == 2

    def test_breaker_opens_skips_and_closes_after_recovery(self):
        cluster, buddy, thread, handled = _buddy_rig(
            breaker_threshold=2, breaker_reset=1.0)
        cluster.crash_node(1)
        t0 = cluster.now
        for pid in range(3):
            cluster.sim.call_at(t0 + 0.3 * (pid + 1), cluster.raise_event,
                                "EVT", thread.tid, 0, pid)
        cluster.run(until=t0 + 1.1)
        stats = cluster.supervision_stats()
        # Two give-ups opened the breaker; the third post was skipped
        # straight to the fallback without touching the network.
        assert stats["breaker_opens"] == 1
        assert stats["breaker_skips"] == 1
        assert handled == {0: 1, 1: 1, 2: 1}
        assert cluster.events.supervisor.breaker_state(
            buddy.oid, "EVT") == OPEN
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 1.5)  # past the reset window
        cluster.raise_event("EVT", thread.tid, from_node=0, user_data=3)
        cluster.run(until=cluster.now + 1.0)
        stats = cluster.supervision_stats()
        assert stats["breaker_half_opens"] == 1
        assert stats["breaker_closes"] == 1
        assert cluster.events.supervisor.breaker_state(
            buddy.oid, "EVT") == CLOSED
        assert cluster.get_object(buddy).served == [3]

    def test_suspected_buddy_node_fails_fast(self):
        cluster, buddy, thread, handled = _buddy_rig(swim_interval=0.02)
        cluster.crash_node(1)
        cluster.run(until=cluster.now + 0.5)  # suspicion forms
        start = cluster.now
        cluster.raise_event("EVT", thread.tid, from_node=0, user_data=0)
        cluster.run(until=start + 1.0)
        stats = cluster.supervision_stats()
        assert stats["fast_fails"] >= 1
        assert handled == {0: 1}

    def test_breaker_skip_then_detach_leaves_a_clean_chain(self):
        """Satellite: a breaker-skipped registration must still detach
        cleanly, leaving the chain to the fallback alone."""
        cluster, buddy, thread, handled = _buddy_rig(
            breaker_threshold=1, breaker_reset=60.0)
        cluster.crash_node(1)
        cluster.raise_event("EVT", thread.tid, from_node=0, user_data=0)
        cluster.run(until=cluster.now + 1.0)
        cluster.raise_event("EVT", thread.tid, from_node=0, user_data=1)
        cluster.run(until=cluster.now + 1.0)
        stats = cluster.supervision_stats()
        assert stats["breaker_opens"] == 1
        assert stats["breaker_skips"] == 1
        # Detach the (skipped) buddy registration — top of the LIFO chain.
        popped = thread.attributes.detach_top("EVT")
        assert popped is not None and popped.context is HandlerContext.BUDDY
        cluster.raise_event("EVT", thread.tid, from_node=0, user_data=2)
        cluster.run(until=cluster.now + 1.0)
        assert handled == {0: 1, 1: 1, 2: 1}
        # The buddy was never consulted again: no further skip counted.
        assert cluster.supervision_stats()["breaker_skips"] == 1


# ======================================================================
# failure detector (SWIM membership suspicion)
# ======================================================================

class TestFailureDetector:
    def test_crash_suspect_recover_trust(self):
        cluster = make_cluster(n_nodes=3, swim_interval=0.02)
        cluster.run(until=0.3)
        assert cluster.supervision_stats()["membership_suspicions"] == 0
        cluster.crash_node(1)
        cluster.run(until=0.8)
        assert cluster.kernels[0].membership.is_failed(1)
        assert cluster.kernels[2].membership.is_failed(1)
        stats = cluster.supervision_stats()
        assert stats["membership_suspicions"] >= 2
        assert (stats["membership_view_suspect"]
                + stats["membership_view_dead"]) >= 2
        cluster.recover_node(1)
        cluster.run(until=1.5)
        assert not cluster.kernels[0].membership.is_failed(1)
        assert not cluster.kernels[2].membership.is_failed(1)
        stats = cluster.supervision_stats()
        assert stats["membership_resurrections"] >= 2
        assert (stats["membership_view_suspect"]
                + stats["membership_view_dead"]) == 0

    def test_disabled_detector_sends_nothing(self):
        cluster = make_cluster(n_nodes=3)
        cluster.run(until=0.5)
        assert cluster.fabric.stats.count_prefix("swim.") == 0
        assert not any(key.startswith("membership_")
                       for key in cluster.supervision_stats())


# ======================================================================
# dead-letter quarantine
# ======================================================================

class PoisonApp(DistObject):
    @entry
    def work(self, ctx, healthy, handled):
        def flaky(hctx, block):
            yield hctx.compute(1e-5)
            if not healthy[0]:
                raise RuntimeError("poison pill")
            handled.append(block.user_data)
            return Decision.RESUME

        yield ctx.attach_handler("EVT", flaky)
        yield ctx.sleep(100.0)
        return "survived"


class TestDeadLetterQuarantine:
    def _poisoned(self, **cfg):
        cluster = _rig(n_nodes=2, poison_threshold=2, handler_backoff=1e-3,
                       **cfg)
        healthy, handled = [False], []
        app = cluster.create_object(PoisonApp, node=0)
        thread = cluster.spawn(app, "work", healthy, handled, at=0)
        cluster.run(until=0.1)
        return cluster, thread, healthy, handled

    def test_poison_thread_post_quarantines_after_threshold(self):
        cluster, thread, healthy, handled = self._poisoned()
        cluster.raise_event("EVT", thread.tid, from_node=1, user_data=42)
        cluster.run(until=1.0)
        dead = cluster.dead_letters()
        assert len(dead) == 1
        assert dead[0].reason == "poison"
        assert dead[0].failures == 2
        assert dead[0].block.user_data == 42
        assert "poison pill" in dead[0].error
        stats = cluster.supervision_stats()
        assert stats["quarantined"] == 1
        assert stats["chain_retries"] == 1
        assert stats["dead_letters_held"] == 1
        assert thread.state == "blocked"  # the thread itself moved on

    def test_sync_raiser_fails_with_quarantine_error(self):
        cluster, thread, healthy, handled = self._poisoned()
        future = cluster.raise_and_wait("EVT", thread.tid, from_node=1)
        cluster.run(until=1.0)
        assert future.done and future.failed
        with pytest.raises(EventQuarantinedError):
            future.result()
        assert cluster.events.settle.waits == {}

    def test_requeue_reposts_as_a_fresh_block(self):
        cluster, thread, healthy, handled = self._poisoned()
        cluster.raise_event("EVT", thread.tid, from_node=1, user_data=7)
        cluster.run(until=1.0)
        (dead,) = cluster.dead_letters(0)
        healthy[0] = True
        assert cluster.requeue_dead_letter(0, dead.dl_id)
        cluster.run(until=cluster.now + 1.0)
        assert handled == [7]
        assert cluster.dead_letters() == []
        stats = cluster.supervision_stats()
        assert stats["requeued"] == 1
        assert stats["dead_letters_requeued"] == 1
        assert stats["dead_letters_held"] == 0
        # Unknown ids are reported, not raised.
        assert not cluster.requeue_dead_letter(0, 999)

    def test_undeliverable_object_post_lands_in_raiser_dlq(self):
        """Satellite: a reliable object post that exhausts its budget is
        kept inspectable on the raiser's node, not dropped."""
        cluster = make_cluster(n_nodes=3, reliable_delivery=True,
                               max_retransmits=4)
        cluster.register_event("PING")
        from tests.conftest import Recorder
        cap = cluster.create_object(Recorder, node=2)
        cluster.crash_node(2)
        cluster.raise_event("PING", cap, from_node=0, user_data="lost")
        cluster.run(until=2.0)
        assert cluster.events.undeliverable == 1
        (dead,) = cluster.dead_letters(0)
        assert dead.reason == "undeliverable"
        assert dead.block.user_data == "lost"
        stats = cluster.supervision_stats()
        assert stats["dead_letter_undeliverable"] == 1
        # After recovery the dead letter is requeueable and finally lands.
        cluster.recover_node(2)
        cluster.run(until=cluster.now + 0.5)
        assert cluster.requeue_dead_letter(0, dead.dl_id)
        cluster.run(until=cluster.now + 2.0)
        recorder = cluster.get_object(cap)
        assert [e[:2] for e in recorder.events] == [("PING", "lost")]


class FlakyTarget(DistObject):
    def __init__(self, healthy, hits):
        super().__init__()
        self.healthy = healthy
        self.hits = hits

    @on_event("EVT")
    def on_evt(self, ctx, block):
        yield ctx.compute(1e-4)
        if not self.healthy[0]:
            raise RuntimeError("poison pill")
        self.hits.append(block.user_data)


class TestDurableDeadLetters:
    def test_quarantine_survives_crash_and_requeue_sticks(self):
        cluster = _rig(n_nodes=2, durable_delivery=True, poison_threshold=2,
                       handler_backoff=1e-3)
        healthy, hits = [False], []
        cap = cluster.create_object(FlakyTarget, healthy, hits, node=1)
        cluster.raise_event("EVT", cap, from_node=0, user_data=7)
        cluster.run(until=1.0)
        (dead,) = cluster.dead_letters(1)
        assert dead.reason == "poison"
        # The origin's outbox resolved the post as quarantined — nothing
        # pending, nothing counted as delivered.
        outbox = cluster.kernels[0].store.outbox.stats()
        assert outbox["quarantined"] == 1
        assert outbox["pending"] == 0
        # The quarantine is journaled: it survives a crash of its node.
        cluster.crash_node(1)
        cluster.run(until=cluster.now + 0.2)
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 1.0)
        (replayed,) = cluster.dead_letters(1)
        assert replayed.dl_id == dead.dl_id
        assert replayed.reason == "poison"
        assert hits == []  # recovery did not re-run the poison post
        # Requeue executes exactly once, and the removal is journaled
        # too: another crash/recovery does not resurrect the entry.
        healthy[0] = True
        assert cluster.requeue_dead_letter(1, dead.dl_id)
        cluster.run(until=cluster.now + 1.0)
        assert hits == [7]
        assert cluster.dead_letters(1) == []
        cluster.crash_node(1)
        cluster.run(until=cluster.now + 0.2)
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 1.0)
        assert cluster.dead_letters(1) == []
        assert hits == [7]


# ======================================================================
# satellites: handler_failures stat, sync-raise timeout regression
# ======================================================================

class TestHandlerFailureStat:
    def test_raising_handler_counts_and_traces(self):
        cluster = _rig(n_nodes=2)

        class App(DistObject):
            @entry
            def work(self, ctx):
                def bad(hctx, block):
                    yield hctx.compute(0)
                    raise RuntimeError("boom")

                yield ctx.attach_handler("EVT", bad)
                yield ctx.sleep(100.0)

        app = cluster.create_object(App, node=0)
        thread = cluster.spawn(app, "work", at=0)
        cluster.run(until=0.1)
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=1.0)
        assert cluster.events.handler_failures == 1
        assert any(r.category == "event" and r.name == "handler-error"
                   for r in cluster.tracer.records)
        assert thread.state == "blocked"  # fell through to default RESUME


class TestSyncRaiseTimeout:
    def test_late_resume_after_timeout_is_dropped(self):
        """Satellite regression: a resume arriving after the
        sync_raise_timeout already failed the raiser must neither
        double-resume nor leak the wait token."""
        cluster = _rig(n_nodes=2, sync_raise_timeout=0.05)

        class App(DistObject):
            @entry
            def work(self, ctx):
                def slow(hctx, block):
                    yield hctx.sleep(0.2)  # well past the timeout
                    return Decision.RESUME, "late-value"

                yield ctx.attach_handler("EVT", slow)
                yield ctx.sleep(100.0)

        app = cluster.create_object(App, node=0)
        thread = cluster.spawn(app, "work", at=0)
        cluster.run(until=0.01)
        start = cluster.now
        future = cluster.raise_and_wait("EVT", thread.tid, from_node=1)
        cluster.run(until=start + 0.1)
        # The timeout fired first: the raiser is failed and the token
        # is gone.
        assert future.done and future.failed
        assert cluster.events.settle.waits == {}
        # The handler finishes later; its resume must be a no-op.
        cluster.run(until=start + 1.0)
        assert future.failed
        with pytest.raises(RpcTimeout):
            future.result()
        assert cluster.events.settle.waits == {}
        assert thread.state == "blocked"  # target thread resumed normally


# ======================================================================
# handler-chain edge cases (satellite)
# ======================================================================

def _reg(event="EVT", procedure="p"):
    return HandlerRegistration(event=event, context=HandlerContext.CURRENT,
                               procedure=procedure)


class TestHandlerChainEdges:
    def test_pop_empty_chain_raises(self):
        chain = HandlerChain("EVT")
        with pytest.raises(EventError):
            chain.pop()

    def test_push_wrong_event_raises(self):
        chain = HandlerChain("EVT")
        with pytest.raises(EventError):
            chain.push(_reg(event="OTHER"))

    def test_remove_absent_returns_false(self):
        chain = HandlerChain("EVT")
        chain.push(_reg())
        assert not chain.remove(999_999)
        assert len(chain) == 1

    def test_remove_middle_preserves_lifo_order(self):
        chain = HandlerChain("EVT")
        regs = [_reg(procedure=f"p{i}") for i in range(3)]
        for reg in regs:
            chain.push(reg)
        assert chain.remove(regs[1].reg_id)
        assert [r.procedure for r in chain.in_order()] == ["p2", "p0"]
        assert chain.top() is regs[2]
        assert chain.pop() is regs[2]
        assert chain.pop() is regs[0]


# ======================================================================
# chaos: the exactly-once-or-quarantined guarantee
# ======================================================================

class TestChaosWithHandlerFaults:
    """The PR's contract: with the supervision knobs on, every chaos
    post is executed exactly once, §7.2-noticed, or quarantined — never
    lost or hung — even with hang / raise / poison faults injected."""

    BASE = ChaosSpec(seed=13, posts=60, drop_rate=0.1, duplicate_rate=0.05,
                     crash_period=0.6, down_time=0.4, settle=10.0)
    FAULTS = {"hang": 0.06, "raise": 0.06, "poison": 0.05}
    KNOBS = dict(handler_deadline=0.05, handler_retries=2,
                 breaker_threshold=3, poison_threshold=3,
                 swim_interval=0.02)

    def test_supervised_chaos_accounts_every_post(self):
        spec = replace(self.BASE, handler_faults=self.FAULTS,
                       config=self.KNOBS)
        report = run_chaos(spec)
        assert sum(report.handler_fault_counts.values()) > 0
        assert report.violations == []
        assert report.accounted_rate == 1.0
        # every surrogate left is parked with a live owner on its node
        assert report.hung_handlers == 0

    def test_supervised_durable_chaos_exactly_once_or_quarantined(self):
        spec = replace(self.BASE, posts=40, durable=True,
                       handler_faults=self.FAULTS, config=self.KNOBS)
        report = run_chaos(spec)
        assert report.violations == []
        assert report.hung_handlers == 0
        for pid in range(spec.posts):
            ran = report.executions.get(pid, 0)
            assert ran == 1 or (ran == 0 and pid in report.quarantined)
        assert report.durability["pending"] == 0

    def test_same_seed_determinism_with_supervision(self):
        spec = replace(self.BASE, posts=40, handler_faults=self.FAULTS,
                       config=self.KNOBS)
        assert run_chaos(spec).digest == run_chaos(spec).digest

    def test_a_hang_with_no_deadline_is_still_reported(self):
        """Parked surrogates are not hangs; one stuck in a frame is,
        and the violation says whose handler for which event."""
        report = run_chaos(replace(self.BASE, crash_period=None,
                                   handler_faults={"hang": 0.1}))
        assert report.handler_fault_counts["hang"] == report.hung_handlers > 0
        [wedged] = [v for v in report.violations if "wedged" in v]
        assert wedged.startswith(f"{report.hung_handlers} handler execution")
        assert wedged.count("surrogate T") == report.hung_handlers
        assert wedged.count(" in handler:CHAOS") == report.hung_handlers

    @pytest.mark.parametrize("mode", ["master", "per-event"])
    def test_a_wedged_object_handler_is_reported_by_the_one_rule(self,
                                                                 mode):
        """A loop thread with a frame is a run in progress, whichever
        kind it is: a master or a per-event thread wedged in an object
        handler with no deadline is reported, one whose run ended (a
        parked master, a finished per-event thread) is not."""
        cluster = _rig(n_nodes=2, object_event_mode=mode)
        cap = cluster.create_object(Slow, [], node=1)
        cluster.raise_event("EVT", cap, from_node=0, user_data=0.01)
        cluster.run(until=1.0)
        assert hung_handlers(cluster) == []
        cluster.raise_event("EVT", cap, from_node=0, user_data=1e9)
        cluster.run(until=2.0)
        assert hung_handlers(cluster) == [
            "object handler mid-serve on node 1"]

    def test_a_leaked_surrogate_is_reported_as_an_orphan(self):
        cluster = _rig(n_nodes=2)
        log, seen = [], []
        app = cluster.create_object(TimedChainApp, node=0)
        thread = cluster.spawn(app, "work", [(1e-3, None)], log, seen, at=0)
        cluster.run(until=0.1)
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=0.2)
        parked = thread.chain_surrogate
        assert parked.wait_kind == "parked" and hung_handlers(cluster) == []
        # leaked: the owner forgets it ...
        thread.chain_surrogate = None
        leak = f"surrogate {parked.tid} of {thread.tid} orphaned"
        assert hung_handlers(cluster) == [leak]
        # ... or a second one sits where the owner is not
        thread.chain_surrogate = parked
        stray = cluster.invoker.create_loop_thread(
            1, "handler:EVT", "surrogate", impersonate=thread.tid)
        assert hung_handlers(cluster) == [
            f"surrogate {stray.tid} of {thread.tid} orphaned"]
        # ... or it outlives its owner
        cluster.invoker.destroy_thread_abrupt(stray, RuntimeError("test"))
        thread.chain_surrogate = None
        cluster.invoker.terminate_thread(thread, reason="test")
        cluster.run(until=0.3)
        assert not thread.alive and hung_handlers(cluster) == [leak]


class TestKnobsOffUnchanged:
    """All supervision defaults off: bit-identical same-seed semantics,
    zero supervision activity, zero extra traffic."""

    def test_knobs_off_digest_is_stable(self):
        spec = ChaosSpec(seed=5, posts=40)
        first = run_chaos(spec)
        again = run_chaos(spec)
        assert first.digest == again.digest
        # An empty fault map is the same run as no fault map at all (the
        # seeded fault stream is only drawn when faults are requested).
        assert run_chaos(replace(spec, handler_faults={})).digest \
            == first.digest

    def test_knobs_off_durable_digest_is_stable(self):
        spec = ChaosSpec(seed=9, posts=40, durable=True)
        first = run_chaos(spec)
        assert first.digest == run_chaos(spec).digest
        assert run_chaos(replace(spec, handler_faults={})).digest \
            == first.digest

    def test_knobs_off_runs_show_zero_supervision_activity(self):
        report = run_chaos(ChaosSpec(seed=5, posts=40))
        sup = report.supervision
        for counter in ("handler_timeouts", "handler_retries",
                        "breaker_opens", "breaker_skips", "fast_fails",
                        "chain_retries", "quarantined", "requeued",
                        "dead_letters_quarantined"):
            assert sup[counter] == 0, (counter, sup)
        # the detector is off: it reports nothing at all
        assert not any(key.startswith("membership_") for key in sup)
        assert report.quarantined == set()
