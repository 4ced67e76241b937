"""Tests for thread-based handler mechanics: the three execution contexts
(§4.1), LIFO chaining and propagation (§4.2), decisions, detachment."""

import pytest

from repro import (
    Decision,
    DistObject,
    HandlerContext,
    entry,
    handler_entry,
    on_event,
)
from repro.errors import ThreadTerminated
from repro.events.handlers import HandlerRegistration
from tests.conftest import make_cluster


class Logger:
    """Shared log keyed into per-test closures."""

    def __init__(self):
        self.entries = []

    def add(self, *item):
        self.entries.append(item)


class HandlerHost(DistObject):
    """An object whose methods serve as attaching-context handlers."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    @entry
    def arm_and_hold(self, ctx, fn_name, hold=100.0):
        yield ctx.attach_handler("EVT", fn_name)
        yield ctx.sleep(hold)
        return "done"

    @handler_entry
    def resume_handler(self, ctx, block):
        self.log.add("resume_handler", ctx.node, block.event)
        yield ctx.compute(1e-5)
        return Decision.RESUME

    @handler_entry
    def terminate_handler(self, ctx, block):
        self.log.add("terminate_handler", ctx.node)
        yield ctx.compute(1e-5)
        return Decision.TERMINATE

    @handler_entry
    def propagate_handler(self, ctx, block):
        self.log.add("propagate_handler", ctx.node)
        yield ctx.compute(1e-5)
        return Decision.PROPAGATE

    @handler_entry
    def crashing_handler(self, ctx, block):
        yield ctx.compute(0)
        raise RuntimeError("handler crash")


class Mover(DistObject):
    """Attaches a handler here, then migrates elsewhere and holds."""

    @entry
    def attach_then_go(self, ctx, fn_host, fn_name, far_cap):
        yield ctx.attach_handler("EVT", fn_name)
        result = yield ctx.invoke(far_cap, "hold_there")
        return result

    @entry
    def hold_there(self, ctx):
        yield ctx.sleep(100.0)
        return "held"


def _rig(n_nodes=4, **cfg):
    cluster = make_cluster(n_nodes=n_nodes, **cfg)
    cluster.register_event("EVT")
    return cluster


class TestAttachingContext:
    def test_handler_runs_in_attaching_object(self):
        cluster = _rig()
        log = Logger()
        host = cluster.create_object(HandlerHost, log, node=2)
        thread = cluster.spawn(host, "arm_and_hold", "resume_handler", at=0)
        cluster.run(until=0.05)
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=0.2)
        assert log.entries == [("resume_handler", 2, "EVT")]
        assert thread.state == "blocked"  # resumed back to its sleep

    def test_handler_remains_active_after_migration(self):
        """The §4.1 guarantee: once attached, the handler serves the
        thread 'regardless of when and where the thread is located'."""
        cluster = _rig()
        log = Logger()
        cluster.create_object(HandlerHost, log, node=1)
        far = cluster.create_object(Mover, node=3)

        class Starter(DistObject):
            @entry
            def go(self, ctx, host_cap, far_cap):
                yield ctx.invoke(host_cap, "arm_in_place")
                result = yield ctx.invoke(far_cap, "hold_there")
                return result

        class ArmingHost(HandlerHost):
            @entry
            def arm_in_place(self, ctx):
                yield ctx.attach_handler("EVT", "resume_handler")

        host2 = cluster.create_object(ArmingHost, log, node=1)
        starter = cluster.create_object(Starter, node=0)
        thread = cluster.spawn(starter, "go", host2, far, at=0)
        cluster.run(until=0.1)
        assert thread.current_node == 3
        cluster.raise_event("EVT", thread.tid, from_node=0)
        cluster.run(until=0.3)
        # handler executed back in the attaching object's node (1), an
        # unscheduled invocation away from the thread's location (3)
        assert log.entries == [("resume_handler", 1, "EVT")]

    def test_terminate_decision_kills_thread(self):
        cluster = _rig()
        log = Logger()
        host = cluster.create_object(HandlerHost, log, node=1)
        thread = cluster.spawn(host, "arm_and_hold", "terminate_handler",
                               at=0)
        cluster.run(until=0.05)
        cluster.raise_event("EVT", thread.tid, from_node=2)
        cluster.run()
        assert thread.state == "terminated"

    def test_crashing_handler_propagates_to_default(self):
        cluster = _rig()
        log = Logger()
        host = cluster.create_object(HandlerHost, log, node=1)
        thread = cluster.spawn(host, "arm_and_hold", "crashing_handler",
                               at=0)
        cluster.run(until=0.05)
        cluster.raise_event("EVT", thread.tid, from_node=2)
        cluster.run(until=0.3)
        # default for an unhandled user event: RESUME; thread survives
        assert thread.state == "blocked"


class TestBuddyContext:
    def test_buddy_handler_runs_in_third_object(self):
        cluster = _rig()
        log = Logger()
        buddy = cluster.create_object(HandlerHost, log, node=3)

        class App(DistObject):
            @entry
            def go(self, ctx, buddy_cap):
                yield ctx.attach_handler("EVT", "resume_handler",
                                         buddy=buddy_cap)
                yield ctx.sleep(100.0)

        app = cluster.create_object(App, node=1)
        thread = cluster.spawn(app, "go", buddy, at=0)
        cluster.run(until=0.05)
        cluster.raise_event("EVT", thread.tid, from_node=0)
        cluster.run(until=0.3)
        assert log.entries == [("resume_handler", 3, "EVT")]


class TestCurrentContext:
    def test_per_thread_procedure_runs_at_current_node(self):
        cluster = _rig()
        seen = []

        class App(DistObject):
            @entry
            def go(self, ctx, far_cap):
                def probe(hctx, block):
                    seen.append((hctx.node, hctx.current_object.oid
                                 if hctx.current_object else None))
                    yield hctx.compute(0)

                yield ctx.attach_handler("EVT", probe)
                result = yield ctx.invoke(far_cap, "hold_there")
                return result

        far = cluster.create_object(Mover, node=3)
        app = cluster.create_object(App, node=1)
        thread = cluster.spawn(app, "go", far, at=0)
        cluster.run(until=0.1)
        cluster.raise_event("EVT", thread.tid, from_node=0)
        cluster.run(until=0.3)
        # procedure traveled with the thread: executed at node 3, with
        # access to the current object there (the Mover instance)
        assert seen == [(3, far.oid)]

    def test_procedure_can_examine_and_modify_thread_state(self):
        cluster = _rig()

        class App(DistObject):
            @entry
            def go(self, ctx):
                ctx.attributes.per_thread_memory["counter"] = 0

                def bump(hctx, block):
                    hctx.attributes.per_thread_memory["counter"] += 1
                    yield hctx.compute(0)

                yield ctx.attach_handler("EVT", bump)
                yield ctx.sleep(0.3)
                return ctx.attributes.per_thread_memory["counter"]

        app = cluster.create_object(App, node=0)
        thread = cluster.spawn(app, "go", at=0)
        cluster.run(until=0.05)
        for _ in range(3):
            cluster.raise_event("EVT", thread.tid, from_node=1)
            cluster.run(until=cluster.now + 0.05)
        cluster.run()
        assert thread.completion.result() == 3

    def test_missing_procedure_falls_through_chain(self):
        cluster = _rig()

        class App(DistObject):
            @entry
            def go(self, ctx):
                reg = HandlerRegistration(event="EVT",
                                          context=HandlerContext.CURRENT,
                                          procedure="never-installed")
                ctx.attributes.attach(reg)
                yield ctx.sleep(0.2)
                return "survived"

        app = cluster.create_object(App, node=0)
        thread = cluster.spawn(app, "go", at=0)
        cluster.run(until=0.05)
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run()
        assert thread.completion.result() == "survived"


class TestChaining:
    def test_lifo_execution_order(self):
        cluster = _rig()
        order = []

        class App(DistObject):
            @entry
            def go(self, ctx):
                def make(tag, decision):
                    def handler(hctx, block):
                        order.append(tag)
                        yield hctx.compute(0)
                        return decision
                    handler.__name__ = tag
                    return handler

                yield ctx.attach_handler("EVT", make("first", Decision.RESUME))
                yield ctx.attach_handler("EVT", make("second", Decision.PROPAGATE))
                yield ctx.attach_handler("EVT", make("third", Decision.PROPAGATE))
                yield ctx.sleep(0.3)
                return order

        app = cluster.create_object(App, node=0)
        thread = cluster.spawn(app, "go", at=0)
        cluster.run(until=0.05)
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run()
        assert thread.completion.result() == ["third", "second", "first"]

    def test_resume_stops_propagation(self):
        cluster = _rig()
        order = []

        class App(DistObject):
            @entry
            def go(self, ctx):
                def deep(hctx, block):
                    order.append("deep")
                    yield hctx.compute(0)

                def shallow(hctx, block):
                    order.append("shallow")
                    yield hctx.compute(0)
                    return Decision.RESUME

                yield ctx.attach_handler("EVT", deep)
                yield ctx.attach_handler("EVT", shallow)
                yield ctx.sleep(0.3)
                return order

        app = cluster.create_object(App, node=0)
        thread = cluster.spawn(app, "go", at=0)
        cluster.run(until=0.05)
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run()
        assert thread.completion.result() == ["shallow"]

    def test_event_transformation_up_the_chain(self):
        """§4.2: O3 notifies O2's handler, which transforms and notifies
        O1's handler — modelled by a handler raising a derived event."""
        cluster = _rig()
        cluster.register_event("LOW_LEVEL")
        cluster.register_event("HIGH_LEVEL")
        seen = []

        class App(DistObject):
            @entry
            def go(self, ctx):
                def outer(hctx, block):
                    seen.append(("outer", block.event, block.user_data))
                    yield hctx.compute(0)

                def inner(hctx, block):
                    seen.append(("inner", block.event))
                    # transform: re-raise in a form the outer level knows
                    yield hctx.raise_event("HIGH_LEVEL", hctx.tid,
                                           user_data="translated")
                    return Decision.RESUME

                yield ctx.attach_handler("HIGH_LEVEL", outer)
                yield ctx.attach_handler("LOW_LEVEL", inner)
                yield ctx.sleep(0.5)
                return seen

        app = cluster.create_object(App, node=0)
        thread = cluster.spawn(app, "go", at=0)
        cluster.run(until=0.05)
        cluster.raise_event("LOW_LEVEL", thread.tid, from_node=1)
        cluster.run()
        assert ("inner", "LOW_LEVEL") in seen
        assert ("outer", "HIGH_LEVEL", "translated") in seen

    def test_detach_top_restores_previous_handler(self):
        cluster = _rig()
        order = []

        class App(DistObject):
            @entry
            def go(self, ctx):
                def old(hctx, block):
                    order.append("old")
                    yield hctx.compute(0)

                def new(hctx, block):
                    order.append("new")
                    yield hctx.compute(0)

                yield ctx.attach_handler("EVT", old)
                reg_id = yield ctx.attach_handler("EVT", new)
                yield ctx.detach_handler("EVT", reg_id)
                yield ctx.sleep(0.3)
                return order

        app = cluster.create_object(App, node=0)
        thread = cluster.spawn(app, "go", at=0)
        cluster.run(until=0.05)
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run()
        assert thread.completion.result() == ["old"]

    def test_spawned_thread_inherits_chain(self):
        """§6.3: spawned threads inherit the event registry and handlers."""
        cluster = _rig()
        hits = []

        class App(DistObject):
            @entry
            def parent(self, ctx, cap):
                def h(hctx, block):
                    hits.append(str(hctx.tid))
                    yield hctx.compute(0)

                yield ctx.attach_handler("EVT", h)
                handle = yield ctx.invoke_async(cap, "child")
                yield ctx.sleep(0.5)
                return handle.tid

            @entry
            def child(self, ctx):
                yield ctx.sleep(0.5)

        app = cluster.create_object(App, node=0)
        thread = cluster.spawn(app, "parent", app, at=0)
        cluster.run(until=0.05)
        child_tid = [t for t in cluster.live_threads
                     if t != thread.tid and
                     cluster.live_threads[t].kind == "user"]
        assert len(child_tid) == 1
        cluster.raise_event("EVT", child_tid[0], from_node=1)
        cluster.run()
        assert hits == [str(child_tid[0])]


class TestSyncResumeFromHandler:
    def test_explicit_resume_raiser_before_long_work(self):
        cluster = _rig()

        class App(DistObject):
            @entry
            def victim(self, ctx):
                def h(hctx, block):
                    yield hctx.resume_raiser(block, "early-value")
                    yield hctx.sleep(5.0)  # long tail work

                yield ctx.attach_handler("EVT", h)
                yield ctx.sleep(100.0)

        app = cluster.create_object(App, node=1)
        victim = cluster.spawn(app, "victim", at=1)
        cluster.run(until=0.05)
        start = cluster.now
        future = cluster.raise_and_wait("EVT", victim.tid, from_node=0)
        cluster.run()
        assert future.result() == "early-value"
        # the raiser was resumed long before the handler's 5s tail
        assert cluster.now >= start + 5.0  # tail ran to completion


class TestChainSurrogateTrace:
    """The thread-based path's trace contract: one ``thread/create``
    (``kind=surrogate entry=handler:<event>``, the first event handled)
    and one ``thread/exit`` per thread per node residency, whichever
    path (notice or exception) walks its chains."""

    def _surrogate_lifecycle(self, cluster):
        created = cluster.tracer.select("thread", "create", kind="surrogate")
        tids = [r.get("tid") for r in created]
        exits = [r.get("tid") for r in cluster.tracer.select("thread", "exit")
                 if r.get("tid") in tids]
        return created, exits

    def test_mixed_context_chain_creates_and_exits_once(self):
        cluster = _rig()
        log = Logger()
        buddy = cluster.create_object(HandlerHost, log, node=3)

        class App(HandlerHost):
            @entry
            def work(self, ctx, buddy_cap):
                def current(hctx, block):
                    log.add("current", hctx.node, str(hctx.real_tid))
                    yield hctx.compute(1e-5)
                    return Decision.RESUME

                yield ctx.attach_handler("EVT", current)
                yield ctx.attach_handler("EVT", "propagate_handler")
                yield ctx.attach_handler("EVT", "propagate_handler",
                                         buddy=buddy_cap)
                yield ctx.sleep(100.0)

        app = cluster.create_object(App, log, node=1)
        thread = cluster.spawn(app, "work", buddy, at=1)
        cluster.run(until=0.05)
        cluster.raise_event("EVT", thread.tid, from_node=0)
        cluster.run(until=0.5)
        created, exits = self._surrogate_lifecycle(cluster)
        assert [e[:2] for e in log.entries] == [
            ("propagate_handler", 3), ("propagate_handler", 1),
            ("current", 1)]
        assert [(r.get("entry"), r.get("node")) for r in created] \
            == [("handler:EVT", 1)]
        assert exits == [] and created[0].get("tid") == log.entries[2][2]
        # a second chain adds no record; the owner's end adds the exit
        cluster.raise_event("EVT", thread.tid, from_node=0)
        cluster.run(until=1.0)
        assert len(log.entries) == 6
        assert self._surrogate_lifecycle(cluster) == (created, [])
        cluster.invoker.terminate_thread(thread, reason="test")
        cluster.run(until=1.5)
        assert self._surrogate_lifecycle(cluster) \
            == (created, [created[0].get("tid")])

    def test_exception_chain_shares_and_retires_its_surrogate(self):
        cluster = make_cluster(n_nodes=2)
        ran = []

        class App(DistObject):
            @entry
            def guarded(self, ctx):
                def passes(hctx, block):
                    ran.append(("passes", hctx.real_tid))
                    yield hctx.compute(0)
                    return Decision.PROPAGATE

                def repairs(hctx, block):
                    ran.append(("repairs", hctx.real_tid))
                    yield hctx.compute(0)
                    return (Decision.RESUME, "repaired")

                yield ctx.attach_handler("DIV_ZERO", repairs)
                yield ctx.attach_handler("DIV_ZERO", passes)
                return 1 / 0

        app = cluster.create_object(App, node=0)
        thread = cluster.spawn(app, "guarded", at=0)
        cluster.run()
        assert thread.completion.result() == "repaired"
        assert [name for name, _ in ran] == ["passes", "repairs"]
        assert ran[0][1] == ran[1][1] != thread.tid
        created, exits = self._surrogate_lifecycle(cluster)
        assert len(created) == 1 and exits == [str(ran[0][1])]
        assert cluster.live_threads == {}


class Faulty(DistObject):
    """§6.1: the object's DIV_ZERO handler is offered a faulting frame's
    exception first; ``verdict`` is what it returns."""

    def __init__(self, verdict, log):
        super().__init__()
        self.verdict = verdict
        self.log = log

    @on_event("DIV_ZERO")
    def on_div_zero(self, ctx, block):
        self.log.append(("object-handler", str(ctx.real_tid)))
        yield ctx.compute(1e-5)
        if isinstance(self.verdict, BaseException):
            raise self.verdict
        return self.verdict

    @on_event("PING")
    def on_ping(self, ctx, block):
        self.log.append(("ping", str(ctx.real_tid)))
        yield ctx.compute(1e-5)

    @entry
    def guarded(self, ctx):
        def chained(hctx, block):
            self.log.append(("chain-handler", str(hctx.real_tid)))
            yield hctx.compute(0)
            return (Decision.RESUME, "chain repaired")

        yield ctx.attach_handler("DIV_ZERO", chained)
        yield ctx.compute(1e-5)
        return 1 / 0


class TestFrameExceptionObjectHandler:
    """The §6.1 object handler runs on the node's master handler thread
    and reports its exit once, inside its last step; the decision is
    applied to the faulted thread from there."""

    VERDICTS = {
        "resume": (Decision.RESUME, "object repaired"),
        "propagate": Decision.PROPAGATE,
        "terminate": Decision.TERMINATE,
        "raises": RuntimeError("handler bug"),  # folded into PROPAGATE
    }

    @pytest.mark.parametrize("verdict", sorted(VERDICTS))
    def test_one_exit_then_the_decision(self, verdict, handler_exits):
        cluster = make_cluster(n_nodes=1)
        cluster.register_event("PING")
        log = []
        cap = cluster.create_object(Faulty, self.VERDICTS[verdict], log,
                                    node=0)
        thread = cluster.spawn(cap, "guarded", at=0)
        cluster.raise_event("PING", cap, from_node=0)  # served first
        cluster.run(until=1.0)
        # ping + the exception's object handler: one exit each, in order
        assert [(block.event, len(exits)) for block, exits in handler_exits] \
            == [("PING", 1), ("DIV_ZERO", 1)]
        steps = [step for step, _ in log]
        if verdict == "resume":
            assert steps == ["ping", "object-handler"]
            assert thread.completion.result() == "object repaired"
        elif verdict == "terminate":
            assert steps == ["ping", "object-handler"]
            assert thread.state == "terminated"
            with pytest.raises(ThreadTerminated):
                thread.completion.result()
        else:
            assert steps == ["ping", "object-handler", "chain-handler"]
            assert thread.completion.result() == "chain repaired"
        # one master served both and is parked for the next post
        objects = cluster.kernels[0].objects
        assert objects.handler_threads_created == 1
        assert log[0][1] == log[1][1] == str(objects._master.tid)
        assert objects._master.wait_kind == "parked"
        assert not objects._master.frames
        assert cluster.events.handler_failures == (verdict == "raises")
        cluster.raise_event("PING", cap, from_node=0)
        cluster.run(until=2.0)
        assert [step for step, _ in log][-1] == "ping"
        assert cluster.quiescent()
