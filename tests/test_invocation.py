"""Integration tests for the invocation engine: local/remote calls,
thread migration, TCB chains, spawning, exceptions, aborts."""

import pytest

from repro import DistObject, entry
from repro.errors import (
    InvocationAborted,
    NoSuchEntryError,
    ProcessError,
    ThreadTerminated,
    UnknownObjectError,
)
from repro.objects.capability import Capability
from tests.conftest import Echo, Relay, Sleeper, make_cluster, run_to_result


class TestLocalAndRemoteInvocation:
    def test_local_invocation_no_messages(self, cluster):
        cap = cluster.create_object(Echo, node=0)
        thread = cluster.spawn(cap, "echo", 42, at=0)
        assert run_to_result(cluster, thread) == 42
        assert cluster.fabric.stats.count("invoke.request") == 0

    def test_remote_invocation_migrates(self, cluster):
        cap = cluster.create_object(Echo, node=3)
        thread = cluster.spawn(cap, "where", at=0)
        assert run_to_result(cluster, thread) == 3
        assert cluster.fabric.stats.count("invoke.request") == 1
        assert cluster.fabric.stats.count("thread.complete") == 1

    def test_nested_remote_calls_return_correctly(self, cluster):
        echo = cluster.create_object(Echo, node=3)
        relay = cluster.create_object(Relay, node=1)
        thread = cluster.spawn(relay, "call", echo, "echo", "deep", at=0)
        assert run_to_result(cluster, thread) == "deep"
        # 0->1 and 1->3 requests, 3->1 reply, completion back to 0
        assert cluster.fabric.stats.count("invoke.request") == 2
        assert cluster.fabric.stats.count("invoke.reply") == 1

    def test_call_chain_across_all_nodes(self):
        cluster = make_cluster(n_nodes=6)
        relays = [cluster.create_object(Relay, node=i) for i in range(1, 6)]
        echo = cluster.create_object(Echo, node=0)
        thread = cluster.spawn(relays[0], "chain", relays[1:],
                               echo, "echo", "x", at=0)
        assert run_to_result(cluster, thread) == "x"

    def test_invocation_latency_charged(self):
        cluster = make_cluster(n_nodes=2, link_latency=0.1,
                               thread_create_cost=0.0)
        cap = cluster.create_object(Echo, node=1)
        cluster.spawn(cap, "echo", 1, at=0)
        cluster.run()
        # migrate (0.1) + compute (1e-5) + completion message (0.1)
        assert cluster.now == pytest.approx(0.2, abs=1e-3)

    def test_unknown_entry_propagates(self, cluster):
        cap = cluster.create_object(Echo, node=1)
        thread = cluster.spawn(cap, "no_such_entry", at=0)
        cluster.run()
        with pytest.raises(NoSuchEntryError):
            thread.completion.result()

    def test_unknown_object_propagates(self, cluster):
        ghost = Capability(oid=99999, home=1, transport="rpc")
        relay = cluster.create_object(Relay, node=0)
        thread = cluster.spawn(relay, "call", ghost, "echo", 1, at=0)
        cluster.run()
        with pytest.raises(UnknownObjectError):
            thread.completion.result()

    def test_wrong_arity_propagates(self, cluster):
        cap = cluster.create_object(Echo, node=1)
        thread = cluster.spawn(cap, "echo", 1, 2, 3, at=0)
        cluster.run()
        with pytest.raises(TypeError):
            thread.completion.result()


class TestTcbChains:
    def test_forwarding_chain_matches_migration(self):
        cluster = make_cluster(n_nodes=4)
        relays = [cluster.create_object(Relay, node=i) for i in (1, 2)]
        sleeper = cluster.create_object(Sleeper, node=3)
        thread = cluster.spawn(relays[0], "chain", relays[1:],
                               sleeper, "hold", 100.0, at=0)
        cluster.run(until=1.0)
        tid = thread.tid
        assert cluster.kernels[0].thread_table.get(tid).next_node == 1
        assert cluster.kernels[1].thread_table.get(tid).next_node == 2
        assert cluster.kernels[2].thread_table.get(tid).next_node == 3
        assert cluster.kernels[3].thread_table.innermost_here(tid)
        assert thread.current_node == 3

    def test_tcbs_cleaned_after_completion(self, cluster):
        echo = cluster.create_object(Echo, node=2)
        thread = cluster.spawn(echo, "echo", 1, at=0)
        cluster.run()
        for kernel in cluster.kernels.values():
            assert thread.tid not in kernel.thread_table
        assert thread.tid not in cluster.live_threads

    def test_return_resets_innermost(self, cluster):
        relay = cluster.create_object(Relay, node=1)
        echo = cluster.create_object(Echo, node=2)

        class Prober(DistObject):
            @entry
            def probe(self, ctx, relay_cap, echo_cap):
                yield ctx.invoke(relay_cap, "call", echo_cap, "echo", 1)
                yield ctx.sleep(50.0)
                return "end"

        prober = cluster.create_object(Prober, node=0)
        thread = cluster.spawn(prober, "probe", relay, echo, at=0)
        cluster.run(until=10.0)
        assert cluster.kernels[0].thread_table.innermost_here(thread.tid)
        assert thread.tid not in cluster.kernels[1].thread_table
        assert thread.tid not in cluster.kernels[2].thread_table


class TestAsyncInvocation:
    def test_claimable_result(self, cluster):
        echo = cluster.create_object(Echo, node=2)

        class Parent(DistObject):
            @entry
            def fan(self, ctx, cap):
                handle = yield ctx.invoke_async(cap, "echo", "child-result")
                value = yield ctx.wait(handle.result)
                return (str(handle.tid), value)

        parent = cluster.create_object(Parent, node=0)
        thread = cluster.spawn(parent, "fan", echo, at=0)
        tid_str, value = run_to_result(cluster, thread)
        assert value == "child-result"
        assert tid_str.startswith("T0.")  # rooted where spawned

    def test_nonclaimable_returns_no_future(self, cluster):
        echo = cluster.create_object(Echo, node=1)

        class Parent(DistObject):
            @entry
            def fire(self, ctx, cap):
                handle = yield ctx.invoke_async(cap, "echo", 1,
                                                claimable=False)
                return handle.result

        parent = cluster.create_object(Parent, node=0)
        thread = cluster.spawn(parent, "fire", echo, at=0)
        assert run_to_result(cluster, thread) is None

    def test_child_inherits_group(self, cluster):
        cluster.create_object(Echo, node=1)
        sleeper = cluster.create_object(Sleeper, node=1)

        class Parent(DistObject):
            @entry
            def fan(self, ctx, cap):
                yield ctx.invoke_async(cap, "hold", 100.0)
                yield ctx.invoke_async(cap, "hold", 100.0)
                yield ctx.sleep(100.0)

        gid = cluster.new_group()
        parent = cluster.create_object(Parent, node=0)
        cluster.spawn(parent, "fan", sleeper, at=0, group=gid)
        cluster.run(until=1.0)
        assert len(cluster.groups.members(gid)) == 3

    def test_spawn_charges_creation_cost(self):
        cluster = make_cluster(n_nodes=1, thread_create_cost=0.5,
                               link_latency=0.0)
        echo = cluster.create_object(Echo, node=0)
        cluster.spawn(echo, "echo", 1, at=0)
        cluster.run()
        assert cluster.now >= 0.5


class TestExceptionPropagation:
    def test_exception_crosses_invocation_boundary(self, cluster):
        echo = cluster.create_object(Echo, node=2)

        class Catcher(DistObject):
            @entry
            def guard(self, ctx, cap):
                try:
                    yield ctx.invoke(cap, "fail", KeyError("remote"))
                except KeyError as exc:
                    return f"caught {exc}"

        catcher = cluster.create_object(Catcher, node=0)
        thread = cluster.spawn(catcher, "guard", echo, at=0)
        assert "caught" in run_to_result(cluster, thread)

    def test_uncaught_exception_fails_thread(self, cluster):
        echo = cluster.create_object(Echo, node=1)
        thread = cluster.spawn(echo, "fail", RuntimeError("boom"), at=0)
        cluster.run()
        assert thread.state == "failed"
        with pytest.raises(RuntimeError, match="boom"):
            thread.completion.result()

    @pytest.mark.parametrize("bad",
                             ["not a syscall", "compute", "sleep", "timer"])
    def test_illegal_yield_is_a_process_error_inside_the_frame(
            self, cluster, bad):
        class Careless(DistObject):
            @entry
            def go(self, ctx):
                try:
                    if bad == "compute":
                        yield ctx.compute(-1.0)
                    elif bad == "sleep":
                        yield ctx.sleep(-1.0)
                    elif bad == "timer":
                        yield ctx.set_timer(0)
                    else:
                        yield bad
                except ProcessError as exc:
                    return f"caught: {exc}"

        obj = cluster.create_object(Careless, node=0)
        thread = cluster.spawn(obj, "go", at=0)
        assert "caught" in run_to_result(cluster, thread)
        assert thread.attributes.timers == []

    def test_finally_blocks_run_during_failure(self, cluster):
        log = []

        class Cleanly(DistObject):
            @entry
            def outer(self, ctx, cap):
                try:
                    yield ctx.invoke(cap, "fail", RuntimeError("x"))
                finally:
                    log.append("cleanup")

        echo = cluster.create_object(Echo, node=1)
        obj = cluster.create_object(Cleanly, node=0)
        thread = cluster.spawn(obj, "outer", echo, at=0)
        cluster.run()
        assert log == ["cleanup"]
        assert thread.state == "failed"


class TestTermination:
    def test_terminate_unwinds_all_frames(self, cluster):
        log = []

        class Nested(DistObject):
            @entry
            def outer(self, ctx, cap):
                try:
                    yield ctx.invoke(cap, "inner")
                finally:
                    log.append(("outer-cleanup", ctx.node))

            @entry
            def inner(self, ctx):
                try:
                    yield ctx.sleep(100.0)
                finally:
                    log.append(("inner-cleanup", ctx.node))

        a = cluster.create_object(Nested, node=0)
        b = cluster.create_object(Nested, node=2)

        class Outer2(DistObject):
            @entry
            def run(self, ctx, a_cap, b_cap):
                yield ctx.invoke(b_cap, "inner")

        thread = cluster.spawn(a, "outer", b, at=0)
        cluster.run(until=1.0)
        cluster.invoker.terminate_thread(thread, reason="test")
        cluster.run()
        assert thread.state == "terminated"
        # innermost first, at the right nodes
        assert log == [("inner-cleanup", 2), ("outer-cleanup", 0)]
        with pytest.raises(ThreadTerminated):
            thread.completion.result()

    def test_terminate_cleans_tcbs_everywhere(self, cluster):
        relay = cluster.create_object(Relay, node=1)
        sleeper = cluster.create_object(Sleeper, node=3)
        thread = cluster.spawn(relay, "call", sleeper, "hold", 100.0, at=0)
        cluster.run(until=1.0)
        cluster.invoker.terminate_thread(thread)
        cluster.run()
        for kernel in cluster.kernels.values():
            assert thread.tid not in kernel.thread_table
        assert thread.tid not in cluster.live_threads

    def test_terminate_idempotent(self, cluster):
        sleeper = cluster.create_object(Sleeper, node=1)
        thread = cluster.spawn(sleeper, "hold", 100.0, at=0)
        cluster.run(until=1.0)
        cluster.invoker.terminate_thread(thread)
        cluster.invoker.terminate_thread(thread)
        cluster.run()
        assert thread.state == "terminated"

    def test_catching_termination_is_futile(self, cluster):
        log = []

        class Stubborn(DistObject):
            @entry
            def cling(self, ctx):
                try:
                    yield ctx.sleep(100.0)
                except ThreadTerminated:
                    log.append("caught")
                    yield ctx.sleep(100.0)  # refuses to die
                log.append("unreachable")

        obj = cluster.create_object(Stubborn, node=0)
        thread = cluster.spawn(obj, "cling", at=0)
        cluster.run(until=1.0)
        cluster.invoker.terminate_thread(thread)
        cluster.run()
        assert thread.state == "terminated"
        assert log == ["caught"]


class TestAbortInvocation:
    def test_abort_unwinds_to_caller(self, cluster):
        class Stack(DistObject):
            @entry
            def outer(self, ctx, mid_cap, leaf_cap):
                try:
                    yield ctx.invoke(mid_cap, "mid", leaf_cap)
                except InvocationAborted:
                    return "aborted-observed"
                return "finished"

            @entry
            def mid(self, ctx, leaf_cap):
                result = yield ctx.invoke(leaf_cap, "leaf")
                return result

            @entry
            def leaf(self, ctx):
                yield ctx.sleep(100.0)
                return "leaf-done"

        a = cluster.create_object(Stack, node=0)
        b = cluster.create_object(Stack, node=1)
        c = cluster.create_object(Stack, node=2)
        thread = cluster.spawn(a, "outer", b, c, at=0)
        cluster.run(until=1.0)
        assert cluster.invoker.abort_invocation(thread, b.oid) is True
        cluster.run()
        assert thread.completion.result() == "aborted-observed"

    def test_abort_top_level_terminates(self, cluster):
        sleeper = cluster.create_object(Sleeper, node=1)
        thread = cluster.spawn(sleeper, "hold", 100.0, at=0)
        cluster.run(until=1.0)
        assert cluster.invoker.abort_invocation(thread, sleeper.oid) is True
        cluster.run()
        assert thread.state == "terminated"

    def test_abort_without_matching_frame(self, cluster):
        sleeper = cluster.create_object(Sleeper, node=1)
        other = cluster.create_object(Echo, node=2)
        thread = cluster.spawn(sleeper, "hold", 100.0, at=0)
        cluster.run(until=1.0)
        assert cluster.invoker.abort_invocation(thread, other.oid) is False


class Teller(DistObject):
    def __init__(self):
        super().__init__()
        self.calls = 0

    @entry
    def say(self, ctx, word):
        self.calls += 1
        yield ctx.compute(1e-5)
        return word


class Asker(DistObject):
    @entry
    def ask(self, ctx, a, b):
        x = yield ctx.invoke(a, "say", "first")
        y = yield ctx.invoke(b, "say", "second")
        z = yield ctx.invoke(a, "say", "third")
        return (x, y, z)


class Deep(DistObject):
    """``dive`` through ``caps``, sleep at the bottom; every level
    counts its cleanups and the top one reports an abort below it."""

    def __init__(self):
        super().__init__()
        self.cleanups = 0

    @entry
    def dive(self, ctx, caps):
        try:
            if caps:
                yield ctx.invoke(caps[0], "dive", caps[1:])
            else:
                yield ctx.sleep(100.0)
        except InvocationAborted:
            return "aborted-observed"
        finally:
            self.cleanups += 1


@pytest.mark.parametrize("reliable", [False, True], ids=["raw", "reliable"])
@pytest.mark.parametrize("mtype", ["invoke.request", "invoke.reply",
                                   "thread.complete", "thread.unwind"])
class TestDuplicatedThreadMessages:
    """A message that moves a thread numbers its hop, so the second copy
    a faulty network delivers is a no-op — whether or not the reliable
    channel's own dedup sits in front."""

    def _cluster(self, mtype, reliable):
        cluster = make_cluster(n_nodes=4, reliable_delivery=reliable)
        plan = cluster.fabric.faults
        plan.duplicate_rate = 1.0
        copies = plan.copies
        plan.copies = lambda m: copies(m) if m.mtype == mtype else 1
        return cluster

    def _assert_gone_exactly_once(self, cluster, thread):
        assert thread.tid not in cluster.live_threads
        assert len(cluster.tracer.select("thread", "exit",
                                         tid=str(thread.tid))) == 1
        for kernel in cluster.kernels.values():
            assert thread.tid not in kernel.thread_table, kernel.node_id

    def test_three_calls_return_in_order(self, mtype, reliable):
        cluster = self._cluster(mtype, reliable)
        asker = cluster.create_object(Asker, node=1)
        a = cluster.create_object(Teller, node=2)
        b = cluster.create_object(Teller, node=3)
        thread = cluster.spawn(asker, "ask", a, b, at=0)
        assert run_to_result(cluster, thread) == ("first", "second", "third")
        assert cluster.get_object(a).calls == 2
        assert cluster.get_object(b).calls == 1
        self._assert_gone_exactly_once(cluster, thread)
        if mtype != "thread.unwind":  # nothing unwinds here
            assert cluster.fabric.faults.duplicated_by_type[mtype] >= 1

    @pytest.mark.parametrize("depth", [0, 1], ids=["terminate", "abort"])
    def test_unwind_runs_every_cleanup_once(self, mtype, reliable, depth):
        cluster = self._cluster(mtype, reliable)
        caps = [cluster.create_object(Deep, node=n) for n in (1, 2, 3)]
        thread = cluster.spawn(caps[0], "dive", caps[1:], at=0)
        cluster.run(until=1.0)
        if depth:
            assert cluster.invoker.abort_invocation(thread, caps[1].oid)
            cluster.run()
            assert thread.completion.result() == "aborted-observed"
        else:
            cluster.invoker.terminate_thread(thread, "test")
            cluster.run()
            assert thread.state == "terminated"
            with pytest.raises(ThreadTerminated):
                thread.completion.result()
        assert [cluster.get_object(c).cleanups for c in caps] == [1, 1, 1]
        self._assert_gone_exactly_once(cluster, thread)
        if mtype in ("invoke.request", "thread.unwind"):
            assert cluster.fabric.faults.duplicated_by_type[mtype] >= 1


class TestSerializingWire:
    """The four thread-moving messages carry names and plain fields, so
    a run whose every message is a decoded copy is the same run."""

    def _run(self):
        cluster = make_cluster(n_nodes=4)
        asker = cluster.create_object(Asker, node=1)
        tellers = [cluster.create_object(Teller, node=n) for n in (2, 3)]
        deep = [cluster.create_object(Deep, node=n) for n in (1, 2, 3)]
        caller = cluster.spawn(asker, "ask", *tellers, at=0)
        killed = cluster.spawn(deep[0], "dive", deep[1:], at=0)
        aborted = cluster.spawn(deep[0], "dive", deep[1:], at=0)
        failing = cluster.spawn(
            cluster.create_object(Relay, node=1), "call",
            cluster.create_object(Echo, node=2), "fail", KeyError("k"), at=0)
        cluster.run(until=1.0)
        cluster.invoker.terminate_thread(killed, "test")
        cluster.invoker.abort_invocation(aborted, deep[1].oid)
        cluster.run()
        assert caller.completion.result() == ("first", "second", "third")
        assert killed.state == "terminated"
        assert aborted.completion.result() == "aborted-observed"
        with pytest.raises(KeyError):
            failing.completion.result()
        assert [cluster.get_object(c).cleanups for c in deep] == [2, 2, 2]
        assert not cluster.live_threads
        return cluster.now, cluster.message_stats()

    def test_same_run_through_the_codec(self, request):
        plain = self._run()
        request.getfixturevalue("serializing_wire")
        assert self._run() == plain
        assert plain[1]["type:thread.unwind"] == 5


class TestThreadFacilities:
    def test_io_channel_shared_across_objects_and_nodes(self, cluster):
        from repro import IoChannel

        class Writer(DistObject):
            @entry
            def foo(self, ctx, bar_cap):
                yield ctx.io_write("from foo")
                yield ctx.invoke(bar_cap, "bar")
                return "ok"

            @entry
            def bar(self, ctx):
                yield ctx.io_write("from bar")

        a = cluster.create_object(Writer, node=0)
        b = cluster.create_object(Writer, node=3)
        channel = IoChannel("xterm")
        thread = cluster.spawn(a, "foo", b, at=0, io_channel=channel)
        run_to_result(cluster, thread)
        assert channel.text() == "from foo\nfrom bar"

    def test_create_object_from_thread_local_and_remote(self, cluster):
        class Factory(DistObject):
            @entry
            def build(self, ctx):
                local_cap = yield ctx.create(Echo)
                remote_cap = yield ctx.create(Echo, node=3)
                a = yield ctx.invoke(local_cap, "where")
                b = yield ctx.invoke(remote_cap, "where")
                return (local_cap.home, a, remote_cap.home, b)

        factory = cluster.create_object(Factory, node=1)
        thread = cluster.spawn(factory, "build", at=0)
        assert run_to_result(cluster, thread) == (1, 1, 3, 3)

    def test_new_group_syscall(self, cluster):
        class Grouper(DistObject):
            @entry
            def regroup(self, ctx):
                gid = yield ctx.new_group()
                return (str(gid), str(ctx.gid))

        obj = cluster.create_object(Grouper, node=0)
        thread = cluster.spawn(obj, "regroup", at=0)
        gid_str, ctx_gid = run_to_result(cluster, thread)
        assert gid_str == ctx_gid
