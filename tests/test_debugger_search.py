"""Tests for the debugger (buddy handlers, §4.1) and cooperative search
(partial-result notification, §1) applications."""

import pytest

from repro import DistObject, entry
from repro.apps import (
    DebuggerServer,
    attach_debugger,
    breakpoint_here,
    run_search,
)
from repro.apps.search import generate_candidates
from tests.conftest import make_cluster


class Debuggee(DistObject):
    @entry
    def run(self, ctx, debugger_cap, tags):
        yield attach_debugger(debugger_cap)
        visited = []
        for tag in tags:
            yield ctx.compute(1e-3)
            visited.append(tag)
            yield breakpoint_here(ctx, tag)
        return visited

    @entry
    def run_remote(self, ctx, debugger_cap, far_cap):
        yield attach_debugger(debugger_cap)
        result = yield ctx.invoke(far_cap, "deep_break")
        return result

    @entry
    def deep_break(self, ctx):
        yield breakpoint_here(ctx, "deep")
        yield ctx.compute(1e-3)
        return "deep-done"


@pytest.fixture()
def debug_rig():
    cluster = make_cluster(n_nodes=3)
    cluster.register_event("BREAKPOINT")
    debugger = cluster.create_object(DebuggerServer, node=2)
    app = cluster.create_object(Debuggee, node=1)
    return cluster, debugger, app


def _command(cluster, debugger, entry_name, *args):
    probe = cluster.spawn(debugger, entry_name, *args, at=0)
    cluster.run(until=cluster.now + 1.0)
    return probe.completion.result()


class TestDebugger:
    def test_thread_freezes_at_breakpoint(self, debug_rig):
        cluster, debugger, app = debug_rig
        thread = cluster.spawn(app, "run", debugger, ["bp1"], at=0)
        cluster.run(until=1.0)
        assert thread.alive
        assert thread.suspended_by_event
        assert _command(cluster, debugger, "list_stopped") == \
            [str(thread.tid)]

    def test_inspect_shows_frames_and_tag(self, debug_rig):
        cluster, debugger, app = debug_rig
        thread = cluster.spawn(app, "run", debugger, ["bp1"], at=0)
        cluster.run(until=1.0)
        info = _command(cluster, debugger, "inspect", thread.tid)
        assert info["tag"] == "bp1"
        assert info["node"] == 1  # app's home, where the thread executes
        assert any(entry_name == "run" for _, entry_name, _
                   in info["frames"])

    def test_resume_continues_to_next_breakpoint(self, debug_rig):
        cluster, debugger, app = debug_rig
        thread = cluster.spawn(app, "run", debugger, ["bp1", "bp2"], at=0)
        cluster.run(until=1.0)
        assert _command(cluster, debugger, "resume_thread", thread.tid)
        cluster.run(until=cluster.now + 1.0)
        info = _command(cluster, debugger, "inspect", thread.tid)
        assert info["tag"] == "bp2"
        assert _command(cluster, debugger, "resume_thread", thread.tid)
        cluster.run()
        assert thread.completion.result() == ["bp1", "bp2"]

    def test_kill_terminates_stopped_thread(self, debug_rig):
        cluster, debugger, app = debug_rig
        thread = cluster.spawn(app, "run", debugger, ["bp1"], at=0)
        cluster.run(until=1.0)
        assert _command(cluster, debugger, "kill_thread", thread.tid)
        cluster.run()
        assert thread.state == "terminated"

    def test_disabled_tag_does_not_stop(self, debug_rig):
        cluster, debugger, app = debug_rig
        _command(cluster, debugger, "disable_tag", "noisy")
        thread = cluster.spawn(app, "run", debugger, ["noisy"], at=0)
        cluster.run()
        assert thread.completion.result() == ["noisy"]
        server = cluster.get_object(debugger)
        assert len(server.history) == 1  # hit recorded, not stopped

    def test_breakpoint_deep_in_remote_object(self, debug_rig):
        cluster, debugger, app = debug_rig
        far = cluster.create_object(Debuggee, node=0)
        thread = cluster.spawn(app, "run_remote", debugger, far, at=0)
        cluster.run(until=1.0)
        info = _command(cluster, debugger, "inspect", thread.tid)
        assert info["tag"] == "deep"
        assert info["node"] == 0  # stopped in the far object
        assert len(info["frames"]) == 2  # run_remote -> deep_break
        _command(cluster, debugger, "resume_thread", thread.tid)
        cluster.run()
        assert thread.completion.result() == "deep-done"

    def test_resume_unknown_thread(self, debug_rig):
        cluster, debugger, app = debug_rig
        from repro.threads.ids import ThreadId

        assert _command(cluster, debugger, "resume_thread",
                        ThreadId(0, 999)) is False

    def test_two_threads_stopped_independently(self, debug_rig):
        cluster, debugger, app = debug_rig
        t1 = cluster.spawn(app, "run", debugger, ["a"], at=0)
        t2 = cluster.spawn(app, "run", debugger, ["b"], at=2)
        cluster.run(until=1.0)
        stopped = _command(cluster, debugger, "list_stopped")
        assert len(stopped) == 2
        _command(cluster, debugger, "resume_thread", t1.tid)
        cluster.run(until=cluster.now + 1.0)
        assert t1.completion.result() == ["a"]
        assert t2.alive and t2.suspended_by_event
        _command(cluster, debugger, "resume_thread", t2.tid)
        cluster.run()
        assert t2.completion.result() == ["b"]


class TestSearchWorkload:
    def test_candidates_reproducible(self):
        assert generate_candidates(3, 50) == generate_candidates(3, 50)
        assert generate_candidates(3, 50) != generate_candidates(4, 50)

    def test_lower_bounds_sound(self):
        for candidate in generate_candidates(9, 100):
            assert candidate.lower_bound <= candidate.value

    def test_search_finds_the_optimum(self):
        cluster = make_cluster(n_nodes=4)
        result = run_search(cluster, workers=4, space=200, seed=11)
        expected = min(c.value for c in generate_candidates(11, 200))
        assert result.best == expected

    def test_notification_reduces_exploration(self):
        explored = {}
        for notify in (True, False):
            cluster = make_cluster(n_nodes=4)
            result = run_search(cluster, workers=4, space=300, seed=7,
                                notify=notify)
            explored[notify] = result.explored
            # correctness does not depend on notification
            assert result.best == pytest.approx(1.5)
        assert explored[True] < explored[False]

    def test_single_worker_degenerate(self):
        cluster = make_cluster(n_nodes=2)
        result = run_search(cluster, workers=1, space=100, seed=5)
        assert result.explored + result.pruned == 100

    def test_explored_plus_pruned_covers_space(self):
        cluster = make_cluster(n_nodes=4)
        result = run_search(cluster, workers=4, space=200, seed=7)
        assert result.explored + result.pruned == 200

    def test_events_raised_only_when_notifying(self):
        cluster = make_cluster(n_nodes=4)
        result = run_search(cluster, workers=4, space=200, seed=7,
                            notify=False)
        assert result.events_raised == 0
