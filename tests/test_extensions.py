"""Tests for the extension features: declared entry events (§5.2),
the monitor watchdog (§6.2 enforcement), and trace export."""

import json

import pytest

from repro import DistObject, entry
from repro.apps.exceptions import invoke_declared, repairing
from repro.monitor import MonitorServer, install_monitor
from tests.conftest import make_cluster


class DeclaredMath(DistObject):
    @entry(raises=("DIV_ZERO",))
    def divide(self, ctx, a, b):
        yield ctx.compute(0)
        return a / b

    @entry
    def undeclared(self, ctx):
        yield ctx.compute(0)
        return "plain"


class TestDeclaredEvents:
    def test_signature_introspection(self):
        obj = DeclaredMath()
        assert obj.entry_raises("divide") == ("DIV_ZERO",)
        assert obj.entry_raises("undeclared") == ()

    def test_entry_raises_validates_name(self):
        from repro.errors import NoSuchEntryError

        with pytest.raises(NoSuchEntryError):
            DeclaredMath().entry_raises("nope")

    def test_bare_and_parameterised_decorators_coexist(self):
        assert "divide" in DeclaredMath._entries
        assert "undeclared" in DeclaredMath._entries

    def test_invoke_declared_attaches_default_terminator(self):
        cluster = make_cluster(n_nodes=2)

        class Caller(DistObject):
            @entry
            def go(self, ctx, cap):
                result = yield from invoke_declared(ctx, cap, "divide",
                                                    1, 0)
                return result

        math = cluster.create_object(DeclaredMath, node=1)
        caller = cluster.create_object(Caller, node=0)
        thread = cluster.spawn(caller, "go", math, at=0)
        cluster.run()
        # the default factory terminates on a declared fault
        assert thread.state == "terminated"

    def test_invoke_declared_with_custom_factory(self):
        cluster = make_cluster(n_nodes=2)

        class Caller(DistObject):
            @entry
            def go(self, ctx, cap):
                result = yield from invoke_declared(
                    ctx, cap, "divide", 1, 0,
                    handler_factory=lambda event: repairing(-99))
                return result

        math = cluster.create_object(DeclaredMath, node=1)
        caller = cluster.create_object(Caller, node=0)
        thread = cluster.spawn(caller, "go", math, at=0)
        cluster.run()
        assert thread.completion.result() == -99


class Stalling(DistObject):
    @entry
    def maybe_stall(self, ctx, monitor_cap, stall):
        yield from install_monitor(ctx, monitor_cap, period=0.05)
        yield ctx.compute(0.2)
        if stall:
            # stops yielding samples: blocked on a future nobody resolves
            from repro.sim.primitives import SimFuture

            forever = SimFuture(ctx._thread.cluster.sim)
            yield ctx.wait(forever)
        return "healthy"


class TestWatchdog:
    def test_watchdog_kills_stalled_thread_only(self):
        cluster = make_cluster(n_nodes=3)
        monitor = cluster.create_object(MonitorServer, node=2,
                                        stale_after=0.3)
        app = cluster.create_object(Stalling, node=1)
        healthy = cluster.spawn(app, "maybe_stall", monitor, False, at=0)
        stalled = cluster.spawn(app, "maybe_stall", monitor, True, at=0)
        cluster.spawn(monitor, "start_watchdog", 0.1, at=2)
        cluster.run(until=5.0)
        assert healthy.completion.result() == "healthy"
        assert stalled.state == "terminated"

    def test_watchdog_ignores_finished_threads(self):
        cluster = make_cluster(n_nodes=2)
        monitor = cluster.create_object(MonitorServer, node=1,
                                        stale_after=0.1)
        app = cluster.create_object(Stalling, node=0)
        thread = cluster.spawn(app, "maybe_stall", monitor, False, at=0)
        cluster.spawn(monitor, "start_watchdog", 0.1, at=1)
        cluster.run(until=3.0)
        assert thread.completion.result() == "healthy"
        assert cluster.events.dead_targets == 0

    def test_stop_watchdog(self):
        cluster = make_cluster(n_nodes=2)
        monitor = cluster.create_object(MonitorServer, node=1)
        cluster.spawn(monitor, "start_watchdog", 0.1, at=1)
        cluster.run(until=0.5)
        stopper = cluster.spawn(monitor, "stop_watchdog", at=1)
        cluster.run(until=1.0)
        assert stopper.completion.result() is True
        # the sweeper is gone: virtual time can drain to idle
        cluster.run()
        assert cluster.quiescent()


class TestTraceExport:
    def test_jsonl_roundtrip(self, tmp_path):
        cluster = make_cluster(n_nodes=2)
        from tests.conftest import Echo

        cap = cluster.create_object(Echo, node=1)
        cluster.spawn(cap, "echo", 1, at=0)
        cluster.run()
        path = tmp_path / "trace.jsonl"
        count = cluster.tracer.to_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == count > 0
        first = json.loads(lines[0])
        assert {"time", "category", "name"} <= set(first)

    def test_select_finds_every_category(self):
        cluster = make_cluster(n_nodes=2)
        from tests.conftest import Echo

        cap = cluster.create_object(Echo, node=1)
        cluster.spawn(cap, "echo", 1, at=0)
        cluster.run()
        assert len(cluster.tracer.select("thread")) > 0
        assert len(cluster.tracer.select("net")) > 0
