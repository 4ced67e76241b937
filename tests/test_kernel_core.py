"""Unit tests for kernel-layer services: config, TCBs, RPC, timers, names."""

import ast
import dataclasses
import importlib.util
import pathlib
import re

import pytest

import repro
from repro import Cluster, DistObject
from repro.errors import (
    EventNameInUseError,
    KernelError,
    NameServiceError,
    ObjectError,
    RpcError,
    RpcTimeout,
    UnknownEventError,
)
from repro.kernel.config import ClusterConfig
from repro.kernel.names import NameService
from repro.kernel.rpc import SizedReply
from repro.kernel.tcb import ThreadTable
from repro.kernel.timers import TimerService
from repro.sim import Simulator, SimFuture


class TestClusterConfig:
    def test_defaults_valid(self):
        config = ClusterConfig()
        assert config.n_nodes == 4
        assert config.locator == "path"

    def test_rejects_zero_nodes(self):
        with pytest.raises(KernelError):
            ClusterConfig(n_nodes=0)

    def test_rejects_unknown_locator(self):
        with pytest.raises(KernelError):
            ClusterConfig(locator="teleport")

    def test_rejects_unknown_transport(self):
        # the invocation transport is chosen per create_object
        cluster = Cluster(ClusterConfig(n_nodes=1))
        with pytest.raises(ObjectError, match="carrier-pigeon"):
            cluster.create_object(DistObject, node=0,
                                  transport="carrier-pigeon")

    def test_rejects_unknown_event_mode(self):
        with pytest.raises(KernelError):
            ClusterConfig(object_event_mode="psychic")

    def test_rejects_negative_costs(self):
        with pytest.raises(KernelError):
            ClusterConfig(thread_create_cost=-1.0)

    def test_rejects_bad_page_size(self):
        with pytest.raises(KernelError):
            ClusterConfig(page_size=0)

    def test_field_budget(self):
        count = len(dataclasses.fields(ClusterConfig))
        assert count <= 41, (
            f"ClusterConfig has {count} fields, budget is 41 — ROADMAP: "
            "a PR that adds a knob names the one it retires")

    def test_events_module_budget(self):
        # the delivery pipeline has one owner per stage; a module past
        # the budget is a stage (or a second copy of a policy) growing
        # back into somebody else's
        events = pathlib.Path(repro.__file__).parent / "events"
        sizes = {str(path.relative_to(events)):
                 len(path.read_text().splitlines())
                 for path in events.rglob("*.py")}
        assert len(sizes) > 5 and "locate/base.py" in sizes
        assert {name: n for name, n in sizes.items() if n > 500} == {}

    def test_sim_surface_budget(self):
        rule = ("repro.sim is what the stack above it uses: a ninth name "
                "or a new module arrives with its first user under src/, "
                "not with its own test file")
        assert set(repro.sim.__all__) == {
            "Channel", "RngRegistry", "SimFuture", "Simulator",
            "TraceRecord", "Tracer", "WheelSimulator",
            "make_simulator"}, rule
        src = pathlib.Path(repro.__file__).parent
        imported = set()
        for path in src.rglob("*.py"):
            if path.parent == src / "sim":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    imported.add(node.module)
                    imported.update(f"{node.module}.{alias.name}"
                                    for alias in node.names)
        modules = {f"repro.sim.{path.stem}"
                   for path in (src / "sim").glob("*.py")
                   if path.name != "__init__.py"}
        assert len(modules) >= 4
        assert modules - imported == set(), rule
        assert importlib.util.find_spec("repro.sim.process") is None

    def test_location_state_has_one_owner(self):
        rule = ("§7.1 location state belongs to the locator that reads it: "
                "only events/locate/ defines or builds hint tables or "
                "multicast groups, and nothing else names them")
        src = pathlib.Path(repro.__file__).parent
        built = {"LocationHintTable", "MulticastRegistry"}
        named = {"location_hints", "hint_holders", "multicast_groups"}
        found = []
        for path in src.rglob("*.py"):
            if path.parent == src / "events" / "locate":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = getattr(fn, "id", getattr(fn, "attr", None))
                    if name in built:
                        found.append((path.name, node.lineno, name))
                if isinstance(node, ast.ClassDef) and node.name in built:
                    found.append((path.name, node.lineno, node.name))
                name = getattr(node, "id", None) or (
                    node.attr if isinstance(node, ast.Attribute) else None)
                if name in named:
                    found.append((path.name, node.lineno, name))
        assert found == [], rule
        # the fabric is point to point: no group addresses are exported
        assert not {"BROADCAST", "is_multicast", "multicast_address",
                    "multicast_group", "MulticastRegistry"} & set(
                        repro.net.__all__)
        assert not (src / "net" / "multicast.py").exists()
        assert "LocationHintTable" not in vars(
            importlib.import_module("repro.kernel.tcb"))

    def test_wire_layers_name_no_general_serializer(self):
        # what crosses a wire is a codec value or a registered shape;
        # the same check runs in CI's lint job as a grep.  marshal is
        # the tempting shortcut to a faster codec, and as unsafe on a
        # peer's bytes as pickle
        src = pathlib.Path(repro.__file__).parent
        files = [*(src / "transport").glob("*.py"),
                 *(src / "net").glob("*.py"),
                 src / "objects" / "invocation.py"]
        assert len(files) > 12
        assert [path.name for path in files
                if re.search(r"\b(pickle|marshal)\b",
                             path.read_text())] == []

    @pytest.mark.parametrize("name", [
        "wire_codec", "shard_window_batching", "shard_quiescent_skip",
        "shard_start_method", "journal_group_commit", "ack_piggyback",
        "degrade_dedup_window", "extra",
        "heartbeat_interval", "suspect_after", "swim_piggyback",
        "swim_ping_timeout", "swim_suspect_timeout", "swim_indirect_probes",
        "swim_gossip_max", "retransmit_backoff", "locate_retries",
        "locate_retry_delay", "location_hint_capacity",
        "latency_reservoir_capacity", "shard_window",
        "cross_shard_latency",
        "surrogate_cost", "context_switch_cost", "attach_cost",
        "locate_timeout", "default_transport", "rpc_retries",
        "wheel_tick", "wheel_slots"])
    def test_retired_names_rejected(self, name):
        with pytest.raises(TypeError, match=name):
            ClusterConfig(**{name: None})


class TestThreadTable:
    def test_arrival_makes_innermost(self):
        table = ThreadTable(0)
        table.thread_arrived("t")
        assert table.get("t").innermost
        assert table.get("t").frames == 1

    def test_departure_sets_forwarding_pointer(self):
        table = ThreadTable(0)
        table.thread_arrived("t")
        table.thread_departed("t", to_node=3)
        tcb = table.get("t")
        assert not tcb.innermost
        assert tcb.next_node == 3

    def test_return_clears_pointer(self):
        table = ThreadTable(0)
        table.thread_arrived("t")
        table.thread_departed("t", to_node=3)
        table.thread_returned_here("t")
        tcb = table.get("t")
        assert tcb.innermost
        assert tcb.next_node is None

    def test_frame_pop_removes_when_empty(self):
        table = ThreadTable(0)
        table.thread_arrived("t")
        table.thread_arrived("t")
        assert table.get("t").frames == 2
        assert table.frame_popped("t") is not None
        assert table.frame_popped("t") is None
        assert "t" not in table

    def test_purge(self):
        table = ThreadTable(0)
        table.thread_arrived("t")
        assert table.purge("t") is True
        assert table.purge("t") is False

    def test_operations_on_missing_tid_raise(self):
        table = ThreadTable(0)
        with pytest.raises(KernelError):
            table.thread_departed("nope", 1)
        with pytest.raises(KernelError):
            table.frame_popped("nope")

    def test_tids_listing(self):
        table = ThreadTable(0)
        table.thread_arrived("a")
        table.thread_arrived("b")
        assert sorted(table.tids()) == ["a", "b"]


def _rpc_pair():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    return cluster.sim, {i: k.rpc for i, k in cluster.kernels.items()}


class TestRpc:
    def test_request_reply_roundtrip(self):
        sim, engines = _rpc_pair()
        engines[1].serve("add", lambda payload, msg: payload["a"] + payload["b"])
        fut = engines[0].request(1, "add", {"a": 2, "b": 3})
        sim.run()
        assert fut.result() == 5

    def test_unknown_service_fails_future(self):
        sim, engines = _rpc_pair()
        fut = engines[0].request(1, "nope")
        sim.run()
        with pytest.raises(RpcError):
            fut.result()

    def test_service_exception_ships_to_caller(self):
        sim, engines = _rpc_pair()

        def boom(payload, msg):
            raise ValueError("remote boom")

        engines[1].serve("boom", boom)
        fut = engines[0].request(1, "boom")
        sim.run()
        with pytest.raises(ValueError, match="remote boom"):
            fut.result()

    def test_service_failure_is_an_error_field_that_survives_the_codec(self):
        from repro.transport.codec import decode_message, encode_message
        sim, engines = _rpc_pair()
        replies = []
        dispatch = engines[0].kernel._dispatch
        on_reply = dispatch["rpc.reply"]

        def through_the_codec(message):
            replies.append(message.payload)
            on_reply(decode_message(encode_message(message)))

        dispatch["rpc.reply"] = through_the_codec

        def boom(payload, msg):
            raise RpcTimeout("inner call timed out")

        engines[1].serve("boom", boom)
        engines[1].serve("fine", lambda payload, msg: (1, "two"))
        boomed = engines[0].request(1, "boom")
        missing = engines[0].request(1, "nope")
        fine = engines[0].request(1, "fine")
        sim.run()
        with pytest.raises(RpcTimeout, match="inner call timed out"):
            boomed.result()
        with pytest.raises(RpcError, match="no service 'nope'"):
            missing.result()
        assert fine.result() == (1, "two")
        assert [sorted(body) for body in replies] == [
            ["call_id", "error"], ["call_id", "error"],
            ["call_id", "result"]]

    def test_async_service_via_future(self):
        sim, engines = _rpc_pair()
        pending = SimFuture(sim)
        engines[1].serve("later", lambda payload, msg: pending)
        fut = engines[0].request(1, "later")
        sim.call_after(1.0, pending.resolve, "eventually")
        sim.run()
        assert fut.result() == "eventually"

    def test_timeout(self):
        sim, engines = _rpc_pair()
        never = SimFuture(sim)
        engines[1].serve("never", lambda payload, msg: never)
        fut = engines[0].request(1, "never", timeout=0.5)
        sim.run(until=2.0)
        with pytest.raises(RpcTimeout):
            fut.result()

    def test_duplicate_service_rejected(self):
        sim, engines = _rpc_pair()
        engines[1].serve("s", lambda p, m: None)
        with pytest.raises(RpcError):
            engines[1].serve("s", lambda p, m: None)

    def test_sized_reply_controls_wire_size(self):
        sim, engines = _rpc_pair()
        fabric_stats = engines[0].kernel.fabric.stats
        engines[1].serve("page", lambda p, m: SizedReply("data", 4096))
        fut = engines[0].request(1, "page")
        sim.run()
        assert fut.result() == "data"
        assert fabric_stats.bytes_sent == 64 + 4096

    def test_two_outstanding_requests_correlate(self):
        sim, engines = _rpc_pair()
        engines[1].serve("id", lambda payload, msg: payload)
        f1 = engines[0].request(1, "id", "first")
        f2 = engines[0].request(1, "id", "second")
        sim.run()
        assert (f1.result(), f2.result()) == ("first", "second")


class TestTimers:
    def test_one_shot_fires_once(self):
        sim = Simulator()
        timers = TimerService(sim, 0)
        fired = []
        timer_id = timers.set(1.0, fired.append, "x")
        sim.run(until=5.0)
        assert fired == ["x"]
        # fired and forgotten: nothing left to cancel
        assert timers.active() == []
        assert timers.cancel(timer_id) is False

    def test_recurring_fires_repeatedly(self):
        sim = Simulator()
        timers = TimerService(sim, 0)
        fired = []
        timer_id = timers.set(1.0, lambda: fired.append(sim.now),
                              recurring=True)
        sim.run(until=3.5)
        timers.cancel(timer_id)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_cancel_before_fire(self):
        sim = Simulator()
        timers = TimerService(sim, 0)
        fired = []
        timer_id = timers.set(1.0, fired.append, "x")
        assert timers.cancel(timer_id) is True
        assert timers.cancel(timer_id) is False
        sim.run()
        assert fired == []

    def test_cancel_all(self):
        sim = Simulator()
        timers = TimerService(sim, 0)
        for _ in range(3):
            timers.set(1.0, lambda: None)
        assert timers.cancel_all() == 3
        assert timers.active() == []

    def test_rejects_nonpositive_interval(self):
        sim = Simulator()
        timers = TimerService(sim, 0)
        with pytest.raises(KernelError):
            timers.set(0.0, lambda: None)


class TestNameService:
    def test_register_lookup(self):
        names = NameService()
        names.register("lockmgr", "cap")
        assert names.lookup("lockmgr") == "cap"

    def test_duplicate_register_rejected(self):
        names = NameService()
        names.register("x", 1)
        with pytest.raises(NameServiceError):
            names.register("x", 2)

    def test_rebind_replaces(self):
        names = NameService()
        names.register("x", 1)
        names.rebind("x", 2)
        assert names.lookup("x") == 2

    def test_lookup_missing_raises(self):
        names = NameService()
        with pytest.raises(NameServiceError):
            names.lookup("ghost")
        assert names.lookup_or_none("ghost") is None

    def test_unregister(self):
        names = NameService()
        names.register("x", 1)
        names.unregister("x")
        with pytest.raises(NameServiceError):
            names.unregister("x")

    def test_event_registration(self):
        names = NameService()
        names.register_event("COMMIT", registrar="app")
        assert names.event_exists("COMMIT")
        assert not names.is_system_event("COMMIT")
        with pytest.raises(EventNameInUseError):
            names.register_event("COMMIT")

    def test_unknown_event_raises(self):
        names = NameService()
        with pytest.raises(UnknownEventError):
            names.require_event("GHOST")
