"""Tests for the transport port and its three backends.

Covers the narrow :class:`~repro.transport.base.Transport` protocol
(endpoint registry, factory, config knobs), the sharded backend's
conservative-window buffering, the wall-clock
:class:`~repro.transport.realtime.RealtimeScheduler`, the TCP loopback
transport, and the receiver-side dedup memory of the degraded overload
path (sized by ``dedup_window``).
"""

from __future__ import annotations

import pathlib
import socket
import struct
import subprocess
import sys
from collections import Counter

import pytest

from repro import Cluster, ClusterConfig
from repro.errors import KernelError, NetworkError, SimulationError
from repro.kernel.config import shard_bounds
from repro.net.fabric import Fabric
from repro.net.message import Message
from repro.sim.scheduler import Simulator
from repro.transport.base import (
    TRANSPORT_BACKEND_NAMES,
    Transport,
    make_transport,
)
from repro.transport.realtime import RealtimeScheduler
from repro.transport.sharded import ShardSimTransport, sharded_config
from repro.transport.simlocal import SimTransport
from repro.transport import tcp
from repro.transport.codec import CodecError
from repro.transport.tcp import AsyncioTransport

from .conftest import make_cluster


# ----------------------------------------------------------------------
# the port itself: endpoint registry + factory
# ----------------------------------------------------------------------

class TestTransportPort:
    def _transport(self):
        return SimTransport(Simulator())

    def test_attach_detach_and_lookup(self):
        tp = self._transport()
        seen = []
        tp.attach(0, seen.append)
        tp.attach(1, seen.append)
        assert tp.node_ids == [0, 1]
        assert 0 in tp and 2 not in tp
        assert tp.endpoint(0) is not None
        tp.detach(0)
        assert tp.endpoint(0) is None
        assert tp.node_ids == [1]
        # detaching is idempotent (crash of an already-crashed node)
        tp.detach(0)

    def test_double_attach_rejected(self):
        tp = self._transport()
        tp.attach(0, lambda m: None)
        with pytest.raises(NetworkError):
            tp.attach(0, lambda m: None)

    def test_known_outlives_detach(self):
        # A detached node stays *known*: it is a crashed machine whose
        # traffic the wire swallows, not an addressing error.
        tp = self._transport()
        tp.attach(3, lambda m: None)
        tp.detach(3)
        assert tp.known(3)
        assert not tp.routable(3)
        tp.add_known(9)  # a peer hosted elsewhere
        assert tp.known(9) and not tp.routable(9)

    def test_stats_schema(self):
        tp = self._transport()
        tp.attach(0, lambda m: None)
        data = tp.stats()
        assert data["backend"] == "sim"
        assert data["attached"] == 1

    def test_factory_builds_named_backends(self):
        sim = make_transport(ClusterConfig(n_nodes=2))
        assert isinstance(sim, SimTransport)
        assert sim.backend_name() == "sim"
        with pytest.raises(NetworkError, match="shard_index"):
            make_transport(ClusterConfig(n_nodes=4, transport="sharded",
                                         shard_count=2))
        sharded = make_transport(ClusterConfig(
            n_nodes=4, transport="sharded", shard_count=2, shard_index=1))
        assert isinstance(sharded, ShardSimTransport)
        assert sharded.backend_name() == "sharded"

    def test_factory_rejects_unknown_backend(self):
        class Fake:
            transport = "carrier-pigeon"
        with pytest.raises(NetworkError, match="carrier-pigeon"):
            make_transport(Fake())

    def test_fabric_wraps_bare_simulator(self):
        # Back-compat: tests that build Fabric(Simulator()) directly
        # get a SimTransport wrapped in transparently.
        sim = Simulator()
        fabric = Fabric(sim)
        assert isinstance(fabric.transport, SimTransport)
        assert fabric.sim is sim
        inbox = []
        fabric.attach(0, inbox.append)
        fabric.attach(1, inbox.append)
        fabric.send(Message(src=0, dst=1, mtype="t.ping"))
        sim.run()
        assert [m.mtype for m in inbox] == ["t.ping"]


# ----------------------------------------------------------------------
# config knobs
# ----------------------------------------------------------------------

class TestTransportConfig:
    def test_backend_name_validated(self):
        for name in TRANSPORT_BACKEND_NAMES:
            kwargs = {"transport": name}
            if name == "sharded":
                kwargs.update(shard_count=2, shard_index=0)
            ClusterConfig(n_nodes=4, **kwargs)
        with pytest.raises(KernelError, match="unknown transport"):
            ClusterConfig(n_nodes=4, transport="udp")

    def test_shard_knobs_validated(self):
        with pytest.raises(KernelError):
            ClusterConfig(n_nodes=4, shard_count=0)
        with pytest.raises(KernelError, match="exceeds n_nodes"):
            ClusterConfig(n_nodes=2, shard_count=3)
        with pytest.raises(KernelError, match="out of range"):
            ClusterConfig(n_nodes=4, shard_count=2, shard_index=2)

    def test_tcp_and_dedup_knobs_validated(self):
        with pytest.raises(KernelError, match="tcp_base_port"):
            ClusterConfig(n_nodes=2, tcp_base_port=70000)
        with pytest.raises(KernelError, match="dedup_window"):
            ClusterConfig(n_nodes=2, dedup_window=0)
        ClusterConfig(n_nodes=2, dedup_window=1)

    def test_shard_bounds_partition_nodes(self):
        # every (n, k) partition covers 0..n-1 exactly once, contiguously,
        # with remainder nodes on the lowest-indexed shards
        for n_nodes, shard_count in [(4, 1), (7, 2), (16, 4), (130, 8)]:
            covered = []
            sizes = []
            for shard in range(shard_count):
                lo, hi = shard_bounds(n_nodes, shard_count, shard)
                assert lo <= hi
                covered.extend(range(lo, hi))
                sizes.append(hi - lo)
            assert covered == list(range(n_nodes))
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)

    def test_local_node_ids(self):
        plain = ClusterConfig(n_nodes=6)
        assert list(plain.local_node_ids()) == list(range(6))
        shard = ClusterConfig(n_nodes=7, transport="sharded",
                              shard_count=2, shard_index=1)
        lo, hi = shard_bounds(7, 2, 1)
        assert list(shard.local_node_ids()) == list(range(lo, hi))

    def test_effective_shard_window_defaults_to_link_latency(self):
        config = ClusterConfig(n_nodes=4, link_latency=3e-3,
                               transport="sharded", shard_count=2,
                               shard_index=0)
        assert make_transport(config).lookahead == 3e-3

    def test_sharded_config_helper(self):
        base = ClusterConfig(n_nodes=2, locator="cached")
        conf = sharded_config(base, n_nodes=32, shard_count=4)
        assert conf.transport == "sharded"
        assert conf.n_nodes == 32 and conf.shard_count == 4
        assert conf.shard_index is None
        assert conf.locator == "cached"


# ----------------------------------------------------------------------
# sharded backend: conservative-window buffering
# ----------------------------------------------------------------------

class TestShardSimTransport:
    def _shard(self, lookahead=5e-3):
        sim = Simulator()
        tp = ShardSimTransport(sim, local_nodes=range(0, 2),
                               all_nodes=range(0, 4), lookahead=lookahead)
        return sim, tp

    def test_local_post_delivers_on_shard_simulator(self):
        sim, tp = self._shard()
        inbox = []
        tp.attach(0, inbox.append)
        tp.attach(1, inbox.append)
        tp.set_delivery_hook(lambda m, dst: tp.endpoint(dst)(m))
        tp.post(Message(src=0, dst=1, mtype="t.local"), 1, 1e-3)
        sim.run()
        assert [m.mtype for m in inbox] == ["t.local"]
        assert tp.cross_sent == 0 and not tp._outbound

    def test_remote_post_buffers_for_barrier(self):
        sim, tp = self._shard()
        tp.attach(0, lambda m: None)
        tp.post(Message(src=0, dst=2, mtype="t.cross"), 2, 5e-3)
        tp.post(Message(src=0, dst=3, mtype="t.cross"), 3, 6e-3)
        assert tp.cross_sent == 2
        assert sim.pending == 0  # nothing scheduled locally
        out = tp.take_outbound(window_end=5e-3)
        assert [(dst, round(at, 6)) for at, _seq, _m, dst in out] == \
            [(2, 0.005), (3, 0.006)]
        assert tp.take_outbound(window_end=5e-3) == []  # drained

    def test_remote_routable_without_endpoint(self):
        _sim, tp = self._shard()
        assert tp.routable(2) and tp.routable(3)  # other shard's nodes
        assert not tp.routable(0)  # local but not attached yet
        assert not tp.routable(99)  # not part of the run at all
        assert tp.known(2) and not tp.known(99)

    def test_window_violation_raises(self):
        # a cross-shard message computed to arrive *inside* the sending
        # window breaks conservative synchronization — loudly
        sim, tp = self._shard(lookahead=5e-3)
        tp.attach(0, lambda m: None)
        tp.post(Message(src=0, dst=2, mtype="t.early"), 2, 1e-3)
        with pytest.raises(NetworkError, match="conservative-window"):
            tp.take_outbound(window_end=5e-3)

    def test_inject_merges_arrival(self):
        sim, tp = self._shard()
        inbox = []
        tp.attach(1, inbox.append)
        tp.set_delivery_hook(lambda m, dst: tp.endpoint(dst)(m))
        tp.inject(Message(src=2, dst=1, mtype="t.merged"), 1,
                  deliver_at=7e-3)
        sim.run()
        assert [m.mtype for m in inbox] == ["t.merged"]
        assert sim.now == pytest.approx(7e-3)
        assert tp.cross_received == 1
        stats = tp.stats()
        assert stats["backend"] == "sharded"
        assert stats["cross_sent"] == 0 and stats["cross_received"] == 1


class TestShardedEndToEnd:
    def test_small_sharded_run_is_deterministic(self):
        from repro.bench.scale import ScaleSpec, run_scale_sharded
        spec = ScaleSpec(n_nodes=8, shard_count=2, posts_per_node=10)
        first = run_scale_sharded(spec)
        second = run_scale_sharded(spec)
        assert first["digest"] == second["digest"]
        assert first["executed"] == first["raised"] == spec.total_posts
        assert first["cross_shard"] > 0
        assert first["per_node"] == second["per_node"]


class TestTransportContract:
    """Three proofs that the transport port holds its contract — the
    safety net under every deletion: the sim backend stays bit-identical
    to frozen reference digests, a sharded run matches an independently
    computed ground truth, and the reliable+durable stack runs end to
    end on real sockets."""

    #: same-seed reference digests frozen at the pre-port HEAD; the sim
    #: backend must stay bit-identical to these, on heap and wheel
    REFERENCE_DIGESTS = {
        "chaos": (
            "49b1db13dad533366ef6c9742bdcedde966064d7c3ca5fd14f750b1e637aa056",
            dict(seed=23, locator="cached", posts=40, drop_rate=0.1)),
        "durable": (
            "3327ab851341d539023b96a2a25ea58e6c91d3a28463f8c931d9190655cb11ba",
            dict(seed=31, posts=40, drop_rate=0.1, durable=True,
                 crash_period=0.8, down_time=0.5)),
        "fastpath": (
            "337c61956bfa83b586ada5d156a6e42a9e599bb428087e9cb02e8ab9680cb2b7",
            dict(seed=7, posts=50, drop_rate=0.05, duplicate_rate=0.05)),
        "chaos-wheel": (
            "49b1db13dad533366ef6c9742bdcedde966064d7c3ca5fd14f750b1e637aa056",
            dict(seed=23, locator="cached", posts=40, drop_rate=0.1,
                 config={"scheduler": "wheel"})),
    }

    @pytest.mark.parametrize("name", list(REFERENCE_DIGESTS))
    def test_sim_reproduces_frozen_digest(self, name):
        from repro.bench.chaos import ChaosSpec, run_chaos
        want, spec = self.REFERENCE_DIGESTS[name]
        report = run_chaos(ChaosSpec(**spec))
        assert report.digest == want, (
            f"sim transport broke bit-identity: {name} digest "
            f"{report.digest} != frozen reference {want}")
        assert not report.violations, (name, report.violations)

    def test_sharded_matches_independent_ground_truth(self):
        from repro.bench.scale import (
            ScaleSpec,
            _node_targets,
            _scenario_args,
            run_scale_sharded,
        )
        spec = ScaleSpec(n_nodes=16, shard_count=4, posts_per_node=50)
        first = run_scale_sharded(spec)
        assert first["digest"] == run_scale_sharded(spec)["digest"], \
            "sharded same-seed runs diverged"
        assert first["executed"] == first["raised"] == spec.total_posts, first
        # independent ground truth: the deterministic target schedule
        expected = Counter()
        args = _scenario_args(spec)
        for node in range(spec.n_nodes):
            for target in _node_targets(args, node, spec.n_nodes):
                expected[target] += 1
        merged = Counter({int(k): v for k, v in first["per_node"].items()})
        assert merged == expected, (
            f"sharded per-node deliveries diverge from the schedule: "
            f"{merged} != {expected}")

    def test_tcp_example_runs_reliable_and_durable(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(root / "examples" / "tcp_cluster.py")],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, (
            f"tcp example failed:\n{proc.stdout}\n{proc.stderr}")
        assert "0 outbox entries left pending" in proc.stdout, proc.stdout


# ----------------------------------------------------------------------
# wall-clock scheduler
# ----------------------------------------------------------------------

class TestRealtimeScheduler:
    def test_timers_fire_in_order(self):
        sched = RealtimeScheduler(poll=0.001)
        try:
            fired = []
            sched.call_after(0.02, fired.append, "late")
            sched.call_after(0.005, fired.append, "early")
            sched.call_soon(fired.append, "now")
            assert sched.pending == 3
            sched.run()
            assert fired == ["now", "early", "late"]
            assert sched.pending == 0
            assert sched.events_processed == 3
        finally:
            sched.close()

    def test_cancel(self):
        sched = RealtimeScheduler(poll=0.001)
        try:
            fired = []
            handle = sched.call_after(0.01, fired.append, "cancelled")
            sched.call_after(0.02, fired.append, "kept")
            handle.cancel()
            assert handle.cancelled
            handle.cancel()  # idempotent
            sched.run()
            assert fired == ["kept"]
        finally:
            sched.close()

    def test_run_until_is_a_wall_clock_slice(self):
        sched = RealtimeScheduler(poll=0.001)
        try:
            fired = []
            sched.call_after(0.01, fired.append, "inside")
            sched.call_after(10.0, fired.append, "far-future")
            sched.run(until=sched.now + 0.05)
            assert fired == ["inside"]
            assert sched.now >= 0.05
            assert sched.pending == 1  # far-future timer still live
        finally:
            sched.close()

    def test_callback_error_reraises_from_run(self):
        sched = RealtimeScheduler(poll=0.001)
        try:
            def boom():
                raise ValueError("kaboom")
            sched.call_soon(boom)
            with pytest.raises(ValueError, match="kaboom"):
                sched.run()
            # the stored error is consumed; the scheduler stays usable
            fired = []
            sched.call_soon(fired.append, "after")
            sched.run()
            assert fired == ["after"]
        finally:
            sched.close()

    def test_idle_hooks_hold_run_open(self):
        sched = RealtimeScheduler(poll=0.001)
        try:
            state = {"busy": True}
            sched.add_idle_hook(lambda: not state["busy"])
            sched.call_after(0.01, state.__setitem__, "busy", False)
            sched.run()  # returns only once the hook agrees
            assert not state["busy"]
        finally:
            sched.close()

    def test_closed_scheduler_rejects_work(self):
        sched = RealtimeScheduler()
        sched.close()
        sched.close()  # idempotent
        with pytest.raises(SimulationError):
            sched.call_soon(lambda: None)
        with pytest.raises(SimulationError):
            sched.run()

    def test_stats_surface(self):
        sched = RealtimeScheduler()
        try:
            data = sched.stats()
            assert data["backend"] == "realtime"
            assert data["pending"] == 0
            assert sched.compactions == 0
        finally:
            sched.close()


# ----------------------------------------------------------------------
# TCP loopback transport
# ----------------------------------------------------------------------

def _loopback(nodes=2):
    """A started bare tcp transport and one inbox list per node."""
    tp = AsyncioTransport()
    inboxes = {n: [] for n in range(nodes)}
    for n in range(nodes):
        tp.attach(n, inboxes[n].append)
    tp.set_delivery_hook(lambda m, dst: tp.endpoint(dst)(m))
    tp.start()
    return tp, inboxes


class TestAsyncioTransport:
    def test_frames_cross_real_sockets(self):
        tp, inboxes = _loopback()
        try:
            tp.post(Message(src=0, dst=1, mtype="t.wire", payload=[1, 2]),
                    1, 0.0)
            tp.post(Message(src=1, dst=0, mtype="t.back"), 0, 0.0)
            tp.scheduler.run()  # idle hook waits for in-flight frames
            assert [m.mtype for m in inboxes[1]] == ["t.wire"]
            assert inboxes[1][0].payload == [1, 2]
            assert [m.mtype for m in inboxes[0]] == ["t.back"]
            stats = tp.stats()
            assert stats["backend"] == "tcp"
            assert stats["frames_sent"] == stats["frames_received"] == 2
            assert stats["in_flight"] == 0
            assert stats["bytes_sent"] > 0
            assert len(tp.addresses) == 2
        finally:
            tp.close()

    def test_unencodable_payload_is_refused_at_the_sender(self):
        tp, inboxes = _loopback()
        try:
            tp.post(Message(src=0, dst=1, mtype="t.live",
                            payload={"fn": lambda: None}), 1, 0.0)
            tp.post(Message(src=0, dst=1, mtype="t.plain"), 1, 0.0)
            with pytest.raises(CodecError,
                               match=r"t\.live: .*builtins\.function"):
                tp.scheduler.run(until=tp.scheduler.now + 2.0)
            tp.scheduler.run()  # goes idle: the refused post was settled
            assert [m.mtype for m in inboxes[1]] == ["t.plain"]
            stats = tp.stats()
            assert stats["frames_sent"] == stats["frames_received"] == 1
            assert stats["frames_rejected"] == 0  # nothing left the node
            assert stats["in_flight"] == 0
        finally:
            tp.close()

    def test_unencodable_reliable_post_gives_up_and_drains(self):
        # the reliable channel retransmits what the wire keeps refusing,
        # then gives up: every attempt raises, none is left in flight
        cluster = Cluster(ClusterConfig(n_nodes=2, transport="tcp",
                                        reliable_delivery=True,
                                        retransmit_base=1e-3,
                                        max_retransmits=3,
                                        link_latency=1e-4,
                                        trace_net=False))
        try:
            gave_up = []
            cluster.transmit(Message(src=0, dst=1, mtype="t.live",
                                     payload=(object(),)),
                             on_give_up=gave_up.append)
            refused = 0
            deadline = cluster.now + 10.0
            while not gave_up and cluster.now < deadline:
                try:
                    cluster.run(until=cluster.now + 0.05)
                except CodecError as exc:
                    assert "t.live" in str(exc) and "object" in str(exc)
                    refused += 1
            assert gave_up and refused >= 2
            cluster.run()  # no deadline: returns only once drained
            assert cluster.transport_stats()["in_flight"] == 0
            assert cluster.transport_stats()["frames_rejected"] == 0
        finally:
            cluster.close()

    def test_post_to_closed_destination_is_swallowed(self):
        tp, inboxes = _loopback()
        try:
            tp._conns[1].close()
            tp.post(Message(src=0, dst=1, mtype="t.void"), 1, 0.0)
            tp.scheduler.run()
            assert inboxes[1] == []
            assert tp.stats()["in_flight"] == 0  # not leaked
        finally:
            tp.close()

    def test_close_is_idempotent(self):
        tp, _ = _loopback()
        tp.close()
        tp.close()

    def test_cluster_end_to_end_over_tcp(self):
        # A whole Cluster on the tcp backend: a cross-node event post
        # with the reliable channel on, over real loopback sockets.
        from repro.objects.base import DistObject, on_event

        class Sink(DistObject):
            def __init__(self):
                super().__init__()
                self.seen = 0

            @on_event("TCP_TEST")
            def on_ping(self, ctx, block):
                self.seen += 1
                yield ctx.compute(0)

        cluster = Cluster(ClusterConfig(n_nodes=2, transport="tcp",
                                        reliable_delivery=True,
                                        link_latency=1e-4,
                                        trace_net=False))
        try:
            cluster.register_event("TCP_TEST")
            cap = cluster.create_object(Sink, node=1)
            for _ in range(5):
                cluster.raise_event("TCP_TEST", cap, from_node=0)
            deadline = cluster.now + 10.0
            while (cluster.get_object(cap).seen < 5
                   and cluster.now < deadline):
                cluster.run(until=cluster.now + 0.1)
            assert cluster.get_object(cap).seen == 5
            assert cluster.transport_stats()["backend"] == "tcp"
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# the closed wire: every message of the stock stack is honest bytes
# ----------------------------------------------------------------------

class ForeignError(Exception):
    """Not in ``repro.errors``, not a builtin."""


def _tcp_cluster(**knobs):
    return Cluster(ClusterConfig(n_nodes=3, transport="tcp",
                                 reliable_delivery=True, link_latency=1e-3,
                                 trace_net=False, **knobs))


def _settle(cluster, *futures, budget=10.0):
    deadline = cluster.now + budget
    while not all(f.done for f in futures) and cluster.now < deadline:
        cluster.run(until=cluster.now + 0.05)
    assert all(f.done for f in futures)


class TestClosedWire:
    @pytest.mark.parametrize("locator",
                             ["path", "broadcast", "multicast", "cached"])
    def test_thread_raise_crosses_nodes_live_and_dead(self, locator):
        # the notice chases a thread two invocations deep; afterwards
        # the same raise at the finished thread is a §7.2 dead target
        from repro.errors import DeadThreadError
        from repro.objects.base import DistObject, entry

        class Holder(DistObject):
            @entry
            def hold(self, ctx, caps):
                def on_ping(hctx, block):
                    yield hctx.compute(0)
                    return ("pong", block.user_data, hctx.node)

                yield ctx.attach_handler("TCP_PING", on_ping)
                if caps:
                    return (yield ctx.invoke(caps[0], "hold", caps[1:]))
                yield ctx.sleep(0.3)
                return "held"

        cluster = _tcp_cluster(locator=locator)
        try:
            cluster.register_event("TCP_PING")
            caps = [cluster.create_object(Holder, node=n) for n in (1, 2)]
            thread = cluster.spawn(caps[0], "hold", caps[1:], at=1)
            cluster.run(until=cluster.now + 0.1)
            live = cluster.raise_and_wait("TCP_PING", thread.tid,
                                          from_node=0, user_data=7)
            _settle(cluster, live)
            assert live.result() == ("pong", 7, 2)
            _settle(cluster, thread.completion)
            assert thread.completion.result() == "held"
            dead = cluster.raise_and_wait("TCP_PING", thread.tid,
                                          from_node=0)
            _settle(cluster, dead)
            with pytest.raises(DeadThreadError):
                dead.result()
            assert cluster.transport_stats()["frames_rejected"] == 0
        finally:
            cluster.close()

    def test_handler_failure_crosses_as_the_error_shape(self):
        from repro.errors import RpcError
        from repro.objects.base import DistObject, on_event

        class Picky(DistObject):
            @on_event("TCP_PICK")
            def on_pick(self, ctx, block):
                yield ctx.compute(0)
                if block.user_data == "builtin":
                    raise ValueError("bad pick", 3)
                if block.user_data == "foreign":
                    raise ForeignError("who?")
                return "fine"

        cluster = _tcp_cluster()
        try:
            cluster.register_event("TCP_PICK")
            cap = cluster.create_object(Picky, node=1)
            fine, builtin, foreign = (
                cluster.raise_and_wait("TCP_PICK", cap, from_node=0,
                                       user_data=which)
                for which in ("fine", "builtin", "foreign"))
            _settle(cluster, fine, builtin, foreign)
            assert fine.result() == "fine"
            with pytest.raises(ValueError) as caught:
                builtin.result()
            assert caught.value.args == ("bad pick", 3)
            with pytest.raises(RpcError, match="ForeignError: who?"):
                foreign.result()
        finally:
            cluster.close()

    def test_remote_create_object_fails_the_creating_thread(self):
        # a class is not a codec value: the creator is told, run() is not
        from repro.objects.base import DistObject, entry

        class Factory(DistObject):
            @entry
            def build(self, ctx):
                local = yield ctx.create(Factory)
                try:
                    yield ctx.create(Factory, node=2)
                except CodecError as exc:
                    return (local.home, str(exc))

        cluster = _tcp_cluster()
        try:
            factory = cluster.create_object(Factory, node=1)
            thread = cluster.spawn(factory, "build", at=1)
            _settle(cluster, thread.completion)
            home, error = thread.completion.result()
            assert home == 1
            assert "rpc.request" in error and "Factory" in error
            cluster.run()
            assert cluster.transport_stats()["in_flight"] == 0
        finally:
            cluster.close()

    @staticmethod
    def _example_frames(monkeypatch, capsys):
        """Every frame of examples/tcp_cluster.py, captured at the
        encoder and decoded again."""
        import runpy
        bodies = []
        encode = tcp.codec.encode_message

        def recording(message):
            bodies.append(encode(message))
            return bodies[-1]

        monkeypatch.setattr(tcp.codec, "encode_message", recording)
        root = pathlib.Path(__file__).resolve().parent.parent
        runpy.run_path(str(root / "examples" / "tcp_cluster.py"),
                       run_name="__main__")
        assert "counter lives on node 2" in capsys.readouterr().out
        return [tcp.codec.decode_message(body) for body in bodies]

    def test_example_invocation_names_the_thread(self, monkeypatch, capsys):
        from repro.threads.ids import ThreadId
        decoded = self._example_frames(monkeypatch, capsys)
        requests = [m.payload for m in decoded
                    if m.mtype == "invoke.request"]
        assert requests, sorted({m.mtype for m in decoded})
        for payload in requests:
            assert sorted(payload) == ["caller_node", "entry", "hop",
                                       "oid", "tid"]
            assert type(payload.pop("tid")) is ThreadId
            assert payload.pop("entry") == "describe"
            assert all(type(v) is int for v in payload.values()), payload
        moved = {m.mtype: sorted(m.payload) for m in decoded
                 if m.mtype in ("invoke.reply", "thread.complete")}
        assert moved == {"thread.complete": ["hop", "tid"]}

    def test_example_store_acks_cross_as_batches(self, monkeypatch, capsys):
        decoded = self._example_frames(monkeypatch, capsys)
        batches = {(m.src, m.rel): m.payload for m in decoded
                   if m.mtype == "store.ack"}  # retransmits collapse
        assert all(sorted(payload) == ["acks"]
                   for payload in batches.values())
        acks = [ack for payload in batches.values()
                for ack in payload["acks"]]
        # 30 posts, ten from each origin, every one acked delivered
        assert {entry_id for entry_id, _ in acks} == {
            (origin, seq) for origin in range(3) for seq in range(1, 11)}
        assert {status for _, status in acks} == {"delivered"}
        assert len(batches) < 30


# ----------------------------------------------------------------------
# frames that cannot be delivered (ROADMAP 5d, first slice)
# ----------------------------------------------------------------------

def _frame(body: bytes, fmt: int = 0, dst: int = 1) -> bytes:
    payload = bytes([fmt, dst]) + body
    return struct.pack(">I", len(payload)) + payload


class TestRejectedFrames:
    def test_undecodable_own_frame_raises_and_settles_in_flight(
            self, monkeypatch):
        # a frame a node really posted, corrupted on the way out: the
        # payload's value tag becomes one no codec revision ever had
        encode = tcp.codec.encode_message

        def corrupting(message):
            body = bytearray(encode(message))
            if message.mtype == "t.bad":
                body[body.index(b"\x05\x03bad")] = 0xC8
            return bytes(body)

        monkeypatch.setattr(tcp.codec, "encode_message", corrupting)
        tp, inboxes = _loopback()
        try:
            tp.post(Message(src=0, dst=1, mtype="t.bad", payload="bad"),
                    1, 0.0)
            tp.post(Message(src=0, dst=1, mtype="t.good"), 1, 0.0)
            with pytest.raises(NetworkError, match="value tag 200"):
                tp.scheduler.run(until=tp.scheduler.now + 2.0)
            tp.scheduler.run()  # goes idle: nothing is left in flight
            assert [m.mtype for m in inboxes[1]] == ["t.good"]
            stats = tp.stats()
            assert stats["frames_rejected"] == 1
            assert stats["frames_received"] == 1
            assert stats["in_flight"] == 0
        finally:
            tp.close()

    def test_frame_too_long_to_send_raises_at_the_sender(self, monkeypatch):
        monkeypatch.setattr(tcp, "MAX_FRAME", 64)
        tp, inboxes = _loopback()
        try:
            tp.post(Message(src=0, dst=1, mtype="t.big",
                            payload=b"x" * 100), 1, 0.0)
            with pytest.raises(NetworkError, match="MAX_FRAME"):
                tp.scheduler.run(until=tp.scheduler.now + 2.0)
            tp.post(Message(src=0, dst=1, mtype="t.small"), 1, 0.0)
            tp.scheduler.run()
            assert [m.mtype for m in inboxes[1]] == ["t.small"]
            assert tp.stats()["frames_sent"] == 1
            assert tp.stats()["in_flight"] == 0
        finally:
            tp.close()


class TestHostileSockets:
    """A stranger dials a node's port on a live 2-node tcp cluster."""

    @pytest.fixture
    def cluster(self):
        from repro.objects.base import DistObject, on_event

        class Sink(DistObject):
            def __init__(self):
                super().__init__()
                self.seen = 0

            @on_event("TCP_TEST")
            def on_ping(self, ctx, block):
                self.seen += 1
                yield ctx.compute(0)

        cluster = Cluster(ClusterConfig(n_nodes=2, transport="tcp",
                                        reliable_delivery=True,
                                        link_latency=1e-4,
                                        trace_net=False))
        cluster.register_event("TCP_TEST")
        cluster.sink_cap = cluster.create_object(Sink, node=1)
        yield cluster
        cluster.close()

    def _attack(self, cluster, data: bytes, then_close: bool = False):
        stranger = socket.create_connection(cluster.transport.addresses[1])
        stranger.sendall(data)
        if then_close:
            stranger.close()
        return stranger

    def _still_works(self, cluster):
        """Honest traffic flows and the cluster goes idle afterwards."""
        before = cluster.get_object(cluster.sink_cap).seen
        for _ in range(3):
            cluster.raise_event("TCP_TEST", cluster.sink_cap, from_node=0)
        deadline = cluster.now + 10.0
        while (cluster.get_object(cluster.sink_cap).seen < before + 3
               and cluster.now < deadline):
            cluster.run(until=cluster.now + 0.05)
        assert cluster.get_object(cluster.sink_cap).seen == before + 3
        cluster.run()  # no deadline: returns only if in_flight settles
        assert cluster.transport_stats()["in_flight"] == 0

    def test_bad_version_byte(self, cluster):
        stranger = self._attack(cluster, _frame(b"\x63\x00\x00\x02\x01\x00"))
        try:
            with pytest.raises(CodecError, match="version"):
                cluster.run(until=cluster.now + 2.0)
            assert cluster.transport_stats()["frames_rejected"] == 1
            self._still_works(cluster)
        finally:
            stranger.close()

    def test_bad_format_byte(self, cluster):
        frames = [
            (9, b"whatever"),
            # the two retired formats (a whole-message serializer's
            # bytes; a token into an in-process table): never read
            (1, b"\x80\x04whatever."),
            (2, b"1"),
        ]
        for rejected, (fmt, body) in enumerate(frames, start=1):
            stranger = self._attack(cluster, _frame(body, fmt=fmt))
            try:
                with pytest.raises(NetworkError,
                                   match=f"frame format {fmt}"):
                    cluster.run(until=cluster.now + 2.0)
                assert (cluster.transport_stats()["frames_rejected"]
                        == rejected)
                self._still_works(cluster)
            finally:
                stranger.close()

    def test_oversize_length_prefix_is_not_buffered_for(self, cluster):
        stranger = self._attack(cluster, b"\xff\xff\xff\xf0" + b"junk" * 8)
        try:
            with pytest.raises(NetworkError, match="MAX_FRAME"):
                cluster.run(until=cluster.now + 2.0)
            assert cluster.transport_stats()["frames_rejected"] == 1
            # the stream cannot be re-synchronised: the node hung up
            stranger.settimeout(2.0)
            assert stranger.recv(16) == b""
            self._still_works(cluster)
        finally:
            stranger.close()

    def test_half_a_frame_then_close(self, cluster):
        self._attack(cluster, _frame(b"x" * 100)[:20], then_close=True)
        cluster.run(until=cluster.now + 0.1)  # nothing to raise
        assert cluster.transport_stats()["frames_rejected"] == 1
        self._still_works(cluster)

    def test_garbage_between_honest_frames_of_one_recv(self, cluster):
        # a good frame shape around a body that does not decode, then a
        # second bad frame in the same segment: both rejected, in order
        stranger = self._attack(
            cluster, _frame(b"\x01\xff") + _frame(b"", fmt=2))
        try:
            with pytest.raises(NetworkError):
                cluster.run(until=cluster.now + 2.0)
            with pytest.raises(NetworkError):
                cluster.run(until=cluster.now + 2.0)
            assert cluster.transport_stats()["frames_rejected"] == 2
            self._still_works(cluster)
        finally:
            stranger.close()


# ----------------------------------------------------------------------
# degraded-post dedup memory, sized by dedup_window
# ----------------------------------------------------------------------

class _FakeBlock:
    def __init__(self, block_id):
        self.block_id = block_id


class TestDegradeDedupWindow:
    def test_undersized_window_readmits_late_duplicate(self):
        # The sizing hazard: with only 2 slots of receiver memory, two
        # fresh posts evict a block id and a late fabric duplicate of it
        # is re-admitted as a fresh post.
        cluster = make_cluster(n_nodes=2, dedup_window=2)
        post = cluster.events.post
        assert post._accept_degraded(1, _FakeBlock("a"))
        assert not post._accept_degraded(1, _FakeBlock("a"))  # prompt dup
        assert post._accept_degraded(1, _FakeBlock("b"))
        assert post._accept_degraded(1, _FakeBlock("c"))  # evicts "a"
        assert post._accept_degraded(1, _FakeBlock("a"))  # re-admitted!

    def test_sized_window_rejects_late_duplicate(self):
        cluster = make_cluster(n_nodes=2, dedup_window=10)
        post = cluster.events.post
        assert post._accept_degraded(1, _FakeBlock("a"))
        assert post._accept_degraded(1, _FakeBlock("b"))
        assert post._accept_degraded(1, _FakeBlock("c"))
        assert not post._accept_degraded(1, _FakeBlock("a"))  # remembered

    def test_window_is_per_node(self):
        cluster = make_cluster(n_nodes=3, dedup_window=4)
        post = cluster.events.post
        assert post._accept_degraded(1, _FakeBlock("a"))
        # the same block id arriving at another node is that node's
        # first sighting — dedup memory is per receiver
        assert post._accept_degraded(2, _FakeBlock("a"))
