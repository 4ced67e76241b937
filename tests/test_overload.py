"""Tests for overload control: credit-based flow control, the admission
gate and its shedding policies, the open-loop workload generator, the
failure-detector-gated outbox flush — and the knobs-off guarantee that
none of it perturbs existing runs."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster, DistObject, on_event
from repro.bench import chaos
from repro.bench.scenario import run_scenario
from repro.bench.workloads import (
    FANOUT,
    WorkloadSpec,
    build_schedule,
    rate_at,
    summarize,
    zipf_weights,
)
from repro.errors import BenchmarkError, KernelError, OverloadShedError
from repro.events.admission import AdmissionGate
from repro.kernel.config import ClusterConfig
from tests.conftest import make_cluster

EVT = "EVT"


class SlowSink(DistObject):
    """Service object with a fixed per-post compute cost."""

    def __init__(self, service=5e-3):
        super().__init__()
        self.service = service
        self.seen = 0

    @on_event(EVT)
    def on_evt(self, ctx, block):
        yield ctx.compute(self.service)
        self.seen += 1
        return None


def _rig(**cfg):
    cfg.setdefault("n_nodes", 2)
    cfg.setdefault("reliable_delivery", True)
    cluster = make_cluster(**cfg)
    cluster.register_event(EVT)
    return cluster


def _notices(cluster):
    """Install an undeliverable hook collecting noticed post ids."""
    seen = set()

    def hook(block, target):
        if isinstance(block.user_data, int):
            seen.add(block.user_data)

    cluster.events.on_undeliverable = hook
    return seen


# ======================================================================
# config validation
# ======================================================================

class TestConfigValidation:
    def test_flow_credits_must_be_positive(self):
        with pytest.raises(KernelError):
            ClusterConfig(flow_credits=0)

    def test_admission_low_requires_high(self):
        with pytest.raises(KernelError):
            ClusterConfig(admission_low=4)

    def test_admission_low_cannot_exceed_high(self):
        with pytest.raises(KernelError):
            ClusterConfig(admission_high=4, admission_low=5)

    def test_admission_low_defaults_to_half_high(self):
        cluster = _rig(admission_high=10)
        assert cluster.events.admission[0].low == 5

    def test_replace_rederives_admission_low(self):
        # the derived default is not written back into the field, so a
        # lower high watermark does not trip over a stale low one
        config = replace(ClusterConfig(admission_high=10), admission_high=2)
        assert config.admission_low is None
        cluster = Cluster(config)
        assert cluster.events.admission[0].low == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(KernelError):
            ClusterConfig(overload_policy="bogus")

    def test_tenant_weights_must_be_positive(self):
        with pytest.raises(KernelError):
            ClusterConfig(tenant_weights={0: -1.0})


# ======================================================================
# admission gate (pure state machine)
# ======================================================================

class TestAdmissionGate:
    def test_watermark_hysteresis(self):
        gate = AdmissionGate(0, high=4, low=2)
        for _ in range(4):
            assert gate.admit(0)
            gate.charge(0)
        # Depth 4: admitting one more would cross high -> shedding.
        assert not gate.admit(0)
        assert gate.shedding and gate.shed_windows == 1
        gate.release(0)  # depth 3 > low: still shedding
        assert not gate.admit(0)
        gate.release(0)  # depth 2 <= low: hysteresis clears
        assert not gate.shedding
        assert gate.admit(0)

    def test_weighted_fair_shares(self):
        gate = AdmissionGate(0, high=8, low=4, weights={0: 3.0, 1: 1.0})
        assert gate.tenant_share(0) == 3
        assert gate.tenant_share(1) == 1
        assert gate.tenant_share(2) == 0  # unweighted: shed while over
        for _ in range(8):
            gate.charge(0)
        assert not gate.admit(0)  # hot tenant far over its share
        assert gate.admit(1)      # light tenant under its share
        assert not gate.admit(2)

    def test_stats_shape(self):
        gate = AdmissionGate(0, high=2, low=1)
        gate.charge(0, 2)
        stats = gate.stats()
        assert stats["admitted"] == 2
        assert stats["depth"] == 2 and stats["depth_hwm"] == 2


# ======================================================================
# credit-based flow control
# ======================================================================

class TestFlowControl:
    def test_window_parks_excess_and_drains(self):
        cluster = _rig(flow_credits=2)
        cap = cluster.create_object(SlowSink, 1e-4, node=1)
        for pid in range(12):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        cluster.run()
        assert cluster.get_object(cap).seen == 12
        rel = cluster.reliability_stats()
        assert rel["flow_parked"] > 0
        assert rel["inflight_hwm"] <= 2
        peer = cluster.kernels[0].reliable.peer_stats()[1]
        assert peer["inflight"] == 0 and peer["parked"] == 0
        assert peer["window"] == 2

    def test_aimd_halves_on_timeout_and_recovers(self):
        cluster = _rig(flow_credits=8, max_retransmits=20)
        cap = cluster.create_object(SlowSink, 1e-4, node=1)
        cluster.fabric.faults.drop_rate = 1.0
        for pid in range(8):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        cluster.run(until=cluster.now + 0.5)
        rel = cluster.reliability_stats()
        assert rel["flow_halvings"] > 0
        assert cluster.kernels[0].reliable.peer_stats()[1]["window"] == 1
        cluster.fabric.faults.drop_rate = 0.0
        for pid in range(8, 28):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        cluster.run()
        assert cluster.get_object(cap).seen == 28
        # Additive recovery: productive acks grew the window back up.
        window = cluster.kernels[0].reliable.peer_stats()[1]["window"]
        assert 1 < window <= 8

    def test_no_flow_keys_when_off(self):
        cluster = _rig()
        cap = cluster.create_object(SlowSink, 1e-4, node=1)
        cluster.events.raise_external(EVT, cap, from_node=0, user_data=0)
        cluster.run()
        rel = cluster.reliability_stats()
        for key in ("flow_parked", "flow_halvings", "flow_queued",
                    "inflight_hwm"):
            assert key not in rel


# ======================================================================
# shedding policies
# ======================================================================

class TestSheddingPolicies:
    def test_drop_sheds_with_notices(self):
        cluster = _rig(admission_high=4, overload_policy="drop")
        noticed = _notices(cluster)
        cap = cluster.create_object(SlowSink, 5e-3, node=1)
        for pid in range(20):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        cluster.run()
        sink = cluster.get_object(cap)
        # Every post accounted: executed or shed-with-notice.
        assert sink.seen + len(noticed) == 20
        assert len(noticed) > 0
        sup = cluster.metrics()
        assert sup["events.admission.shed_dropped"] == len(noticed)
        assert sup["events.admission.depth"] == 0  # all charges released
        assert sup["events.admission.shed_windows"] >= 1

    def test_sync_raiser_gets_overload_error(self):
        cluster = _rig(admission_high=2, overload_policy="drop")
        cap = cluster.create_object(SlowSink, 5e-3, node=1)
        for pid in range(6):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        future = cluster.events.raise_external(EVT, cap, from_node=0,
                                               synchronous=True)
        cluster.run()
        assert future.failed
        with pytest.raises(OverloadShedError):
            future.result()

    def test_degrade_executes_exactly_once_despite_duplicates(self):
        cluster = _rig(admission_high=4, overload_policy="degrade")
        cluster.fabric.faults.duplicate_rate = 0.5
        noticed = _notices(cluster)
        cap = cluster.create_object(SlowSink, 5e-3, node=1)
        for pid in range(20):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        cluster.run()
        # Degraded datagrams all arrive (no drops): dedup keeps each
        # post exactly-once and nobody needs a notice.
        assert cluster.get_object(cap).seen == 20
        assert not noticed
        assert cluster.metrics()["events.admission.shed_degraded"] > 0

    def test_degraded_post_on_a_real_wire_is_confirmed_not_noticed(
            self, serializing_wire):
        """On tcp and sharded the home node executes a decoded copy, so
        only a message can tell the origin: each executed degraded post
        is confirmed by one degrade.done, concluded once, never noticed."""
        cluster = _rig(admission_high=2, overload_policy="degrade",
                       post_deadline=0.5)
        noticed = _notices(cluster)
        cap = cluster.create_object(SlowSink, 5e-3, node=1)
        for pid in range(12):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        cluster.run()
        sup = cluster.metrics()
        assert sup["events.admission.shed_degraded"] > 0
        assert cluster.get_object(cap).seen == 12
        assert not noticed
        assert sup["events.supervise.degrade_unconfirmed"] == 0
        assert sup["events.admission.depth"] == 0  # every charge went back
        assert (cluster.message_stats()["type:degrade.done"]
                == sup["events.admission.shed_degraded"])
        # each post concluded once, as executed
        assert (sup["events.settle.executed"], sup["events.settle.noticed"],
                sup["events.settle.open"]) == (12, 0, 0)

    @pytest.mark.parametrize("wire", ["shared", "serializing"])
    def test_lost_confirmation_is_noticed_as_unconfirmed(self, wire,
                                                         request):
        """A degrade.done lost after execution: the post ran once and is
        noticed as unconfirmed — the one outcome fire-and-forget cannot
        rule out — on shared objects and on decoded copies alike."""
        if wire == "serializing":
            request.getfixturevalue("serializing_wire")
        cluster = _rig(admission_high=2, overload_policy="degrade",
                       post_deadline=0.5)
        faults = cluster.fabric.faults
        copies = faults.copies
        faults.copies = lambda message: (
            0 if message.mtype == "degrade.done" else copies(message))
        errors = []
        cluster.events.on_undeliverable = (
            lambda block, target: errors.append(block.user_data))
        cap = cluster.create_object(SlowSink, 5e-3, node=1)
        futures = [cluster.events.raise_external(
            EVT, cap, from_node=0, user_data=pid, synchronous=pid == 5)
            for pid in range(8)]
        cluster.run()
        sup = cluster.metrics()
        degraded = sup["events.admission.shed_degraded"]
        assert degraded > 0
        assert cluster.get_object(cap).seen == 8  # every post ran once
        assert (len(errors) == sup["events.supervise.degrade_unconfirmed"]
                == degraded)
        assert sup["events.admission.depth"] == 0  # released by the notice
        sync = futures[5]
        assert sync.done and not sync.failed  # resumed by the handler

    def test_degraded_copy_lost_in_a_crash_is_noticed_once(self):
        """The home node crashes with degraded copies queued: the origin's
        deadline notices each of them, and nothing notices one twice."""
        cluster = _rig(admission_high=2, overload_policy="degrade",
                       post_deadline=0.5)
        told = []
        cluster.events.on_undeliverable = (
            lambda block, target: told.append(block.user_data))
        cap = cluster.create_object(SlowSink, 50e-3, node=1)
        for pid in range(8):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        cluster.run(until=0.06)  # one executed, one mid-run, six queued
        cluster.crash_node(1)
        cluster.recover_node(1)
        cluster.run()
        sup = cluster.metrics()
        degraded = sup["events.admission.shed_degraded"]
        assert degraded > 0
        assert cluster.get_object(cap).seen == 1
        assert sorted(told) == list(range(1, 8))  # each once
        assert sup["events.supervise.degrade_unconfirmed"] == degraded
        assert sup["events.admission.depth"] == 0
        assert (sup["events.settle.executed"], sup["events.settle.noticed"],
                sup["events.settle.open"]) == (1, 7, 0)

    def test_post_deadline_fires_for_shed_posts(self):
        # Total loss: admitted posts retransmit against the void with a
        # generous budget; *degraded* posts have no retransmission, so
        # only the post_deadline backstop can surface their loss.
        cluster = _rig(admission_high=2, overload_policy="degrade",
                       post_deadline=0.5, max_retransmits=4,
                       retransmit_base=0.2)
        cluster.fabric.faults.drop_rate = 1.0
        noticed = _notices(cluster)
        cap = cluster.create_object(SlowSink, 5e-3, node=1)
        t0 = cluster.now
        for pid in range(8):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        # Just past the deadline every degraded post is noticed, while
        # the admitted ones are still mid-retransmission.
        cluster.run(until=t0 + 0.6)
        assert cluster.get_object(cap).seen == 0
        assert len(noticed) >= 6
        cluster.run(until=t0 + 30.0)
        assert len(noticed) == 8  # give-ups surface the rest

    def test_defer_redelivers_durable_posts(self):
        cluster = _rig(admission_high=4, overload_policy="defer",
                       durable_delivery=True)
        noticed = _notices(cluster)
        cap = cluster.create_object(SlowSink, 5e-3, node=1)
        for pid in range(30):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        cluster.run()
        assert cluster.get_object(cap).seen == 30
        assert not noticed
        store = cluster.durability_stats()
        assert store["pending"] == 0
        assert store["deferred"] > 0
        assert store["redelivered"] >= store["deferred"]
        assert cluster.metrics()["events.admission.shed_deferred"] > 0

    def test_crash_returns_the_charge_of_queued_posts(self):
        """Posts queued behind a slow handler on a node that crashes
        conclude (noticed) and hand their admission charge back; the
        gate must not stay half full with nothing in flight."""
        cluster = _rig(admission_high=8)
        noticed = _notices(cluster)
        cap = cluster.create_object(SlowSink, 50e-3, node=1)
        for pid in range(6):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        cluster.run(until=0.06)  # one executed, one mid-run, four queued
        cluster.crash_node(1)
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 5.0)
        sink = cluster.get_object(cap)
        assert sink.seen == 1 and noticed == {1, 2, 3, 4, 5}
        assert cluster.metrics()["events.admission.depth"] == 0
        for pid in range(10, 20):  # paced: two or three in flight
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
            cluster.run(until=cluster.now + 0.02)
        cluster.run()
        assert sink.seen == 11  # none of the ten was shed
        assert noticed == {1, 2, 3, 4, 5}

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16),
           policy=st.sampled_from(["drop", "degrade", "defer"]))
    def test_durable_posts_never_lost(self, seed, policy):
        """Whatever the policy, a durable post is deferred, never shed:
        journal accounting balances and every post executes."""
        cluster = _rig(seed=seed, admission_high=3, flow_credits=4,
                       overload_policy=policy, durable_delivery=True)
        noticed = _notices(cluster)
        cap = cluster.create_object(SlowSink, 5e-3, node=1)
        for pid in range(24):
            cluster.events.raise_external(EVT, cap, from_node=0,
                                          user_data=pid)
        cluster.run()
        assert cluster.get_object(cap).seen == 24
        assert not noticed
        store = cluster.durability_stats()
        assert store["pending"] == 0
        assert store["recorded"] == 24
        assert (store["delivered"] + store.get("quarantined", 0)
                == store["recorded"])


# ======================================================================
# failure-detector-gated outbox flush
# ======================================================================

class TestFlushGating:
    def test_flush_skips_suspected_peer(self):
        cluster = _rig(n_nodes=3, durable_delivery=True,
                       swim_interval=0.05,
                       outbox_flush_interval=0.1, max_retransmits=2,
                       retransmit_base=0.02)
        cap = cluster.create_object(SlowSink, 1e-4, node=1)
        cluster.run(until=cluster.now + 0.3)  # detector warms up
        cluster.crash_node(1)
        cluster.events.raise_external(EVT, cap, from_node=0, user_data=0)
        cluster.run(until=cluster.now + 2.0)
        # The send gave up, the entry parked, and the flush timer held
        # back instead of burning retransmits against a suspected node.
        store = cluster.durability_stats()
        assert store["pending"] == 1
        assert store["flush_skips"] > 0
        assert cluster.kernels[0].membership.is_failed(1)
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 2.0)
        assert cluster.get_object(cap).seen == 1
        assert cluster.durability_stats()["pending"] == 0


# ======================================================================
# open-loop workload generator
# ======================================================================

class TestWorkloadGenerator:
    def test_same_seed_same_schedule(self):
        spec = WorkloadSpec(seed=3, duration=2.0, rate=500.0)
        assert build_schedule(spec) == build_schedule(spec)
        other = build_schedule(replace(spec, seed=4))
        assert other != build_schedule(spec)

    def test_mean_rate_matches_spec(self):
        for arrival in ("poisson", "bursty", "uniform"):
            spec = WorkloadSpec(seed=1, duration=20.0, rate=400.0,
                                arrival=arrival, diurnal_depth=0.5)
            schedule = build_schedule(spec)
            observed = len(schedule) / spec.duration
            assert abs(observed - spec.rate) / spec.rate < 0.07, \
                (arrival, observed)

    def test_modulation_preserves_mean_rate(self):
        spec = WorkloadSpec(duration=10.0, rate=300.0, arrival="bursty",
                            burst_factor=6.0, diurnal_depth=0.8)
        steps = 4000
        dt = spec.duration / steps
        integral = sum(rate_at(spec, (i + 0.5) * dt) * dt
                       for i in range(steps))
        assert abs(integral - spec.rate * spec.duration) \
            / (spec.rate * spec.duration) < 0.01

    def test_zipf_popularity_skews_hot_target(self):
        spec = WorkloadSpec(seed=7, duration=10.0, rate=500.0,
                            n_targets=8, zipf_s=1.2)
        stats = summarize(build_schedule(spec), spec.duration)
        # Uniform would give ~1/8 = 0.125; Zipf(1.2) concentrates.
        assert stats["hot_target_share"] > 0.3
        flat = summarize(build_schedule(replace(spec, zipf_s=0.0)),
                         spec.duration)
        assert flat["hot_target_share"] < 0.2

    def test_fanout_every_marks_storms(self):
        spec = WorkloadSpec(seed=5, duration=2.0, rate=200.0,
                            fanout_every=5)
        schedule = build_schedule(spec)
        for index, arrival in enumerate(schedule):
            assert (arrival.target == FANOUT) == ((index + 1) % 5 == 0)

    def test_tenant_rates_split_load(self):
        spec = WorkloadSpec(seed=2, duration=10.0, rate=400.0,
                            tenants=(0, 1), tenant_rates=(3.0, 1.0))
        stats = summarize(build_schedule(spec), spec.duration)
        counts = stats["tenant_counts"]
        assert counts[0] / (counts[0] + counts[1]) == pytest.approx(
            0.75, abs=0.05)

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            WorkloadSpec(arrival="nope")
        with pytest.raises(BenchmarkError):
            WorkloadSpec(rate=0.0)
        with pytest.raises(BenchmarkError):
            WorkloadSpec(tenants=(0, 1), tenant_rates=(1.0,))

    def test_zipf_weights_monotone(self):
        weights = zipf_weights(6, 1.1)
        assert weights == sorted(weights, reverse=True)


# ======================================================================
# chaos at 2x overload
# ======================================================================

class TestChaosOverload:
    def test_knobs_off_digest_unchanged(self):
        base = chaos.scenario(posts=40, settle=5.0)
        explicit = chaos.scenario(posts=40, settle=5.0, interval=0.02 / 1.0,
                                  config={"overload_policy": "drop"})
        assert run_scenario(base).digest == run_scenario(explicit).digest

    def test_overload_with_crashes_keeps_invariants(self):
        # twice the offered rate: the same posts in half the time
        report = run_scenario(chaos.scenario(
            posts=80, interval=0.02 / 2.0,
            config=dict(admission_high=8, flow_credits=8,
                        overload_policy="drop"),
            crash_period=0.3, settle=10.0))
        assert report.violations == []
        assert report.accounted_rate == 1.0
        # Crash-window queue buildup actually tripped the gate.
        assert report.metrics["events.admission.shed_dropped"] > 0

    def test_durable_overload_with_crashes_loses_nothing(self):
        report = run_scenario(chaos.scenario(
            posts=80, interval=0.02 / 2.0, durable=True,
            config=dict(admission_high=8, flow_credits=8,
                        overload_policy="defer"),
            crash_period=0.3, settle=10.0))
        assert report.violations == []
        assert report.executed_once == 80
        assert report.durability["pending"] == 0

    def test_overload_run_deterministic(self):
        spec = chaos.scenario(posts=50, interval=0.02 / 2.0,
                              config=dict(admission_high=8, flow_credits=4,
                                          overload_policy="drop"),
                              settle=8.0)
        assert run_scenario(spec).digest == run_scenario(spec).digest


# ======================================================================
# stats surfacing
# ======================================================================

class TestStatsSurfacing:
    def test_admission_counters_always_in_metrics(self):
        cluster = _rig()
        sup = cluster.metrics()
        for key in ("admitted", "shed_dropped", "shed_degraded",
                    "shed_deferred", "depth", "depth_hwm", "shed_windows"):
            assert "events.admission." + key in sup

    def test_outbox_stats_keys_gated_on_nonzero(self):
        cluster = _rig(durable_delivery=True)
        cap = cluster.create_object(SlowSink, 1e-4, node=1)
        cluster.events.raise_external(EVT, cap, from_node=0, user_data=0)
        cluster.run()
        store = cluster.durability_stats()
        for key in ("parked", "deferred", "flush_skips"):
            assert key not in store
