"""Chaos-harness tests: delivery guarantees across all four locators
under seeded drops, duplicates, partitions and crash/recover cycles."""

from dataclasses import replace

import pytest

from repro import ClusterConfig
from repro.bench.chaos import ChaosSpec, run_chaos

LOCATORS = ["path", "broadcast", "multicast", "cached"]


@pytest.mark.parametrize("locator", LOCATORS)
class TestChaosInvariants:
    def test_drop_and_duplicate_sweep(self, locator):
        """Exactly-once execution and zero lost-or-hung posts at every
        swept fault rate, with crashes disabled (pure network chaos)."""
        for drop, dup in [(0.05, 0.0), (0.1, 0.1), (0.2, 0.05)]:
            spec = ChaosSpec(seed=5, locator=locator, posts=40,
                             drop_rate=drop, duplicate_rate=dup,
                             crash_period=None, settle=15.0)
            report = run_chaos(spec)
            assert not report.violations, report.violations[:3]
            # no crashes -> retransmission recovers everything
            assert report.success_rate == 1.0, \
                (locator, drop, dup, sorted(report.notices))
            assert report.accounted_rate == 1.0

    def test_crashes_surface_dead_target_notices(self, locator):
        """With periodic crash/recover, posts that lose their target get
        a §7.2 notice — never silence, never a duplicate execution."""
        spec = ChaosSpec(seed=9, locator=locator, posts=60, drop_rate=0.1,
                         duplicate_rate=0.05, crash_period=0.6,
                         down_time=0.4)
        report = run_chaos(spec)
        assert not report.violations, report.violations[:3]
        assert report.crashes, "schedule must include crashes"
        assert report.notices, "crash windows must produce notices"
        assert report.accounted_rate == 1.0
        # handlers never ran twice for any post
        assert all(n <= 1 for n in report.executions.values())

    def test_partitions_heal_and_converge(self, locator):
        spec = ChaosSpec(seed=13, locator=locator, posts=40, drop_rate=0.05,
                         duplicate_rate=0.0, crash_period=None,
                         partition_period=0.3, partition_length=0.15)
        report = run_chaos(spec)
        assert not report.violations, report.violations[:3]
        assert report.partitions, "schedule must include partitions"
        # convergence: every post-heal probe executed exactly once
        assert all(n == 1 for n in report.probe_executions.values())


class TestDurableChaos:
    """Durable mode: journaled posts to persistent objects must never be
    lost — exactly-once execution with no notice escape hatch, and the
    outbox fully drained by the end of the run (ISSUE acceptance point:
    drop=0.1 with periodic crash/recover)."""

    def test_zero_journaled_posts_lost_across_crashes(self):
        spec = ChaosSpec(seed=3, durable=True, posts=120, drop_rate=0.1,
                         crash_period=0.8, down_time=0.5)
        report = run_chaos(spec)
        assert not report.violations, report.violations[:3]
        assert report.crashes, "schedule must include crashes"
        assert report.executed_once == spec.posts
        assert not report.notices, "durable posts must not degrade to notices"
        assert report.durability["pending"] == 0
        # crashes force real redelivery work, not a lucky clean run
        assert report.durability["redelivered"] > 0
        assert report.durability["recoveries"] > 0

    def test_durable_invariants_across_seeds(self):
        for seed in range(4):
            spec = ChaosSpec(seed=seed, durable=True, posts=80,
                             drop_rate=0.1, crash_period=0.6, down_time=0.4)
            report = run_chaos(spec)
            assert not report.violations, (seed, report.violations[:3])
            assert report.executed_once == spec.posts, seed

    def test_durable_run_is_deterministic(self):
        spec = ChaosSpec(seed=17, durable=True, posts=60, drop_rate=0.15,
                         crash_period=0.6, down_time=0.4,
                         config={"checkpoint_interval": 16})
        first, second = run_chaos(spec), run_chaos(spec)
        assert first.digest == second.digest
        assert first.durability == second.durability
        assert first.recoveries == second.recoveries

    def test_fault_free_durable_overhead_bounded(self):
        """Without faults the journal costs at most two appends per
        fabric message (it is three appends per remote post against
        four-plus messages)."""
        spec = ChaosSpec(seed=4, durable=True, posts=40, drop_rate=0.0,
                         duplicate_rate=0.0, crash_period=None)
        report = run_chaos(spec)
        assert not report.violations
        assert report.durability["redelivered"] == 0
        assert report.durability["appends"] <= \
            2 * report.message_stats["sent"]


class TestDeterminism:
    def test_same_seed_same_digest(self):
        spec = ChaosSpec(seed=21, locator="cached", posts=50, drop_rate=0.1,
                         duplicate_rate=0.1, partition_period=1.3)
        first = run_chaos(spec)
        second = run_chaos(spec)
        assert first.digest == second.digest
        assert first.executions == second.executions
        assert first.notices == second.notices
        assert first.reliability == second.reliability
        assert first.message_stats == second.message_stats

    def test_different_seed_different_outcome(self):
        a = run_chaos(ChaosSpec(seed=1, posts=40, drop_rate=0.15))
        b = run_chaos(ChaosSpec(seed=2, posts=40, drop_rate=0.15))
        assert a.digest != b.digest


class TestChaosWithAckCoalescing:
    """Cumulative acks and group commit change envelope and commit
    counts, never delivery semantics — the chaos invariants hold on top
    of them, with acks coalesced or sent per arrival."""

    BASE = ChaosSpec(seed=13, posts=60, drop_rate=0.1, duplicate_rate=0.05,
                     crash_period=0.6, down_time=0.4, settle=10.0)

    def test_chaos_invariants_with_acks_coalesced(self):
        report = run_chaos(self.BASE)
        assert report.violations == []
        assert report.accounted_rate == 1.0

    def test_durable_chaos_invariants_both_ways(self):
        base = replace(self.BASE, durable=True, posts=40)
        for ack_delay in (ClusterConfig.ack_delay, 0.0):
            report = run_chaos(replace(base, config={
                "checkpoint_interval": 16, "ack_delay": ack_delay}))
            assert report.violations == [], (ack_delay,
                                             report.violations[:3])
            assert report.durability["pending"] == 0

    def test_same_seed_determinism_with_acks_coalesced(self):
        spec = replace(self.BASE, posts=40)
        assert run_chaos(spec).digest == run_chaos(spec).digest


class TestOneConclusionPerPost:
    """The standing invariant, counted at the settle stage's funnel:
    every raised block concludes exactly once, with one outcome."""

    BASE = dict(posts=60, drop_rate=0.1, duplicate_rate=0.05,
                crash_period=0.6, down_time=0.4, settle=10.0)
    SPECS = {
        "default": ChaosSpec(seed=9, **BASE),
        "durable": ChaosSpec(seed=3, durable=True, **BASE),
        "supervised": ChaosSpec(
            seed=13, handler_faults={"hang": 0.06, "raise": 0.06,
                                     "poison": 0.05},
            config=dict(handler_deadline=0.05, handler_retries=2,
                        breaker_threshold=3, poison_threshold=3,
                        swim_interval=0.02), **BASE),
        "overload": ChaosSpec(
            seed=0, overload=2.0,
            config=dict(admission_high=8, flow_credits=8,
                        overload_policy="drop"),
            **{**BASE, "crash_period": 0.3}),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_every_raised_block_concludes_once(self, name, conclusions):
        report = run_chaos(self.SPECS[name])
        assert report.violations == []
        assert len(conclusions.raised) >= self.SPECS[name].posts
        conclusions.check()


class TestReportShape:
    def test_report_metrics(self):
        report = run_chaos(ChaosSpec(seed=4, posts=30, drop_rate=0.1,
                                     duplicate_rate=0.1))
        assert 0.0 <= report.success_rate <= 1.0
        assert report.retransmits_per_post > 0
        assert report.p99_latency > 0
        assert report.reliability["duplicates_suppressed"] > 0
        breakdown = report.fault_breakdown
        assert breakdown["dropped"], "drops must be classified by type"
        assert all(isinstance(k, str) for k in breakdown["dropped"])

    def test_no_faults_is_clean(self):
        report = run_chaos(ChaosSpec(seed=4, posts=30, drop_rate=0.0,
                                     duplicate_rate=0.0, crash_period=None))
        assert report.success_rate == 1.0
        assert not report.notices
        assert report.reliability["retransmits"] == 0
        assert report.reliability["gave_up"] == 0
