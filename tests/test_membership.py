"""SWIM gossip membership: protocol, views, churn property.

Covers detection / refutation / rejoin / piggyback dissemination and
locator dead-skip, the detector lifecycle regressions (no probe from a
crashed node, no stale suspicion surviving a crash or a recovery) and
the hypothesis churn property (randomized join/leave/crash/recover
schedules with drops never lose a durable post and never
double-execute, on both scheduler backends).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import Decision, DistObject, entry
from repro.bench.chaos import ChaosSpec, ChurnSpec, run_chaos
from repro.errors import KernelError
from repro.kernel.config import ClusterConfig
from repro.kernel.membership import ALIVE, DEAD, SUSPECT, Membership
from tests.conftest import Recorder, make_cluster

INTERVAL = 0.05


class HandlerApp(DistObject):
    """Thread app that attaches an EVT handler and parks."""

    @entry
    def work(self, ctx, seen):
        def on_evt(hctx, block):
            seen.append(block.user_data)
            yield hctx.compute(0)
            return Decision.RESUME

        yield ctx.attach_handler("EVT", on_evt)
        yield ctx.sleep(100.0)


def swim_cluster(n_nodes=4, **overrides):
    overrides.setdefault("swim_interval", INTERVAL)
    return make_cluster(n_nodes=n_nodes, **overrides)


def run_periods(cluster, periods):
    cluster.run(until=cluster.now + periods * INTERVAL)


# ======================================================================
# config knobs
# ======================================================================

class TestConfig:
    def test_swim_knob_validation(self):
        for bad in (0.0, -1.0):
            with pytest.raises(KernelError):
                ClusterConfig(n_nodes=2, swim_interval=bad)

    def test_effective_timeouts_default_from_interval(self):
        """Indirect probes go out a third of a period after the direct
        ping; a suspect is confirmed dead three periods later."""
        cluster = make_cluster(n_nodes=3, swim_interval=0.3)
        kernel = cluster.kernels[0]
        sent = []
        original = kernel.send

        def spy(dst, mtype, payload=None, size=64):
            sent.append((cluster.now, mtype, dst))
            original(dst, mtype, payload, size)

        kernel.send = spy
        cluster.crash_node(2)
        cluster.run(until=3.0)
        ping = next(t for t, m, dst in sent
                    if m == "swim.ping" and dst == 2)
        ping_req = next(t for t, m, _dst in sent if m == "swim.ping-req")
        assert ping_req - ping == pytest.approx(0.1)
        # the first observer to suspect is the first to confirm
        times = {"suspect": [], "dead": []}
        for node in (0, 1):
            for t, peer, state, _inc in (
                    cluster.kernels[node].membership.transitions):
                if peer == 2:
                    times[state].append(t)
        assert min(times["dead"]) - min(times["suspect"]) \
            == pytest.approx(0.9)


# ======================================================================
# update ordering (the SWIM merge rules)
# ======================================================================

class TestSupersedes:
    def test_alive_needs_higher_incarnation(self):
        assert Membership._supersedes(ALIVE, 2, ALIVE, 1)
        assert Membership._supersedes(ALIVE, 2, SUSPECT, 1)
        assert Membership._supersedes(ALIVE, 2, DEAD, 1)
        assert not Membership._supersedes(ALIVE, 1, ALIVE, 1)
        assert not Membership._supersedes(ALIVE, 1, SUSPECT, 1)
        assert not Membership._supersedes(ALIVE, 1, DEAD, 1)

    def test_suspect_overrides_same_incarnation_alive(self):
        assert Membership._supersedes(SUSPECT, 1, ALIVE, 1)
        assert Membership._supersedes(SUSPECT, 2, SUSPECT, 1)
        assert not Membership._supersedes(SUSPECT, 1, SUSPECT, 1)
        assert not Membership._supersedes(SUSPECT, 1, DEAD, 1)
        assert not Membership._supersedes(SUSPECT, 0, ALIVE, 1)

    def test_dead_is_final_for_its_incarnation(self):
        assert Membership._supersedes(DEAD, 1, ALIVE, 1)
        assert Membership._supersedes(DEAD, 1, SUSPECT, 1)
        assert Membership._supersedes(DEAD, 2, ALIVE, 1)
        assert not Membership._supersedes(DEAD, 1, DEAD, 1)
        assert not Membership._supersedes(DEAD, 2, DEAD, 1)
        assert not Membership._supersedes(DEAD, 0, ALIVE, 1)


# ======================================================================
# detection, refutation, leave/rejoin
# ======================================================================

class TestDetection:
    def test_crash_is_suspected_then_confirmed_dead(self):
        cluster = swim_cluster()
        run_periods(cluster, 10)
        victim = 3
        cluster.crash_node(victim)
        run_periods(cluster, 40)
        for node in (0, 1, 2):
            membership = cluster.kernels[node].membership
            assert membership.is_dead(victim)
            assert victim not in membership.alive()
            assert victim not in membership.members()
            # suspicion always precedes the verdict
            states = [s for _t, peer, s, _i in membership.transitions
                      if peer == victim]
            assert "suspect" in states
            assert states.index("suspect") < states.index("dead")
        stats = cluster.membership_stats()
        assert stats["suspicions"] >= 1
        assert stats["confirms"] >= 3

    def test_view_api_reflects_self_state(self):
        cluster = swim_cluster(n_nodes=3)
        membership = cluster.kernels[1].membership
        assert membership.is_alive(1) and membership.is_member(1)
        assert 1 in membership.alive()
        cluster.crash_node(1)
        assert not membership.is_alive(1)
        assert 1 not in membership.alive()

    def test_false_suspicion_is_refuted_with_bumped_incarnation(self):
        cluster = swim_cluster()
        run_periods(cluster, 4)
        victim = cluster.kernels[2].membership
        assert victim.incarnation == 0
        # Node 0 is fed a (false) suspicion about the live node 2; it
        # must gossip onward, and 2 must refute by bumping incarnation.
        cluster.kernels[0].membership.on_gossip(((2, SUSPECT, 0),), src=1)
        assert cluster.kernels[0].membership.is_suspected(2)
        run_periods(cluster, 40)
        assert victim.incarnation >= 1
        assert victim.refutations >= 1
        for node in (0, 1, 3):
            assert cluster.kernels[node].membership.is_alive(2)
        assert cluster.membership_stats()["view_suspect"] == 0

    def test_recover_rejoins_with_higher_incarnation(self):
        cluster = swim_cluster()
        run_periods(cluster, 10)
        victim = 3
        cluster.crash_node(victim)
        run_periods(cluster, 40)
        assert cluster.kernels[0].membership.is_dead(victim)
        cluster.recover_node(victim)
        run_periods(cluster, 40)
        assert cluster.kernels[victim].membership.incarnation >= 1
        for node in (0, 1, 2):
            membership = cluster.kernels[node].membership
            assert membership.is_alive(victim), membership.stats()
        stats = cluster.membership_stats()
        assert stats["rejoins"] == 1
        assert stats["resurrections"] >= 3

    def test_graceful_leave_converges_without_suspicion_cycle(self):
        cluster = swim_cluster(n_nodes=5)
        run_periods(cluster, 6)
        cluster.leave_node(2)
        assert cluster.kernels[2].crashed
        # The dead verdict spreads by direct announce + gossip — well
        # inside the suspicion timeout (no refutation wait needed).
        run_periods(cluster, 8)
        for node in (0, 1, 3, 4):
            assert cluster.kernels[node].membership.is_dead(2)
        stats = cluster.membership_stats()
        assert stats["leaves"] == 1
        cluster.recover_node(2)
        run_periods(cluster, 40)
        assert all(cluster.kernels[n].membership.is_alive(2)
                   for n in (0, 1, 3, 4))


# ======================================================================
# piggyback dissemination
# ======================================================================

class TestPiggyback:
    def test_updates_ride_application_traffic(self):
        cluster = swim_cluster()
        cluster.register_event("PING")
        cap = cluster.create_object(Recorder, node=1)
        carried = []
        original = cluster.kernels[1].deliver

        def spy(message):
            if (message.gossip is not None
                    and not message.mtype.startswith("swim.")):
                carried.append(message.mtype)
            original(message)

        cluster.fabric.detach(1)
        cluster.fabric.attach(1, spy)
        run_periods(cluster, 4)
        cluster.crash_node(3)  # something to gossip about
        for i in range(20):
            cluster.raise_event("PING", cap, from_node=0, user_data=i)
            run_periods(cluster, 2)
        assert carried, "no membership update rode an application message"
        assert cluster.membership_stats()["updates_piggybacked"] > 0

    def test_indirect_probes_cover_a_severed_direct_link(self):
        cluster = swim_cluster(n_nodes=4)
        run_periods(cluster, 4)
        # Sever 0 <-> 3 both ways: direct pings die, but ping-req
        # through 1/2 keeps 3 alive in 0's view (no false confirm).
        cluster.fabric.faults.partition({0}, {3})
        run_periods(cluster, 60)
        assert not cluster.kernels[0].membership.is_dead(3)
        assert cluster.membership_stats()["ping_reqs_relayed"] >= 1


# ======================================================================
# locators skip confirmed-dead nodes
# ======================================================================

class TestLocatorViewPruning:
    def _dead_confirmed(self, locator_name):
        cluster = swim_cluster(locator=locator_name)
        run_periods(cluster, 10)
        cluster.crash_node(3)
        run_periods(cluster, 40)
        assert cluster.kernels[0].membership.is_dead(3)
        return cluster

    def test_drop_dead_filters_confirmed_only(self):
        cluster = self._dead_confirmed("broadcast")
        locator = cluster.events.locator
        assert locator._drop_dead(0, [1, 2, 3]) == [1, 2]
        # a mere suspect stays targeted (it may yet refute)
        cluster.kernels[0].membership._status[2] = (SUSPECT, 0)
        assert locator._drop_dead(0, [1, 2]) == [1, 2]

    def test_drop_dead_is_identity_without_swim(self):
        cluster = make_cluster(n_nodes=4, locator="broadcast")
        cluster.crash_node(3)
        assert cluster.events.locator._drop_dead(0, [1, 2, 3]) == [1, 2, 3]

    def test_broadcast_raise_probes_live_members_only(self):
        cluster = self._dead_confirmed("broadcast")
        cluster.register_event("EVT")
        seen = []
        app = cluster.create_object(HandlerApp, node=1)
        thread = cluster.spawn(app, "work", seen, at=1)
        cluster.run(until=cluster.now + 0.1)
        before = cluster.fabric.stats.count("locate.bcast")
        cluster.raise_event("EVT", thread.tid, from_node=0, user_data=7)
        cluster.run(until=cluster.now + 0.5)
        assert seen == [7]
        # One broadcast round from node 0: probes 1 and 2 only — the
        # confirmed-dead node 3 is pruned from the candidate list.
        assert cluster.fabric.stats.count("locate.bcast") - before == 2


# ======================================================================
# detector lifecycle across crash and recovery
# ======================================================================

class TestHeartbeatLifecycle:
    def test_no_beat_fires_from_a_crashed_node(self):
        cluster = make_cluster(n_nodes=3, swim_interval=0.02)
        cluster.run(until=0.2)
        membership = cluster.kernels[1].membership
        assert membership.pings_sent > 0
        cluster.crash_node(1)
        assert membership._timer is None
        frozen = (membership.pings_sent, membership.ping_reqs_sent,
                  membership.suspicions)
        cluster.run(until=cluster.now + 0.5)
        assert (membership.pings_sent, membership.ping_reqs_sent,
                membership.suspicions) == frozen
        assert membership.failed() == []

    def test_stale_suspicion_does_not_survive_recovery(self):
        cluster = make_cluster(n_nodes=3, swim_interval=0.02)
        cluster.run(until=0.2)
        cluster.crash_node(2)
        cluster.run(until=1.0)  # node 0/1 give up on 2; 2's view is stale
        assert cluster.kernels[0].membership.is_failed(2)
        cluster.recover_node(2)
        membership = cluster.kernels[2].membership
        # A fresh all-alive view: nothing suspected on the first
        # post-recover period even though the node was down for many.
        cluster.run(until=cluster.now + 0.03)
        assert membership.failed() == []
        cluster.run(until=cluster.now + 1.0)
        assert membership.failed() == []
        # and the bumped incarnation overrides the peers' verdict
        assert not cluster.kernels[0].membership.is_failed(2)
        assert not cluster.kernels[1].membership.is_failed(2)

    def test_crash_clears_detector_state(self):
        cluster = make_cluster(n_nodes=3, swim_interval=0.02)
        cluster.run(until=0.2)
        cluster.crash_node(2)
        cluster.run(until=1.0)
        membership = cluster.kernels[0].membership
        assert membership.is_failed(2)
        cluster.crash_node(0)
        assert membership._status == {} and membership.failed() == []
        assert membership._suspect_timers == {}
        # recovery starts from the optimistic view, not the old verdict
        cluster.recover_node(0)
        assert membership.failed() == []


# ======================================================================
# knobs off: inert layer, unchanged digests
# ======================================================================

class TestKnobsOffUnchanged:
    def test_swim_off_is_completely_inert(self):
        cluster = make_cluster(n_nodes=4)
        cluster.register_event("PING")
        cap = cluster.create_object(Recorder, node=1)
        cluster.raise_event("PING", cap, from_node=0, user_data=0)
        cluster.run(until=2.0)
        assert cluster.fabric.stats.count_prefix("swim.") == 0
        for kernel in cluster.kernels.values():
            assert not kernel.membership.enabled
            assert kernel.membership._timer is None
            assert all(v == 0 for k, v in kernel.membership.stats().items()
                       if not k.startswith("view_"))
        assert "membership_pings_sent" not in cluster.supervision_stats()

    def test_no_gossip_field_without_swim(self):
        cluster = make_cluster(n_nodes=3, reliable_delivery=True)
        seen = []
        original = cluster.kernels[1].deliver

        def spy(message):
            seen.append(message.gossip)
            original(message)

        cluster.fabric.detach(1)
        cluster.fabric.attach(1, spy)
        cluster.register_event("PING")
        cap = cluster.create_object(Recorder, node=1)
        cluster.raise_event("PING", cap, from_node=0, user_data=0)
        cluster.run(until=1.0)
        assert seen and all(g is None for g in seen)

    def test_chaos_defaults_digest_untouched_by_churn_knobs(self):
        spec = ChaosSpec(seed=11, posts=30)
        first = run_chaos(spec)
        assert first.membership == {}
        assert first.churn_events == []
        # Adding the *fields* at their defaults draws nothing extra from
        # the seeded stream: digest identical.
        again = run_chaos(replace(spec, churn=None,
                                  config={"swim_interval": None}))
        assert first.digest == again.digest


# ======================================================================
# churn chaos: scheduled join/leave/crash/recover + drops
# ======================================================================

CHURN = ChurnSpec(period=0.3, down_time=0.4, max_down=2)


class TestChurnChaos:
    def test_churn_invariant_and_determinism(self):
        spec = ChaosSpec(seed=7, n_nodes=8, posts=60, drop_rate=0.05,
                         crash_period=None,
                         config={"swim_interval": INTERVAL},
                         churn=CHURN, settle=12.0)
        report = run_chaos(spec)
        assert report.violations == []
        assert report.accounted_rate == 1.0
        assert report.churn_events
        assert report.membership["rejoins"] >= 1
        assert report.digest == run_chaos(spec).digest

    def test_churn_off_leaves_no_trace(self):
        spec = ChaosSpec(seed=7, n_nodes=8, posts=60, drop_rate=0.05,
                         crash_period=None,
                         config={"swim_interval": INTERVAL}, settle=12.0)
        report = run_chaos(spec)
        assert report.churn_events == []
        assert report.violations == []

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16),
           scheduler=st.sampled_from(["heap", "wheel"]),
           drop_rate=st.sampled_from([0.0, 0.05, 0.1]),
           leave_fraction=st.sampled_from([0.0, 0.5, 1.0]))
    def test_randomized_churn_never_loses_durable_posts(
            self, seed, scheduler, drop_rate, leave_fraction):
        """Satellite: whatever the churn interleaving, a journaled post
        executes exactly once (or is quarantined) — never lost, never
        doubled — on both scheduler backends."""
        spec = ChaosSpec(
            seed=seed, n_nodes=6, posts=30, drop_rate=drop_rate,
            crash_period=None, durable=True,
            config={"swim_interval": INTERVAL, "scheduler": scheduler},
            churn=ChurnSpec(period=0.35, down_time=0.45, max_down=2,
                            leave_fraction=leave_fraction),
            settle=15.0)
        report = run_chaos(spec)
        assert report.violations == [], report.violations[:3]
        for pid in range(spec.posts):
            assert report.executions.get(pid, 0) <= 1
