"""Transport fast-path tests: cumulative/coalesced/piggybacked acks,
per-peer retransmit timers, journal group-commit, scheduler heap
compaction — and the chaos invariants that must hold on top of them."""

import gc
import weakref
from dataclasses import replace

from repro import ClusterConfig
from repro.bench.chaos import ChaosSpec, run_chaos
from repro.net.fabric import Fabric
from repro.net.faults import FaultPlan
from repro.net.latency import FixedLatency
from repro.net.message import Message
from repro.net.reliable import MSG_REL_ACK, ReliableChannel
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Simulator
from repro.store.journal import (
    NodeJournal,
    REC_ACK,
    REC_CHECKPOINT,
    REC_POST,
)


def make_pair(plan=None, drop_acks_at=(), **channel_kw):
    """Two reliable endpoints over a fabric; ``drop_acks_at`` holds
    per-node counts of leading ``rel.ack`` envelopes to swallow (lost
    acks, deterministically)."""
    sim = Simulator()
    fabric = Fabric(sim, FixedLatency(1e-3), faults=plan or FaultPlan())
    channels = {}
    delivered = []
    acked_data = []  # data envelopes that carried a piggybacked ack
    to_drop = dict(drop_acks_at)

    def endpoint(node):
        def deliver(msg):
            ch = channels[node]
            if msg.mtype == MSG_REL_ACK and to_drop.get(node, 0) > 0:
                to_drop[node] -= 1
                return
            if msg.ack is not None:
                acked_data.append((node, msg.payload, msg.ack))
                ch.on_cum_ack(msg.src, msg.ack)
            if msg.mtype == MSG_REL_ACK:
                ch.on_ack(msg)
                return
            if msg.rel is not None and not ch.accept(msg):
                return
            delivered.append((node, msg.payload))
        return deliver

    for node in (0, 1):
        channels[node] = ReliableChannel(sim, fabric, node, **channel_kw)
        fabric.attach(node, endpoint(node))
    return sim, fabric, channels, delivered, acked_data


class TestCumulativeAcks:
    def test_burst_shares_one_cumulative_ack(self):
        sim, fabric, channels, delivered, _ = make_pair()
        for i in range(4):
            channels[0].send(Message(src=0, dst=1, mtype="x", payload=i))
        sim.run()
        assert [p for _, p in delivered] == [0, 1, 2, 3]
        # one delayed ack retired the whole burst
        assert channels[1].stats()["acks_sent"] == 1
        assert channels[1].stats()["acks_coalesced"] == 3
        assert channels[0].stats()["pending"] == 0
        assert channels[0].stats()["retransmits"] == 0

    def test_ack_delay_zero_acks_every_arrival(self):
        sim, fabric, channels, delivered, _ = make_pair(ack_delay=0.0)
        for i in range(4):
            channels[0].send(Message(src=0, dst=1, mtype="x", payload=i))
        sim.run()
        assert [p for _, p in delivered] == [0, 1, 2, 3]
        assert channels[1].stats()["acks_sent"] == 4
        assert channels[0].stats()["pending"] == 0

    def test_correct_under_drop_dup_reorder(self):
        # Drops force retransmission (re-ordering arrival), duplicates
        # hammer the dedup window; the cumulative protocol must still
        # deliver everything exactly once and drain all pending state.
        plan = FaultPlan(RngRegistry(5), drop_rate=0.25, duplicate_rate=0.2)
        sim, fabric, channels, delivered, _ = make_pair(plan)
        for i in range(40):
            channels[0].send(Message(src=0, dst=1, mtype="x", payload=i))
        sim.run()
        assert sorted(p for _, p in delivered) == list(range(40))
        assert channels[0].stats()["pending"] == 0
        assert channels[1].duplicates_suppressed > 0

    def test_lost_ack_healed_by_later_cumulative_ack(self):
        # The ack for message 1 is lost; message 2's cumulative ack
        # (cum=2) covers both, with no retransmission needed.
        sim, fabric, channels, delivered, _ = make_pair(
            drop_acks_at={0: 1}, rto_base=0.05)
        channels[0].send(Message(src=0, dst=1, mtype="x", payload="m1"))
        sim.run(until=2.2e-3)  # m1 acked; that ack will be swallowed
        channels[0].send(Message(src=0, dst=1, mtype="x", payload="m2"))
        sim.run()
        assert [p for _, p in delivered] == ["m1", "m2"]
        stats = channels[0].stats()
        assert stats["pending"] == 0
        assert stats["retransmits"] == 0, \
            "the later cumulative ack should have healed the lost one"

    def test_duplicate_arrival_flushes_ack_immediately(self):
        sim, fabric, channels, delivered, _ = make_pair(
            drop_acks_at={0: 1}, ack_delay=1e-3)
        channels[0].send(Message(src=0, dst=1, mtype="x", payload="m"))
        sim.run()
        # first ack swallowed -> RTO -> duplicate - > immediate re-ack
        assert delivered == [(1, "m")]
        assert channels[0].stats()["retransmits"] == 1
        assert channels[0].stats()["pending"] == 0
        assert channels[1].duplicates_suppressed == 1


class TestPiggyback:
    def test_reverse_data_carries_ack(self):
        sim, fabric, channels, delivered, acked_data = make_pair(
            ack_delay=3e-3, rto_base=0.05)
        channels[0].send(Message(src=0, dst=1, mtype="x", payload="fwd"))
        # reverse send inside node 1's ack window (arrival at 1e-3,
        # dedicated ack not due until 4e-3)
        sim.call_at(2e-3, channels[1].send,
                    Message(src=1, dst=0, mtype="x", payload="rev"))
        sim.run()
        assert sorted(p for _, p in delivered) == ["fwd", "rev"]
        assert channels[1].stats()["acks_piggybacked"] == 1
        # the dedicated envelope was cancelled; only node 0 acks "rev"
        assert channels[1].stats()["acks_sent"] == 0
        assert [(node, payload) for node, payload, _ in acked_data] == \
            [(0, "rev")]
        assert channels[0].stats()["pending"] == 0

    def test_piggybacked_ack_on_retransmitted_data_message(self):
        # Node 1's data message is acked, but the ack is lost, so node 1
        # retransmits it — and by then node 1 owes node 0 an ack for
        # forward traffic, which rides the retransmitted envelope.
        sim, fabric, channels, delivered, acked_data = make_pair(
            drop_acks_at={1: 1}, rto_base=6e-3, ack_delay=3e-3)
        channels[1].send(Message(src=1, dst=0, mtype="x", payload="rev"))
        # node 0 sends after its own dedicated ack for "rev" left (4e-3),
        # so "fwd" goes out plain and the only piggyback opportunity is
        # node 1's retransmission at 6e-3
        sim.call_at(4.5e-3, channels[0].send,
                    Message(src=0, dst=1, mtype="x", payload="fwd"))
        sim.run()
        assert sorted(p for _, p in delivered) == ["fwd", "rev"]
        assert channels[1].stats()["retransmits"] == 1
        assert channels[1].stats()["acks_piggybacked"] == 1
        # node 0 saw the retransmitted "rev" envelope carrying cum=1
        assert (0, "rev", 1) in acked_data
        assert channels[0].stats()["pending"] == 0
        assert channels[1].stats()["pending"] == 0


class TestAckValidation:
    def test_malformed_acks_counted_and_dropped(self):
        sim, fabric, channels, delivered, _ = make_pair()
        ch = channels[0]
        for payload in (None, "junk", {}, {"cum": -1}, {"cum": True},
                        {"cum": 1.5}, {"cum": 1, "sel": "oops"},
                        {"cum": 1, "sel": [1, -2]},
                        {"cum": 1, "sel": [1, True]}):
            ch.on_ack(Message(src=1, dst=0, mtype=MSG_REL_ACK,
                              payload=payload))
        assert ch.bad_acks == 9
        ch.on_cum_ack(1, -3)
        assert ch.bad_acks == 10

    def test_duplicate_and_stale_acks_counted(self):
        sim, fabric, channels, delivered, _ = make_pair()
        ch = channels[0]
        ch.send(Message(src=0, dst=1, mtype="x", payload="m"))
        sim.run()
        assert ch.stats()["pending"] == 0
        before = ch.stale_acks
        # replayed ack: well-formed, acknowledges nothing new
        ch.on_ack(Message(src=1, dst=0, mtype=MSG_REL_ACK,
                          payload={"cum": 1}))
        ch.on_cum_ack(1, 1)
        # ack from a peer never sent to
        ch.on_ack(Message(src=7, dst=0, mtype=MSG_REL_ACK,
                          payload={"cum": 3}))
        assert ch.stale_acks == before + 3
        assert ch.bad_acks == 0

    def test_selective_ack_retires_out_of_order_pending(self):
        # A crash-wiped receiver floor can never cover high seqs
        # cumulatively; the selective summary must retire them anyway.
        sim, fabric, channels, delivered, _ = make_pair()
        ch = channels[0]
        plan_free_msg = Message(src=0, dst=1, mtype="x", payload="a")
        ch.send(plan_free_msg)
        ch.send(Message(src=0, dst=1, mtype="x", payload="b"))
        assert ch.stats()["pending"] == 2
        ch.on_ack(Message(src=1, dst=0, mtype=MSG_REL_ACK,
                          payload={"cum": 0, "sel": (1, 2)}))
        assert ch.stats()["pending"] == 0


class TestPerPeerTimers:
    def test_one_timer_per_peer_not_per_message(self):
        plan = FaultPlan()
        plan.partition({0}, {1})
        sim, fabric, channels, delivered, _ = make_pair(plan)
        for i in range(10):
            channels[0].send(Message(src=0, dst=1, mtype="x", payload=i))
        # partitioned sends schedule nothing but the retransmit driver:
        # exactly one live timer for ten pending messages
        assert channels[0].stats()["pending"] == 10
        assert sim.pending == 1

    def test_give_up_falls_through_to_next_oldest(self):
        plan = FaultPlan()
        plan.partition({0}, {1})
        sim, fabric, channels, delivered, _ = make_pair(
            plan, max_retransmits=2)
        lost = []
        for i in range(3):
            channels[0].send(Message(src=0, dst=1, mtype="x", payload=i),
                             on_give_up=lost.append)
        sim.run()
        assert [m.payload for m in lost] == [0, 1, 2]
        assert channels[0].stats()["gave_up"] == 3
        assert channels[0].stats()["pending"] == 0


class TestSchedulerFastPath:
    def test_cancel_releases_closure_and_args(self):
        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        ref = weakref.ref(payload)
        handle = sim.call_after(100.0, lambda p: None, payload)
        handle.cancel()
        handle.cancel()  # idempotent
        del payload
        gc.collect()
        # the cancelled entry is still queued, but pins nothing
        assert ref() is None
        assert handle.cancelled

    def test_compaction_purges_dead_entries(self):
        sim = Simulator()
        handles = [sim.call_after(1000.0 + i, lambda: None)
                   for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        assert sim.compactions >= 1
        assert sim.pending == 50
        # the physical heap shrank too — dead entries were purged, not
        # merely counted
        assert len(sim._queue) <= 100
        fired = []
        sim.call_after(1.0, fired.append, "live")
        sim.run(until=2.0)
        assert fired == ["live"]

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        handles = [sim.call_after(10.0, lambda: None) for _ in range(5)]
        handles[0].cancel()
        handles[3].cancel()
        assert sim.pending == 3


class TestJournalGroupCommit:
    def test_append_batch_is_one_commit(self):
        journal = NodeJournal(0)
        records = journal.append_batch(
            [(REC_POST, {"entry_id": (0, i)}) for i in range(1, 4)])
        assert [r.lsn for r in records] == [1, 2, 3]
        assert journal.appends == 3
        assert journal.commits == 1
        journal.append(REC_ACK, entry_id=(0, 1))
        assert journal.appends == 4
        assert journal.commits == 2
        assert journal.append_batch([]) == []
        assert journal.commits == 2
        assert journal.stats()["commits"] == 2

    def test_indexed_latest_checkpoint_and_o1_truncate(self):
        journal = NodeJournal(0)
        for i in range(5):
            journal.append(REC_POST, entry_id=(0, i))
        assert journal.latest_checkpoint() is None
        ckpt = journal.append(REC_CHECKPOINT, state={"n": 5})
        assert journal.latest_checkpoint() is ckpt
        dropped = journal.truncate_before(ckpt.lsn)
        assert dropped == 5
        assert journal.records_truncated == 5
        assert [r.lsn for r in journal] == [ckpt.lsn]
        assert journal.latest_checkpoint() is ckpt
        assert journal.tail() == []
        later = journal.append(REC_POST, entry_id=(0, 9))
        assert journal.tail() == [later]
        newer = journal.append(REC_CHECKPOINT, state={"n": 6})
        assert journal.latest_checkpoint() is newer


class TestChaosWithFastPath:
    """The fast path changes envelope and commit counts, never delivery
    semantics — the chaos invariants hold on top of it, with acks
    coalesced or sent per arrival."""

    BASE = ChaosSpec(seed=13, posts=60, drop_rate=0.1, duplicate_rate=0.05,
                     crash_period=0.6, down_time=0.4, settle=10.0)

    def test_chaos_invariants_fastpath_on(self):
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

    def test_same_seed_determinism_with_fast_path(self):
        spec = replace(self.BASE, posts=40)
        assert run_chaos(spec).digest == run_chaos(spec).digest
