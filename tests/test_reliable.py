"""Unit tests for the at-least-once reliable channel — cumulative,
coalesced and piggybacked acks, ack validation, per-peer retransmit
timers — and the extended fault plan (selective heal, one-way
partitions, per-type counters)."""

import pytest

from repro.net.fabric import Fabric
from repro.net.faults import FaultPlan
from repro.net.latency import FixedLatency
from repro.net.message import Message
from repro.net.reliable import MSG_REL_ACK, ReliableChannel
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Simulator


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


class TestReliableChannel:
    def test_clean_link_single_delivery_and_ack(self):
        sim, fabric, channels, delivered, _ = make_pair()
        channels[0].send(Message(src=0, dst=1, mtype="x", payload="hi"))
        sim.run()
        assert delivered == [(1, "hi")]
        assert channels[0].stats()["retransmits"] == 0
        assert channels[0].stats()["pending"] == 0
        assert channels[1].stats()["acks_sent"] == 1

    def test_retransmits_through_loss(self):
        plan = FaultPlan(RngRegistry(3), drop_rate=0.5)
        sim, fabric, channels, delivered, _ = make_pair(plan)
        for i in range(20):
            channels[0].send(Message(src=0, dst=1, mtype="x", payload=i))
        sim.run()
        # every message eventually arrives exactly once, in spite of loss
        assert sorted(p for _, p in delivered) == list(range(20))
        assert channels[0].stats()["retransmits"] > 0
        assert channels[0].stats()["pending"] == 0

    def test_duplicates_suppressed(self):
        plan = FaultPlan(RngRegistry(0), duplicate_rate=1.0)
        sim, fabric, channels, delivered, _ = make_pair(plan)
        for i in range(5):
            channels[0].send(Message(src=0, dst=1, mtype="x", payload=i))
        sim.run()
        assert sorted(p for _, p in delivered) == list(range(5))
        assert channels[1].duplicates_suppressed > 0

    def test_gives_up_after_budget(self):
        plan = FaultPlan()
        plan.partition({0}, {1})
        sim, fabric, channels, delivered, _ = make_pair(
            plan, max_retransmits=3)
        lost = []
        channels[0].send(Message(src=0, dst=1, mtype="x", payload="gone"),
                         on_give_up=lost.append)
        sim.run()
        assert delivered == []
        assert len(lost) == 1 and lost[0].payload == "gone"
        stats = channels[0].stats()
        assert stats["gave_up"] == 1
        assert stats["retransmits"] == 3
        assert stats["pending"] == 0

    def test_local_and_broadcast_bypass(self):
        sim, fabric, channels, delivered, _ = make_pair()
        channels[0].send(Message(src=0, dst=0, mtype="x", payload="self"))
        sim.run()
        assert delivered == [(0, "self")]
        # no rel header, no pending state, no acks
        assert channels[0].stats()["sends"] == 0
        assert channels[0].stats()["pending"] == 0

    def test_reset_discards_pending_but_keeps_seq(self):
        plan = FaultPlan()
        plan.partition({0}, {1})
        sim, fabric, channels, delivered, _ = make_pair(plan)
        channels[0].send(Message(src=0, dst=1, mtype="x", payload="old"))
        seq_before = channels[0].next_seq_for(1)
        channels[0].reset()
        sim.run()
        assert channels[0].stats()["pending"] == 0
        plan.heal()
        channels[0].send(Message(src=0, dst=1, mtype="x", payload="new"))
        sim.run()
        assert delivered == [(1, "new")]
        assert channels[0].next_seq_for(1) > seq_before

    def test_dedup_survives_very_late_duplicate(self):
        sim, fabric, channels, delivered, _ = make_pair(dedup_window=4)
        first = Message(src=0, dst=1, mtype="x", payload="first")
        channels[0].send(first)
        sim.run()
        # replay the first envelope long after its seq fell below the floor
        for i in range(10):
            channels[0].send(Message(src=0, dst=1, mtype="x", payload=i))
        fabric.send(first)
        sim.run()
        payloads = [p for _, p in delivered]
        assert payloads.count("first") == 1


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


class TestDuplicateDeliveryAliasing:
    def test_fault_duplicates_are_independent_envelopes(self):
        """A fault-injected duplicate must be its own envelope: mutating
        the first delivery's payload dict must not leak into the copy
        (the rel header alone is shared, for dedup)."""
        plan = FaultPlan(RngRegistry(0), duplicate_rate=1.0)
        sim = Simulator()
        fabric = Fabric(sim, FixedLatency(1e-3), faults=plan)
        received = []

        def deliver(msg):
            received.append(msg)
            msg.payload["count"] = msg.payload.get("count", 0) + 1

        fabric.attach(0, lambda msg: None)
        fabric.attach(1, deliver)
        fabric.send(Message(src=0, dst=1, mtype="x", payload={"v": 7}))
        sim.run()
        assert len(received) == 2
        first, second = received
        assert first is not second
        assert first.msg_id != second.msg_id
        assert first.payload is not second.payload
        # the receiver's mutation of copy #1 did not alias into copy #2
        assert second.payload["count"] == 1
        assert first.payload["v"] == second.payload["v"] == 7


class TestFaultPlanExtensions:
    def test_one_way_partition(self):
        plan = FaultPlan()
        plan.partition({0}, {1}, one_way=True)
        assert plan.is_cut(0, 1)
        assert not plan.is_cut(1, 0)

    def test_selective_heal(self):
        plan = FaultPlan()
        plan.partition({0}, {1})
        plan.partition({0}, {2})
        plan.heal({0}, {1})
        assert not plan.is_cut(0, 1) and not plan.is_cut(1, 0)
        assert plan.is_cut(0, 2) and plan.is_cut(2, 0)
        plan.heal()
        assert not plan.is_cut(0, 2)

    def test_heal_one_side_rejected(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.heal({0})

    def test_per_type_counters(self):
        plan = FaultPlan()
        plan.partition({0}, {1})
        plan.copies(Message(src=0, dst=1, mtype="a.req"))
        plan.copies(Message(src=0, dst=1, mtype="a.req"))
        plan.copies(Message(src=0, dst=1, mtype="b.req"))
        breakdown = plan.fault_breakdown()
        assert breakdown["dropped"] == {"a.req": 2, "b.req": 1}
        assert breakdown["duplicated"] == {}
        assert plan.dropped == 3
