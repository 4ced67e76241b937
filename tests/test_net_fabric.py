"""Unit tests for the message fabric, latency models and fault plans."""

import pytest

from repro.errors import NetworkError, UnknownNodeError
from repro.net import (
    BandwidthLatency,
    Fabric,
    FaultPlan,
    FixedLatency,
    LognormalLatency,
    Message,
    UniformLatency,
)
from repro.sim import RngRegistry, Simulator, Tracer
from repro.transport.simlocal import SimTransport


def make_cluster(n=3, **fabric_kwargs):
    sim = Simulator()
    fabric = Fabric(SimTransport(sim), **fabric_kwargs)
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        fabric.attach(i, (lambda i: lambda m: inboxes[i].append(m))(i))
    return sim, fabric, inboxes


class TestPointToPoint:
    def test_message_arrives_after_latency(self):
        sim, fabric, inboxes = make_cluster(latency=FixedLatency(0.5))
        fabric.send(Message(src=0, dst=1, mtype="ping"))
        assert inboxes[1] == []  # not synchronous
        sim.run()
        assert len(inboxes[1]) == 1
        assert sim.now == 0.5

    def test_local_messages_are_faster(self):
        sim, fabric, inboxes = make_cluster(latency=FixedLatency(1.0))
        fabric.send(Message(src=0, dst=0, mtype="self"))
        sim.run()
        assert sim.now == pytest.approx(0.01)

    def test_unknown_destination_raises(self):
        sim, fabric, _ = make_cluster()
        with pytest.raises(UnknownNodeError):
            fabric.send(Message(src=0, dst=99, mtype="x"))

    def test_double_attach_rejected(self):
        sim, fabric, _ = make_cluster()
        with pytest.raises(NetworkError):
            fabric.attach(0, lambda m: None)

    def test_detach_drops_in_flight(self):
        sim, fabric, inboxes = make_cluster()
        fabric.send(Message(src=0, dst=1, mtype="x"))
        fabric.detach(1)
        sim.run()
        assert inboxes[1] == []
        assert fabric.stats.dropped == 1

    def test_payload_passes_through_unmodified(self):
        sim, fabric, inboxes = make_cluster()
        payload = {"k": [1, 2, 3]}
        fabric.send(Message(src=0, dst=2, mtype="data", payload=payload))
        sim.run()
        assert inboxes[2][0].payload is payload

    def test_fifo_between_same_pair_with_fixed_latency(self):
        sim, fabric, inboxes = make_cluster(latency=FixedLatency(0.1))
        for i in range(5):
            fabric.send(Message(src=0, dst=1, mtype="seq", payload=i))
        sim.run()
        assert [m.payload for m in inboxes[1]] == list(range(5))


class TestFaults:
    def test_drop_rate_one_drops_everything(self):
        sim, fabric, inboxes = make_cluster(
            faults=FaultPlan(RngRegistry(1), drop_rate=1.0))
        fabric.send(Message(src=0, dst=1, mtype="x"))
        sim.run()
        assert inboxes[1] == []
        assert fabric.stats.dropped == 1

    def test_local_messages_never_dropped(self):
        sim, fabric, inboxes = make_cluster(
            faults=FaultPlan(RngRegistry(1), drop_rate=1.0))
        fabric.send(Message(src=0, dst=0, mtype="x"))
        sim.run()
        assert len(inboxes[0]) == 1

    def test_duplicate_rate_one_duplicates(self):
        sim, fabric, inboxes = make_cluster(
            faults=FaultPlan(RngRegistry(1), duplicate_rate=1.0))
        fabric.send(Message(src=0, dst=1, mtype="x"))
        sim.run()
        assert len(inboxes[1]) == 2

    def test_partition_cuts_both_directions(self):
        plan = FaultPlan()
        plan.partition({0, 1}, {2})
        sim, fabric, inboxes = make_cluster(faults=plan)
        fabric.send(Message(src=0, dst=2, mtype="x"))
        fabric.send(Message(src=2, dst=1, mtype="x"))
        fabric.send(Message(src=0, dst=1, mtype="x"))
        sim.run()
        assert inboxes[2] == []
        assert len(inboxes[1]) == 1  # only the intra-side message

    def test_heal_restores_connectivity(self):
        plan = FaultPlan()
        plan.partition({0}, {1})
        plan.heal()
        sim, fabric, inboxes = make_cluster(faults=plan)
        fabric.send(Message(src=0, dst=1, mtype="x"))
        sim.run()
        assert len(inboxes[1]) == 1

    def test_one_way_partition_drops_the_cut_direction(self):
        plan = FaultPlan()
        plan.partition({0}, {2}, one_way=True)
        sim, fabric, inboxes = make_cluster(n=4, faults=plan)
        for dst in (1, 2, 3):
            fabric.send(Message(src=0, dst=dst, mtype="m"))
        sim.run()
        # the message into the cut is charged, then eaten by the wire
        assert fabric.stats.sent == 3 and fabric.stats.dropped == 1
        assert [len(inboxes[n]) for n in (1, 2, 3)] == [1, 0, 1]

    def test_one_way_partition_keeps_the_reverse_direction(self):
        plan = FaultPlan()
        plan.partition({0}, {2}, one_way=True)
        sim, fabric, inboxes = make_cluster(n=4, faults=plan)
        fabric.send(Message(src=2, dst=0, mtype="reply"))
        sim.run()
        assert len(inboxes[0]) == 1 and fabric.stats.dropped == 0

    def test_one_way_heal_restores_delivery(self):
        plan = FaultPlan()
        plan.partition({0}, {1}, one_way=True)
        sim, fabric, inboxes = make_cluster(faults=plan)
        fabric.send(Message(src=0, dst=1, mtype="m"))
        sim.run()
        assert inboxes[1] == []
        plan.heal({0}, {1})
        fabric.send(Message(src=0, dst=1, mtype="m"))
        sim.run()
        assert len(inboxes[1]) == 1

    def test_send_to_crashed_node_is_charged_and_dropped(self):
        sim, fabric, inboxes = make_cluster(n=4)
        fabric.detach(2)  # fail-stop: endpoint gone, id still known
        fabric.send(Message(src=0, dst=2, mtype="m"))
        sim.run()
        # reliability lives above: the wire swallows the message
        assert inboxes[2] == []
        assert fabric.stats.sent == 1 and fabric.stats.dropped == 1


class TestLatencyModels:
    def test_fixed_rejects_negative(self):
        with pytest.raises(NetworkError):
            FixedLatency(-1.0)

    def test_uniform_within_bounds(self):
        model = UniformLatency(RngRegistry(5), low=0.1, high=0.2)
        msg = Message(src=0, dst=1, mtype="x")
        for _ in range(100):
            assert 0.1 <= model.delay(0, 1, msg) <= 0.2

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(NetworkError):
            UniformLatency(RngRegistry(5), low=0.5, high=0.1)

    def test_lognormal_positive(self):
        model = LognormalLatency(RngRegistry(5), median=1e-3)
        msg = Message(src=0, dst=1, mtype="x")
        assert all(model.delay(0, 1, msg) > 0 for _ in range(50))

    def test_bandwidth_charges_for_size(self):
        model = BandwidthLatency(propagation=0.0, bandwidth=1000.0)
        small = Message(src=0, dst=1, mtype="x", size=100)
        big = Message(src=0, dst=1, mtype="x", size=1000)
        assert model.delay(0, 1, big) == pytest.approx(
            10 * model.delay(0, 1, small))

    def test_models_reproducible_across_runs(self):
        def draws(model_cls):
            model = model_cls(RngRegistry(42), 0.1, 0.9)
            msg = Message(src=0, dst=1, mtype="x")
            return [model.delay(0, 1, msg) for _ in range(5)]

        assert draws(UniformLatency) == draws(UniformLatency)


class TestStatsAndTrace:
    def test_stats_snapshot_delta(self):
        sim, fabric, _ = make_cluster()
        fabric.send(Message(src=0, dst=1, mtype="a"))
        before = fabric.stats.snapshot()
        fabric.send(Message(src=0, dst=1, mtype="a"))
        fabric.send(Message(src=0, dst=2, mtype="b"))
        delta = fabric.stats.delta_since(before)
        assert delta["sent"] == 2
        assert delta["type:a"] == 1
        assert delta["type:b"] == 1

    def test_delta_since_key_appearing_after_snapshot(self):
        """A message type first seen after the snapshot must show up in
        the delta as a positive count, not a KeyError or omission."""
        sim, fabric, _ = make_cluster()
        fabric.send(Message(src=0, dst=1, mtype="a"))
        before = fabric.stats.snapshot()
        assert "type:fresh" not in before
        fabric.send(Message(src=0, dst=1, mtype="fresh"))
        fabric.send(Message(src=0, dst=1, mtype="fresh"))
        delta = fabric.stats.delta_since(before)
        assert delta["type:fresh"] == 2
        assert delta["type:a"] == 0

    def test_delta_since_vanished_key_goes_negative(self):
        """Keys present in the snapshot but gone from the live counters
        (a reset between the two) yield negative deltas — the honest
        answer, not a silent drop of the key."""
        sim, fabric, _ = make_cluster()
        fabric.send(Message(src=0, dst=1, mtype="a", size=10))
        before = fabric.stats.snapshot()
        fabric.stats.reset()
        delta = fabric.stats.delta_since(before)
        assert delta["type:a"] == -1
        assert delta["sent"] == -1
        assert delta["bytes_sent"] == -10
        # every key from either side is present in the delta
        assert set(delta) >= set(before)

    def test_count_prefix(self):
        sim, fabric, _ = make_cluster()
        fabric.send(Message(src=0, dst=1, mtype="rpc.request"))
        fabric.send(Message(src=0, dst=1, mtype="rpc.reply"))
        fabric.send(Message(src=0, dst=1, mtype="event.post"))
        assert fabric.stats.count_prefix("rpc.") == 2

    def test_tracer_sees_send_and_deliver(self):
        sim = Simulator()
        tracer = Tracer(sim)
        fabric = Fabric(SimTransport(sim), tracer=tracer)
        got = []
        fabric.attach(0, got.append)
        fabric.attach(1, got.append)
        fabric.send(Message(src=0, dst=1, mtype="x"))
        sim.run()
        assert len(tracer.select("net", "send")) == 1
        assert len(tracer.select("net", "deliver")) == 1

    def test_reply_envelope_swaps_endpoints(self):
        msg = Message(src=3, dst=7, mtype="rpc.request")
        reply = msg.reply_envelope("rpc.reply", payload="ok")
        assert reply.src == 7
        assert reply.dst == 3
        assert reply.payload == "ok"


class TestLatencyReservoir:
    def test_empty_reservoir(self):
        from repro.net.stats import LatencyReservoir

        res = LatencyReservoir(capacity=8)
        assert res.count == 0
        assert res.mean == 0.0
        assert res.p50 == 0.0
        assert res.last(3) == []
        assert res.summary() == {"count": 0, "mean": 0.0, "p50": 0.0,
                                 "p99": 0.0, "retained": 0}

    def test_running_aggregates_survive_eviction(self):
        from repro.net.stats import LatencyReservoir

        res = LatencyReservoir(capacity=4)
        for i in range(10):
            res.record("EVT", float(i))
        # count/mean cover everything ever recorded ...
        assert res.count == 10
        assert res.mean == sum(range(10)) / 10
        # ... the window keeps only the newest `capacity` samples.
        assert len(res) == 4
        assert res.last(2) == [("EVT", 8.0), ("EVT", 9.0)]
        assert res.p50 == 8.0  # nearest rank over [6, 7, 8, 9]
        assert res.p99 == 9.0

    def test_exactly_capacity_samples_keeps_everything(self):
        """At exactly ``capacity`` samples nothing has been evicted:
        the window, the aggregates and the percentiles all see every
        sample — and the very next record evicts only the oldest."""
        from repro.net.stats import LatencyReservoir

        res = LatencyReservoir(capacity=5)
        for i in range(5):
            res.record("EVT", float(i))
        assert len(res) == res.capacity == 5
        assert res.count == 5
        assert res.last(5) == [("EVT", float(i)) for i in range(5)]
        assert res.mean == 2.0
        assert res.p50 == 2.0  # nearest rank over the full [0..4]
        assert res.p99 == 4.0
        assert res.summary()["retained"] == 5
        res.record("EVT", 5.0)
        assert len(res) == 5  # still bounded
        assert res.count == 6  # aggregates keep counting
        assert res.last(5)[0] == ("EVT", 1.0)  # only the oldest left

    def test_capacity_validated(self):
        import pytest

        from repro.net.stats import LatencyReservoir

        with pytest.raises(ValueError):
            LatencyReservoir(capacity=0)
