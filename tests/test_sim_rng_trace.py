"""Unit tests for seeded RNG streams and the tracer."""

from repro.sim import RngRegistry, Simulator, Tracer
from repro.sim.trace import TRACE_CAPACITY


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(seed=7).stream("latency")
        b = RngRegistry(seed=7).stream("latency")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_independent(self):
        reg = RngRegistry(seed=7)
        a = [reg.stream("a").random() for _ in range(5)]
        b = [reg.stream("b").random() for _ in range(5)]
        assert a != b

    def test_creation_order_irrelevant(self):
        r1 = RngRegistry(seed=3)
        r1.stream("x")
        x_then_y = r1.stream("y").random()
        r2 = RngRegistry(seed=3)
        y_only = r2.stream("y").random()
        assert x_then_y == y_only

    def test_stream_is_cached(self):
        reg = RngRegistry(seed=1)
        assert reg.stream("s") is reg.stream("s")

    def test_fork_changes_streams(self):
        parent = RngRegistry(seed=9)
        child = parent.fork("child")
        assert parent.stream("n").random() != child.stream("n").random()

    def test_fork_deterministic(self):
        c1 = RngRegistry(seed=9).fork("lbl")
        c2 = RngRegistry(seed=9).fork("lbl")
        assert c1.stream("n").random() == c2.stream("n").random()


class TestTracer:
    def _tracer(self):
        sim = Simulator()
        return sim, Tracer(sim)

    def test_emit_records_time_and_fields(self):
        sim, tracer = self._tracer()
        sim.call_after(2.0, tracer.emit, "net", "send")
        sim.run()
        (rec,) = tracer.records
        assert rec.time == 2.0
        assert rec.category == "net"
        assert rec.name == "send"

    def test_select_by_fields(self):
        sim, tracer = self._tracer()
        tracer.emit("net", "send", src=0, dst=1)
        tracer.emit("net", "send", src=1, dst=0)
        tracer.emit("net", "recv", src=0, dst=1)
        assert len(tracer.select("net")) == 3
        assert len(tracer.select("net", "send")) == 2
        assert len(tracer.select("net", "send", src=1)) == 1

    def test_muted_category_stores_nothing(self):
        sim, tracer = self._tracer()
        tracer.mute("net")
        assert tracer.muted == {"net"}
        tracer.emit("net", "send")
        tracer.emit("other", "x")
        assert [r.category for r in tracer.records] == ["other"]

    def test_unmute_restores_storage(self):
        sim, tracer = self._tracer()
        tracer.mute("net")
        tracer.emit("net", "send")
        tracer.unmute("net")
        tracer.emit("net", "send")
        assert tracer.muted == set()
        assert len(tracer.records) == 1

    def test_record_get_and_as_dict(self):
        sim, tracer = self._tracer()
        tracer.emit("ev", "raise", event="TERMINATE", tid=4)
        rec = tracer.records[0]
        assert rec.get("event") == "TERMINATE"
        assert rec.get("missing", "dflt") == "dflt"
        assert rec.as_dict()["tid"] == 4

    def test_signature_equality_for_identical_runs(self):
        def run():
            sim = Simulator()
            tracer = Tracer(sim)
            sim.call_after(1.0, tracer.emit, "a", "x")
            sim.call_after(2.0, tracer.emit, "a", "y")
            sim.run()
            return tracer.signature()

        assert run() == run()

    def test_clear(self):
        sim, tracer = self._tracer()
        tracer.mute("b")
        tracer.emit("a", "x")
        tracer.clear()
        assert not tracer.records
        assert tracer.muted == {"b"}  # clear drops records, not switches

    def test_ring_keeps_the_last_capacity_records(self):
        sim, tracer = self._tracer()
        for i in range(2 * TRACE_CAPACITY):
            tracer.emit("a", "x", i=i)
        assert len(tracer.records) == TRACE_CAPACITY
        seqs = [r.seq for r in tracer.records]
        assert seqs == list(range(TRACE_CAPACITY + 1,
                                  2 * TRACE_CAPACITY + 1))
        assert [r.get("i") for r in tracer.records] == [s - 1 for s in seqs]
        # paging by cursor, from before the retained window: no gap
        paged, cursor = [], 0
        for _ in range(TRACE_CAPACITY // 4096):
            page = tracer.select(after=cursor)[:4096]
            paged += page
            cursor = page[-1].seq
        assert [r.seq for r in paged] == seqs
        assert tracer.select(after=cursor) == []
        assert tracer.select("a", after=seqs[-3], i=seqs[-1] - 1) == [
            tracer.records[-1]]
        tracer.clear()
        tracer.emit("a", "y")
        assert [r.seq for r in tracer.records] == [2 * TRACE_CAPACITY + 1]
        assert tracer.select(after=cursor) == list(tracer.records)

    def test_repr_is_short(self):
        sim, tracer = self._tracer()
        tracer.mute("net", "event")
        tracer.emit("a", "x")
        tracer.emit("a", "y")
        assert repr(tracer) == "<Tracer 2 records, muted=['event', 'net']>"
