"""Unit tests for the discrete-event scheduler."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending == 0


def test_custom_start_time():
    sim = Simulator(start=5.0)
    assert sim.now == 5.0


def test_callbacks_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.call_after(2.0, fired.append, "late")
    sim.call_after(1.0, fired.append, "early")
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 2.0


def test_same_instant_fifo_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.call_after(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    seen = []
    sim.call_after(3.0, lambda: sim.call_soon(seen.append, sim.now))
    sim.run()
    assert seen == [3.0]


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.call_after(1.5, inner)

    def inner():
        fired.append(("inner", sim.now))

    sim.call_after(1.0, outer)
    sim.run()
    assert fired == [("outer", 1.0), ("inner", 2.5)]


def test_cannot_schedule_in_past():
    sim = Simulator(start=10.0)
    with pytest.raises(SimulationError):
        sim.call_at(9.0, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1.0, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.call_after(1.0, fired.append, "x")
    sim.cancel(handle)
    assert sim.pending == 0
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.call_after(1.0, lambda: None)
    sim.cancel(handle)
    sim.cancel(handle)
    assert sim.stats()["cancellations"] == 1
    sim.run()


def test_pending_excludes_cancelled():
    sim = Simulator()
    h1 = sim.call_after(1.0, lambda: None)
    sim.call_after(2.0, lambda: None)
    assert sim.pending == 2
    sim.cancel(h1)
    assert sim.pending == 1


def test_run_until_advances_clock_exactly():
    sim = Simulator()
    fired = []
    sim.call_after(1.0, fired.append, "a")
    sim.call_after(5.0, fired.append, "b")
    sim.run(until=3.0)
    assert fired == ["a"]
    assert sim.now == 3.0
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now == 5.0


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_max_events_guard_trips_on_livelock():
    sim = Simulator()

    def loop():
        sim.call_soon(loop)

    sim.call_soon(loop)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.call_soon(lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.call_soon(lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_reentrant_run_rejected():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.call_soon(reenter)
    sim.run()
    assert len(errors) == 1


def test_callback_args_passed_through():
    sim = Simulator()
    seen = []
    sim.call_soon(lambda a, b: seen.append((a, b)), 1, "two")
    sim.run()
    assert seen == [(1, "two")]


class TestCancelledEntries:
    def test_cancel_releases_closure_and_args(self):
        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        ref = weakref.ref(payload)
        handle = sim.call_after(100.0, lambda p: None, payload)
        sim.cancel(handle)
        sim.cancel(handle)  # idempotent
        del payload
        gc.collect()
        # the cancelled entry is still queued, but pins nothing
        assert ref() is None
        assert sim.pending == 0 and sim.stats()["cancellations"] == 1

    def test_compaction_purges_dead_entries(self):
        sim = Simulator()
        handles = [sim.call_after(1000.0 + i, lambda: None)
                   for i in range(200)]
        for handle in handles[:150]:
            sim.cancel(handle)
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
        sim.cancel(handles[0])
        sim.cancel(handles[3])
        assert sim.pending == 3
