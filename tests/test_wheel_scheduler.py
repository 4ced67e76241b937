"""Timing-wheel scheduler backend: unit tests and heap differentials.

The wheel (:class:`repro.sim.WheelSimulator`) must be observationally
identical to the heap reference for everything the kernel can see —
execution order, clock advance, cancellation semantics (a cancel
after the callback fired moves no counter on either). The
differential tests run full chaos scenarios and the soak burst phase on
both backends and require bit-identical results; random programs against
a sorted-list model are in ``tests/test_scheduler_model.py``.
"""

import random

import pytest

from repro.bench import chaos
from repro.bench.scenario import run_scenario
from repro.bench.soak import phase_row, phase_scenario
from repro.errors import KernelError, SimulationError
from repro.kernel.config import ClusterConfig
from repro.sim import Simulator, WheelSimulator, make_simulator


# ---------------------------------------------------------------- unit

def test_wheel_same_instant_fifo_order():
    sim = WheelSimulator()
    fired = []
    for i in range(10):
        sim.call_after(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_wheel_time_order_across_buckets():
    sim = WheelSimulator(tick=1e-3)
    fired = []
    # same bucket, adjacent buckets, and sub-tick distinct instants
    for when in (0.0051, 0.005, 0.0049, 0.002, 0.0021, 1.0):
        sim.call_at(when, fired.append, when)
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == 1.0


def test_wheel_cancel_prevents_execution():
    sim = WheelSimulator()
    fired = []
    handle = sim.call_after(1.0, fired.append, "x")
    sim.cancel(handle)
    assert sim.pending == 0
    sim.run()
    assert fired == []


def test_wheel_cancel_is_idempotent():
    sim = WheelSimulator()
    handle = sim.call_after(1.0, lambda: None)
    sim.cancel(handle)
    sim.cancel(handle)
    sim.run()
    assert sim.events_processed == 0
    assert sim.stats()["cancellations"] == 1


def test_wheel_stale_cancel_after_pool_reuse_is_noop():
    # Fire an entry, schedule a new one, then cancel the *old* handle:
    # a handle only ever reaches its own entry (entry lists used to be
    # recycled through a pool, which is where the name comes from).
    sim = WheelSimulator()
    fired = []
    stale = sim.call_after(0.001, lambda: None)
    sim.run()
    fresh = sim.call_after(0.001, fired.append, "keep")
    sim.cancel(stale)  # must not kill `fresh`
    assert sim.pending == 1 and sim.stats()["cancellations"] == 0
    sim.run()
    assert fired == ["keep"]


def test_wheel_far_future_overflow_spills_and_migrates():
    tick, slots = 1e-3, 16
    sim = WheelSimulator(tick=tick, slots=slots)
    horizon = slots * tick
    fired = []
    sim.call_after(horizon * 10, fired.append, "far")
    stats = sim.stats()
    assert stats["wheel_spills"] == 1
    assert stats["overflow_pending"] == 1
    sim.run()
    assert fired == ["far"]
    stats = sim.stats()
    assert stats["wheel_migrations"] >= 1
    assert stats["overflow_pending"] == 0


def test_wheel_overflow_preserves_order_with_near_entries():
    sim = WheelSimulator(tick=1e-3, slots=8)
    fired = []
    sim.call_after(5.0, fired.append, "far")    # overflow
    sim.call_after(0.001, fired.append, "near")  # in-wheel
    sim.call_after(5.0, fired.append, "far2")   # same instant as far
    sim.run()
    assert fired == ["near", "far", "far2"]


def test_wheel_pending_excludes_cancelled():
    sim = WheelSimulator(tick=1e-3, slots=8)
    h1 = sim.call_after(0.001, lambda: None)
    sim.call_after(1.0, lambda: None)   # overflow entry
    assert sim.pending == 2
    sim.cancel(h1)
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


def test_wheel_run_until_advances_clock_exactly():
    sim = WheelSimulator()
    fired = []
    sim.call_after(1.0, fired.append, "a")
    sim.call_after(5.0, fired.append, "b")
    sim.run(until=3.0)
    assert fired == ["a"]
    assert sim.now == 3.0
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now == 5.0


def test_wheel_rejects_past_and_negative():
    sim = WheelSimulator(start=10.0)
    with pytest.raises(SimulationError):
        sim.call_at(9.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_after(-1.0, lambda: None)


def test_wheel_nested_scheduling_from_callback():
    sim = WheelSimulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.call_after(1.5, lambda: fired.append(("inner", sim.now)))

    sim.call_after(1.0, outer)
    sim.run()
    assert fired == [("outer", 1.0), ("inner", 2.5)]


def test_wheel_stats_schema():
    sim = WheelSimulator()
    sim.call_after(1.0, lambda: None)
    stats = sim.stats()
    for key in ("backend", "pending", "scheduled", "executed",
                "cancellations", "compactions", "wheel_spills",
                "wheel_migrations", "overflow_pending", "wheel_buckets"):
        assert key in stats
    assert stats["backend"] == "wheel"
    assert stats["pending"] == 1
    assert stats["scheduled"] == 1


def test_heap_stats_schema():
    sim = Simulator()
    sim.cancel(sim.call_after(1.0, lambda: None))
    stats = sim.stats()
    assert stats["backend"] == "heap"
    assert stats["scheduled"] == 1
    assert stats["cancellations"] == 1
    assert stats["wheel_spills"] == 0


def test_make_simulator_factory():
    assert type(make_simulator("heap")) is Simulator
    assert isinstance(make_simulator("wheel"), WheelSimulator)
    assert make_simulator("wheel", start=3.0).now == 3.0
    with pytest.raises(SimulationError):
        make_simulator("calendar")


def test_wheel_parameter_validation():
    with pytest.raises(SimulationError):
        WheelSimulator(tick=0.0)
    with pytest.raises(SimulationError):
        WheelSimulator(slots=1)


def test_config_validates_scheduler_knobs():
    with pytest.raises(KernelError):
        ClusterConfig(scheduler="calendar")
    assert ClusterConfig().scheduler == "heap"


# -------------------------------------------------- order differential

def _run_script(sim, ops_seed: int) -> list:
    """Replay a randomized schedule/cancel/nested script; returns the
    firing log. The script itself is backend-independent."""
    rng = random.Random(ops_seed)
    fired = []
    handles = []

    def fire(tag):
        fired.append((round(sim.now, 9), tag))
        if rng.random() < 0.3:  # nested scheduling from callbacks
            handles.append(sim.call_after(rng.choice([0.0, 1e-4, 0.5, 30.0]),
                                          fire, f"{tag}.n"))
        if handles and rng.random() < 0.2:
            sim.cancel(handles[rng.randrange(len(handles))])

    for i in range(200):
        delay = rng.choice([0.0, 1e-4, 1e-3, 0.01, 0.01, 1.0, 50.0])
        handles.append(sim.call_after(delay, fire, i))
    for _ in range(30):
        sim.cancel(handles[rng.randrange(len(handles))])
    sim.run()
    return fired


@pytest.mark.parametrize("ops_seed", [0, 1, 2, 3])
def test_wheel_matches_heap_firing_order(ops_seed):
    heap_log = _run_script(Simulator(), ops_seed)
    wheel_log = _run_script(WheelSimulator(tick=1e-3, slots=64), ops_seed)
    assert wheel_log == heap_log


# -------------------------------------------- full-stack differential

def test_chaos_digest_identical_heap_vs_wheel():
    base = dict(seed=11, posts=40, settle=8.0)
    heap = run_scenario(chaos.scenario(config={"scheduler": "heap"}, **base))
    wheel = run_scenario(chaos.scenario(config={"scheduler": "wheel"},
                                        **base))
    assert heap.violations == [] and wheel.violations == []
    assert heap.digest == wheel.digest


def test_durable_chaos_digest_identical_heap_vs_wheel():
    base = dict(seed=7, posts=30, settle=8.0, durable=True)
    heap = run_scenario(chaos.scenario(config={"scheduler": "heap"}, **base))
    wheel = run_scenario(chaos.scenario(config={"scheduler": "wheel"},
                                        **base))
    assert heap.violations == [] and wheel.violations == []
    assert heap.digest == wheel.digest


def test_fastpath_burst_identical_heap_vs_wheel():
    base = dict(seed=5, burst=4)
    heap = phase_row("burst", run_scenario(phase_scenario(
        "burst", 80, config={"scheduler": "heap"}, **base)))
    wheel = phase_row("burst", run_scenario(phase_scenario(
        "burst", 80, config={"scheduler": "wheel"}, **base)))
    assert heap == wheel
