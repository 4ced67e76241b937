"""E11: handler supervision — watchdog deadlines, buddy circuit
breakers, dead-letter quarantine, SWIM failure detector.

Runs the three E11 workloads (handler-faults, durable-poison,
buddy-breaker) with supervision on and off, asserts the
every-post-accounted guarantees and the unsupervised contrast, and
emits ``BENCH_supervise.json`` at the repo root.
"""

import pathlib

from repro.bench.harness import emit_json
from repro.bench.supervise import (
    SuperviseSpec,
    deterministic_view,
    run_handler_faults,
    run_supervise_sweep,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent


def assert_supervise_shape(results):
    """The E11 acceptance bars, checked by bench and CI smoke alike."""
    for workload in ("handler-faults", "durable-poison"):
        on, off = results[workload]["on"], results[workload]["off"]
        # Supervised: every post executed once, noticed, or quarantined;
        # nothing hung, nothing lost — with faults genuinely injected.
        assert on["violations"] == 0, (workload, on)
        assert on["accounted_rate"] == 1.0, (workload, on)
        assert on["hung_handlers"] == 0, (workload, on)
        assert sum(on["faults_injected"].values()) > 0, (workload, on)
        assert on["quarantined"] > 0, (workload, on)
        assert on["handler_timeouts"] > 0, (workload, on)
        # Unsupervised contrast: the same faults wedge handlers and
        # lose posts (that gap is what the subsystem exists to close).
        assert off["hung_handlers"] > 0, (workload, off)
        assert off["accounted_rate"] < 1.0, (workload, off)
        assert off["violations"] > 0, (workload, off)
    on = results["durable-poison"]["on"]
    # The durable bar is exactly-once-or-quarantined, no notice escape.
    assert on["executed_once"] + on["quarantined"] == on["posts"], on
    assert on["noticed"] == 0, on
    buddy_on = results["buddy-breaker"]["on"]
    buddy_off = results["buddy-breaker"]["off"]
    for row in (buddy_on, buddy_off):
        # Delivery totals identical: supervision changes how fast the
        # fallback engages, never whether posts are handled.
        assert (row["buddy_served"] + row["fallback_handled"]
                == row["posts"]), row
    assert buddy_on["membership_suspicions"] > 0, buddy_on
    assert buddy_on["fast_fails"] > 0, buddy_on
    assert buddy_on["breaker_opens"] > 0, buddy_on
    assert buddy_on["breaker_skips"] > 0, buddy_on
    assert buddy_off["fast_fails"] == buddy_off["breaker_opens"] == 0, \
        buddy_off
    # Failing fast + skipping the dead buddy must cut the mean stall.
    assert buddy_on["mean_latency"] <= 0.5 * buddy_off["mean_latency"], \
        (buddy_on, buddy_off)


def test_e11_supervise(benchmark, record):
    spec = SuperviseSpec(seed=7, posts=60, buddy_posts=40)
    result = {}

    def run():
        table, results = run_supervise_sweep(spec)
        result["table"], result["results"] = table, results
        return table

    benchmark.pedantic(run, rounds=1, iterations=1)
    table, results = result["table"], result["results"]
    record("e11_supervise", table)
    emit_json(table, REPO_ROOT / "BENCH_supervise.json",
              experiment="supervise", seed=spec.seed, posts=spec.posts,
              buddy_posts=spec.buddy_posts, hang_rate=spec.hang_rate,
              raise_rate=spec.raise_rate, poison_rate=spec.poison_rate,
              drop_rate=spec.drop_rate, crash_period=spec.crash_period,
              results={w: {m: deterministic_view(r)
                           for m, r in modes.items()}
                       for w, modes in results.items()})
    assert_supervise_shape(results)


def test_e11_deterministic(benchmark):
    spec = SuperviseSpec(seed=19, posts=40)

    def run():
        return deterministic_view(run_handler_faults(spec, supervised=True,
                                                     durable=True))

    first = benchmark.pedantic(run, rounds=1, iterations=1)
    assert first == deterministic_view(
        run_handler_faults(spec, supervised=True, durable=True)), \
        "same-seed supervised runs must be bit-identical"
