#!/usr/bin/env python3
"""Quick-mode overload smoke check for CI.

Runs a scaled-down E13 open-loop slice (0.5s arrival window, seconds of
wall-clock): 2x-overload drop-policy runs with control on and off plus a
durable defer run. Asserts the overload-control guarantees — zero posts
silently lost, every shed post noticed, zero durable posts lost with the
outbox drained, bounded p99 against the uncontrolled contrast — checks
same-seed determinism of the deterministic columns, and fails if goodput
at 2x falls below a fraction of the committed ``BENCH_overload.json``
baseline. Goodput here is deterministic (virtual-time executions over
capacity), so ``SMOKE_MIN_FRACTION`` (default ``MIN_FRACTION``) only
absorbs the scaled-down window's edge effects, not runner speed.

Run:  PYTHONPATH=src python benchmarks/smoke_overload.py
"""

import json
import os
import pathlib
import sys
from dataclasses import replace

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

from repro.bench.overload import (  # noqa: E402
    OverloadSpec,
    deterministic_view,
    run_overload,
)

SMOKE_DURATION = 0.5
MIN_FRACTION = 0.9


def main() -> None:
    baseline_path = REPO_ROOT / "BENCH_overload.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_goodput = baseline["knee"]["x2.0"]["on"]["goodput_frac"]
    min_fraction = float(os.environ.get("SMOKE_MIN_FRACTION", MIN_FRACTION))
    floor = base_goodput * min_fraction

    spec = OverloadSpec(duration=SMOKE_DURATION, offered_x=2.0,
                        policy="drop")
    on = run_overload(spec, control=True)
    off = run_overload(spec, control=False)

    # Zero silent losses, every shed post noticed (run_overload already
    # asserts per-post accounting; re-check the headline counters).
    assert on["lost"] == 0 and off["lost"] == 0, (on, off)
    assert on["shed_dropped"] > 0, on
    assert on["notices"] >= on["shed_dropped"], on
    # Bounded p99: the admission watermark caps queueing where the
    # uncontrolled run's tail grows with the arrival window.
    assert on["p99_latency"] <= 0.5 * off["p99_latency"], (on, off)
    # Goodput at 2x overload holds against the committed baseline.
    assert on["goodput_frac"] >= floor, (
        f"goodput regression: {on['goodput_frac']} below "
        f"{min_fraction:.0%} of the committed baseline {base_goodput} "
        f"(floor {floor:.4f})")

    # Durable defer: every post deferred-then-executed, none lost
    # (run_overload asserts the outbox drained and lost == 0).
    defer = run_overload(replace(spec, policy="defer", durable=True),
                         control=True)
    assert defer["shed_deferred"] > 0, defer
    assert defer["executed"] == defer["offered_posts"], defer

    # Same-seed determinism: every column but wall-clock bit-identical.
    again = run_overload(spec, control=True)
    assert deterministic_view(on) == deterministic_view(again), \
        "same-seed overload runs not deterministic"

    print(f"smoke OK: {on['offered_posts']} posts at 2x, goodput "
          f"{on['goodput_frac']} >= floor {floor:.4f}, p99 "
          f"{on['p99_latency']}s vs uncontrolled {off['p99_latency']}s, "
          f"{on['shed_dropped']} shed all noticed, "
          f"{defer['shed_deferred']} durable posts deferred and drained; "
          "deterministic columns bit-identical across same-seed runs")


if __name__ == "__main__":
    sys.exit(main())
