#!/usr/bin/env python3
"""Quick-mode soak smoke check for CI.

Runs a scaled-down E12 soak (20k posts, seconds of wall-clock) on the
wheel backend, asserts the phase invariants (no lost posts, outbox
drained — run_soak's phases raise on violation), checks same-seed
determinism of the deterministic columns, and fails on a >20% burst
throughput regression against the committed ``BENCH_soak.json``
baseline. The committed baseline was measured on the dev machine;
``SMOKE_MIN_FRACTION`` (default ``MIN_FRACTION``) scales the floor for
slower CI runners without disabling the regression gate.

Run:  PYTHONPATH=src python benchmarks/smoke_soak.py
"""

import json
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

from repro.bench.soak import (  # noqa: E402
    SoakSpec,
    deterministic_view,
    run_soak,
)

SMOKE_POSTS = 20_000
MIN_FRACTION = 0.8


def main() -> None:
    baseline_path = REPO_ROOT / "BENCH_soak.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    baseline_burst = baseline["phases"]["burst"]["wall_posts_per_sec"]
    min_fraction = float(os.environ.get("SMOKE_MIN_FRACTION", MIN_FRACTION))
    floor = baseline_burst * min_fraction

    spec = SoakSpec(posts=SMOKE_POSTS, scheduler="wheel")
    table, payload = run_soak(spec)
    table.show()

    # Same-seed determinism: every column but wall-clock is bit-identical.
    _, again = run_soak(spec)
    for phase in payload["phases"]:
        first = deterministic_view(payload["phases"][phase])
        second = deterministic_view(again["phases"][phase])
        assert first == second, \
            f"same-seed soak {phase} phase not deterministic"

    burst = payload["phases"]["burst"]["wall_posts_per_sec"]
    assert burst >= floor, (
        f"burst throughput regression: {burst} posts/s is below "
        f"{min_fraction:.0%} of the committed baseline "
        f"{baseline_burst} posts/s (floor {floor:.1f})")

    print(f"\nsmoke OK: {payload['total_posts']} posts, burst "
          f"{burst} posts/s >= {min_fraction:.0%} of committed baseline "
          f"{baseline_burst}; deterministic columns bit-identical "
          "across same-seed runs")


if __name__ == "__main__":
    sys.exit(main())
