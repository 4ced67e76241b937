#!/usr/bin/env python3
"""Quick-mode churn/membership smoke check for CI.

Asserts the SWIM membership guarantees in a few seconds of wall-clock:

* a seeded churn chaos run (drops + scheduled leave/crash/rejoin with
  gossip membership on) accounts for every post — executed exactly
  once, noticed, or quarantined — on both the heap and timing-wheel
  scheduler backends, with bit-identical digests across backends and
  across same-seed repeats;
* a small sharded churn run loses zero posts and every stable node's
  view converges (no suspects, no deads) once churn ends;
* the scaling shape holds: SWIM's per-node failure-detection load is
  flat as the cluster grows while the all-pairs heartbeat's grows
  with n;
* the acceptance-size (64-node) churn run's message throughput stays
  within ``SMOKE_MIN_FRACTION`` (default ``MIN_FRACTION``) of the committed
  ``BENCH_membership.json`` baseline, so a hot-path regression in the
  membership layer fails CI instead of landing silently.

Run:  PYTHONPATH=src python benchmarks/smoke_churn.py
"""

import json
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

from repro.bench.membership import (  # noqa: E402
    check_scaling,
    run_churn_row,
    run_churn_sharded,
    run_detection_row,
)

MIN_FRACTION = 0.5


def main() -> None:
    # -- churn invariant, heap vs wheel differential -------------------
    heap = run_churn_row(16, scheduler="heap")
    wheel = run_churn_row(16, scheduler="wheel")
    assert heap["accounted"] == 1.0, heap
    assert wheel["accounted"] == 1.0, wheel
    assert heap["digest"] == wheel["digest"], (
        "heap vs wheel churn digests diverged: "
        f"{heap['digest'][:16]} != {wheel['digest'][:16]}")
    again = run_churn_row(16, scheduler="heap")
    assert heap["digest"] == again["digest"], \
        "same-seed churn runs must be bit-identical"
    assert heap["churn_events"] > 0 and heap["rejoins"] > 0, heap

    # -- sharded churn: zero losses, converged views -------------------
    sharded = run_churn_sharded(16, 2)
    assert sharded["executed"] == sharded["raised"], sharded
    assert sharded["converged"], sharded
    assert sharded["cross_shard"] > 0, "churn run never crossed a shard"

    # -- O(1) vs O(n) failure-detection load ---------------------------
    detection = [run_detection_row(n, "swim") for n in (4, 32)]
    detection += [run_detection_row(n, "heartbeat") for n in (4, 16)]
    check_scaling(detection)

    # -- throughput regression floor vs the committed baseline ---------
    baseline_path = REPO_ROOT / "BENCH_membership.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_row = next(r for r in baseline["rows"]["churn"]
                    if r["nodes"] == 64 and r["scheduler"] == "heap")
    min_fraction = float(os.environ.get("SMOKE_MIN_FRACTION", MIN_FRACTION))
    floor = base_row["msgs_per_sec"] * min_fraction
    row = run_churn_row(64)
    assert row["digest"] == base_row["digest"], (
        "64-node churn digest drifted from the committed baseline: "
        f"{row['digest'][:16]} != {base_row['digest'][:16]}")
    assert row["msgs_per_sec"] >= floor, (
        f"churn throughput regression: {row['msgs_per_sec']:.0f} msgs/s "
        f"is below {min_fraction:.0%} of the committed baseline "
        f"{base_row['msgs_per_sec']:.0f} msgs/s (floor {floor:.0f})")

    print(f"\nsmoke OK: churn accounted=1.0 on heap+wheel "
          f"(digest {heap['digest'][:12]}, identical), sharded 16n/2s "
          f"converged with {sharded['executed']}/{sharded['raised']} "
          f"posts, swim load flat vs heartbeat O(n), 64-node churn "
          f"{row['msgs_per_sec']:.0f} msgs/s >= {min_fraction:.0%} of "
          f"baseline {base_row['msgs_per_sec']:.0f}")


if __name__ == "__main__":
    sys.exit(main())
