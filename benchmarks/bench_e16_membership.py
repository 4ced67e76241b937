"""E16: SWIM gossip membership — detection latency and load vs size.

Runs the E16 sweep (detection rows for SWIM at 4..256 nodes, a
10%-correlated-failure convergence row, churn chaos rows at 64/128
nodes on the sim backend, and sharded churn rows at 64/4 and 128/8),
asserts the membership acceptance bars — SWIM per-node detection load
flat in n, every churned post executed-once/noticed/quarantined,
sharded views converged with zero lost posts — and emits
``BENCH_membership.json``.
"""

import pathlib

from repro.bench.harness import emit_json
from repro.bench.membership import run_churn_row, run_e16

REPO_ROOT = pathlib.Path(__file__).parent.parent


def test_e16_membership(benchmark, record):
    result = {}

    def run():
        table, rows = run_e16()
        result["table"], result["rows"] = table, rows
        return table

    benchmark.pedantic(run, rounds=1, iterations=1)
    table, rows = result["table"], result["rows"]
    record("e16_membership", table)
    emit_json(table, REPO_ROOT / "BENCH_membership.json",
              experiment="e16-membership", quick=False, rows=rows)

    # the sweep reaches the acceptance sizes on both backends
    swim = rows["detection"]
    assert max(r["nodes"] for r in swim) >= 256
    assert max(r["nodes"] for r in rows["churn"]) >= 128
    assert max(r["nodes"] for r in rows["sharded"]) >= 128
    # O(1) per-node load: the 256-node row costs no more than 3x the
    # 4-node row (run_e16's check_scaling already asserted; pin here)
    by_n = {r["nodes"]: r["msgs_per_node_per_period"] for r in swim}
    assert by_n[256] <= 3.0 * by_n[4], by_n
    # detection latency stays bounded as the cluster grows: the largest
    # cluster confirms death within ~2x the smallest cluster's worst
    assert by_n, by_n
    worst = max(r["confirm_max"] for r in swim)
    interval = swim[0]["interval"]
    assert worst <= 15 * interval, (
        f"confirm latency {worst} exceeds 15 protocol periods")
    # churn rows accounted for every post
    for row in rows["churn"]:
        assert row["accounted"] == 1.0, row
    for row in rows["sharded"]:
        assert row["executed"] == row["raised"] and row["converged"], row


def test_e16_churn_deterministic(benchmark):
    """Same-seed churn runs are bit-identical, heap and wheel alike."""

    def run():
        return run_churn_row(16, scheduler="heap")

    first = benchmark.pedantic(run, rounds=1, iterations=1)
    second = run_churn_row(16, scheduler="heap")
    wheel = run_churn_row(16, scheduler="wheel")
    assert first["digest"] == second["digest"], \
        "same-seed churn runs must be bit-identical"
    assert first["digest"] == wheel["digest"], \
        "wheel-backend churn run must match the heap digest"
    assert first["accounted"] == 1.0
