"""Chaos: crash-tolerant event delivery under seeded drops, duplicates
and node crash/recover cycles.

Sweeps drop rate 0-20% for the path and cached locators with periodic
crashes, and asserts the reliability layer's guarantees: exactly-once
handler execution, zero lost-or-hung posts, convergence after heal.
Emits ``BENCH_chaos.json`` at the repo root.
"""

import pathlib

from repro.bench.chaos import ChaosSpec, run_chaos, run_chaos_sweep
from repro.bench.harness import emit_json

REPO_ROOT = pathlib.Path(__file__).parent.parent

DROP_RATES = [0.0, 0.05, 0.1, 0.2]
LOCATORS = ["path", "cached"]


def _rows(table):
    return [dict(zip(table.columns, row)) for row in table.rows]


def assert_chaos_shape(table, reports):
    """The delivery guarantees, checked on every swept cell.

    Shared with the CI smoke runner (``benchmarks/smoke.py chaos``),
    which calls it on a reduced sweep.
    """
    for report in reports:
        assert not report.violations, \
            f"{report.spec.locator}@drop={report.spec.drop_rate}: " \
            f"{report.violations[:3]}"
    rows = _rows(table)
    for row in rows:
        # Zero hangs, zero losses: every post executed exactly once or
        # surfaced a dead-target/undeliverable notice to the raiser.
        assert row["accounted"] == 1.0, row
        # Exactly-once: executed_once counts handler runs == 1; any
        # duplicate run is a violation caught above.
        assert row["executed_once"] + row["noticed"] >= row["posts"], row

    def cell(locator, rate, col):
        for row in rows:
            if (row["locator"], row["drop_rate"]) == (locator, rate):
                return row[col]
        raise AssertionError(f"missing row {locator}/{rate}")

    for locator in {row["locator"] for row in rows}:
        # No network faults -> the channel never needs to retransmit for
        # loss; only crash windows cost deliveries.
        assert cell(locator, 0.0, "retransmits/post") < \
            cell(locator, 0.2, "retransmits/post")
        # Retransmission keeps delivery useful even at 20% loss: most
        # posts still execute exactly once.
        assert cell(locator, 0.2, "success_rate") >= 0.7
        # At the acceptance point (drop=0.1 with periodic crash/recover)
        # the success rate stays high and everything is accounted for.
        assert cell(locator, 0.1, "success_rate") >= 0.8
        assert cell(locator, 0.1, "accounted") == 1.0


def test_chaos_delivery_guarantees(benchmark, record):
    base = ChaosSpec(seed=11, posts=150, duplicate_rate=0.05,
                     crash_period=0.8, down_time=0.5,
                     partition_period=1.7, partition_length=0.3)
    result = {}

    def run():
        table, reports = run_chaos_sweep(DROP_RATES, LOCATORS, base)
        result["table"], result["reports"] = table, reports
        return table

    benchmark.pedantic(run, rounds=1, iterations=1)
    table, reports = result["table"], result["reports"]
    record("chaos", table)
    emit_json(table, REPO_ROOT / "BENCH_chaos.json", experiment="chaos",
              drop_rates=DROP_RATES, locators=LOCATORS, seed=base.seed,
              posts=base.posts, n_nodes=base.n_nodes,
              crash_period=base.crash_period,
              duplicate_rate=base.duplicate_rate,
              digests=[r.digest for r in reports])
    assert_chaos_shape(table, reports)


def test_chaos_deterministic(benchmark):
    spec = ChaosSpec(seed=23, locator="cached", posts=80, drop_rate=0.1,
                     duplicate_rate=0.1, partition_period=1.3)

    def run():
        return run_chaos(spec).digest

    digest = benchmark.pedantic(run, rounds=1, iterations=1)
    assert digest == run_chaos(spec).digest, \
        "same-seed chaos runs must be bit-identical"
