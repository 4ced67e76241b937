"""Durability: write-ahead journal overhead and checkpointed recovery.

Sweeps the checkpoint interval under the seeded crash/recover chaos
scenario with ``durable_delivery`` on, and asserts the subsystem's
contract: zero journaled posts lost (every durable post executes exactly
once, the outbox drains), recovery replay bounded by the checkpoint
interval, and fault-free journal overhead below two appends per fabric
message. Emits ``BENCH_durability.json`` at the repo root.
"""

import pathlib

from repro.bench.chaos import ChaosSpec, run_chaos
from repro.bench.durability import (
    measure_fault_free_overhead,
    run_durability_sweep,
)
from repro.bench.harness import emit_json

REPO_ROOT = pathlib.Path(__file__).parent.parent

CHECKPOINT_INTERVALS = [8, 32, 128, None]


def _rows(table):
    return [dict(zip(table.columns, row)) for row in table.rows]


def assert_durability_shape(table, reports, overhead):
    """The durability guarantees, checked on every swept cell.

    Shared with the CI smoke runner (``benchmarks/smoke.py durability``),
    which calls it on a reduced sweep.
    """
    for report in reports:
        assert not report.violations, \
            f"ckpt={report.spec.checkpoint_interval}: " \
            f"{report.violations[:3]}"
    rows = _rows(table)
    for row in rows:
        # Zero lost posts: with durable_delivery on, every journaled
        # post executes exactly once — no notice escape hatch.
        assert row["executed_once"] == row["posts"], row
        assert row["pending_end"] == 0, row
        if row["ckpt_interval"] != "off":
            # Checkpoint-bounded replay: a recovery rolls forward at
            # most the checkpoint record plus one interval of tail.
            interval = int(row["ckpt_interval"])
            assert row["replayed_max"] <= interval + 1, row

    by_interval = {row["ckpt_interval"]: row for row in rows}
    finite = sorted((int(k) for k in by_interval if k != "off"))
    assert finite and "off" in by_interval, \
        "sweep must cover checkpointing on and off"
    # Recovery time scales with the checkpoint interval: replay length,
    # charged time, and retained journal all grow monotonically from the
    # tightest interval up to checkpointing disabled.
    ordered = [by_interval[str(k)] for k in finite] + [by_interval["off"]]
    for tighter, looser in zip(ordered, ordered[1:]):
        assert tighter["replayed_max"] <= looser["replayed_max"], \
            (tighter, looser)
        assert tighter["recovery_ms_max"] <= looser["recovery_ms_max"], \
            (tighter, looser)
        assert tighter["retained_end"] <= looser["retained_end"], \
            (tighter, looser)
    assert ordered[0]["recovery_ms_mean"] < ordered[-1]["recovery_ms_mean"], \
        "tight checkpointing must beat no checkpointing on recovery time"
    # Fault-free overhead: the journal stays under two appends per
    # message on the wire (a remote post's three appends ride on at
    # least four messages).
    assert not overhead["violations"], overhead
    assert overhead["executed_once"] == overhead["posts"], overhead
    assert overhead["appends_per_message"] <= 2.0, overhead


def test_durability_guarantees(benchmark, record):
    base = ChaosSpec(seed=7, durable=True, posts=240, drop_rate=0.1,
                     crash_period=0.5, down_time=0.4)
    result = {}

    def run():
        result["overhead"] = measure_fault_free_overhead(base)
        table, reports = run_durability_sweep(CHECKPOINT_INTERVALS, base)
        result["table"], result["reports"] = table, reports
        return table

    benchmark.pedantic(run, rounds=1, iterations=1)
    table, reports = result["table"], result["reports"]
    overhead = result["overhead"]
    record("durability", table)
    emit_json(table, REPO_ROOT / "BENCH_durability.json",
              experiment="durability",
              checkpoint_intervals=[i if i is not None else "off"
                                    for i in CHECKPOINT_INTERVALS],
              seed=base.seed, posts=base.posts, n_nodes=base.n_nodes,
              drop_rate=base.drop_rate, crash_period=base.crash_period,
              replay_cost=base.replay_cost, fault_free_overhead=overhead,
              digests=[r.digest for r in reports])
    assert_durability_shape(table, reports, overhead)


def test_durability_deterministic(benchmark):
    spec = ChaosSpec(seed=19, durable=True, posts=80, drop_rate=0.1,
                     crash_period=0.6, down_time=0.4,
                     checkpoint_interval=16)

    def run():
        return run_chaos(spec).digest

    digest = benchmark.pedantic(run, rounds=1, iterations=1)
    assert digest == run_chaos(spec).digest, \
        "same-seed durable chaos runs must be bit-identical"
