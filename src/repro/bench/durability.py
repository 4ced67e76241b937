"""Durability bench: journal overhead and recovery time vs checkpoints.

The ``repro.store`` subsystem buys zero-lost-posts (experiment D1) with
two costs the paper's §5 message-count methodology makes measurable:

* **journal overhead** — every durable remote post appends a POST and an
  ACK record at its origin and an APPLIED record at the executing node.
  Fault-free that is three appends against the four-plus messages the
  post already costs, so the write-ahead log stays under two appends per
  message on the wire.
* **recovery time** — a recovering node replays its newest checkpoint
  plus the journal tail, charging ``replay_cost`` per record before
  redelivery starts. The checkpoint interval bounds the tail: checkpoint
  every N appends and replay is O(N); never checkpoint and replay grows
  with the whole run.

Both are swept here on top of the chaos harness (same seeded faults,
same invariants: every journaled post executes exactly once, the outbox
drains).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro import ClusterConfig
from repro.bench.chaos import ChaosSpec, run_chaos
from repro.bench.harness import Result, Table


def measure_fault_free_overhead(base: ChaosSpec) -> dict[str, Any]:
    """Journal appends per fabric message on a fault-free durable run.

    Same workload as the sweep but with no drops, no duplicates and no
    crashes: every append is pure write-ahead overhead, none is
    redelivery bookkeeping.
    """
    spec = replace(base, durable=True, drop_rate=0.0, duplicate_rate=0.0,
                   crash_period=None, partition_period=None)
    report = run_chaos(spec)
    messages = report.message_stats["sent"]
    appends = report.durability["appends"]
    return {
        "posts": spec.posts,
        "messages_sent": messages,
        "journal_appends": appends,
        "appends_per_message": round(appends / messages, 4) if messages else 0.0,
        "journal_bytes": report.durability["bytes_appended"],
        "executed_once": report.executed_once,
        "violations": report.violations,
    }


def _interval_label(interval: int | None) -> str:
    return "off" if interval is None else str(interval)


def run_durability_sweep(checkpoint_intervals: list[int | None],
                         **base: Any) -> Result:
    """D1: sweep checkpoint interval under the crash/recover chaos
    scenario ``ChaosSpec(durable=True, **base)``, after one fault-free
    overhead run.

    Every cell must satisfy the durable invariants (exactly-once
    execution, outbox drained); the columns expose how the checkpoint
    interval trades journal retention against recovery replay length.
    """
    spec = ChaosSpec(**{**base, "durable": True})
    result = Result(Table(
        title="Durability: recovery time vs checkpoint interval "
              f"({spec.posts} posts, {spec.n_nodes} nodes, "
              f"drop={spec.drop_rate}, crash_period={spec.crash_period})",
        columns=["ckpt_interval", "posts", "executed_once", "redelivered",
                 "recoveries", "replayed_mean", "replayed_max",
                 "recovery_ms_mean", "recovery_ms_max", "appends",
                 "checkpoints", "retained_end", "pending_end"]),
        detail={"fault_free_overhead": measure_fault_free_overhead(spec),
                "violations": []})
    for interval in checkpoint_intervals:
        label = _interval_label(interval)
        report = run_chaos(replace(spec, config={
            **spec.config, "checkpoint_interval": interval}))
        result.digests[f"ckpt={label}"] = report.digest
        result.detail["violations"] += [
            f"ckpt={label}: {v}" for v in report.violations]
        replayed = [row["replayed"] for row in report.recoveries]
        times_ms = [row["recovery_time"] * 1e3 for row in report.recoveries]
        n = len(report.recoveries)
        result.table.add(
            label, spec.posts, report.executed_once,
            report.durability.get("redelivered", 0), n,
            round(sum(replayed) / n, 2) if n else 0.0,
            max(replayed) if n else 0,
            round(sum(times_ms) / n, 4) if n else 0.0,
            round(max(times_ms), 4) if n else 0.0,
            report.durability.get("appends", 0),
            report.durability.get("checkpoints", 0),
            report.durability.get("retained", 0),
            report.durability.get("pending", 0))
    replay_cost = spec.config.get("replay_cost", ClusterConfig.replay_cost)
    result.table.note("replayed = checkpoint + journal-tail records rolled "
                      "forward per recovery; recovery_ms charges replay_cost "
                      f"= {replay_cost * 1e3:.3g} ms per record")
    result.table.note("ckpt_interval bounds the tail: replayed_max <= "
                      "interval + 1 when on; 'off' replays the whole "
                      "retained journal")
    return result


def check_durability(result: Result) -> None:
    """The durability guarantees, on every swept cell."""
    assert not result.detail["violations"], result.detail["violations"][:3]
    rows = result.table.dicts()
    for row in rows:
        # Zero lost posts: with durable_delivery on, every journaled
        # post executes exactly once — no notice escape hatch.
        assert row["executed_once"] == row["posts"], row
        assert row["pending_end"] == 0, row
        if row["ckpt_interval"] != "off":
            # Checkpoint-bounded replay: a recovery rolls forward at
            # most the checkpoint record plus one interval of tail.
            assert row["replayed_max"] <= int(row["ckpt_interval"]) + 1, row
    by_interval = {row["ckpt_interval"]: row for row in rows}
    finite = sorted(int(k) for k in by_interval if k != "off")
    assert finite and "off" in by_interval, \
        "sweep must cover checkpointing on and off"
    # Recovery time scales with the checkpoint interval: replay length,
    # charged time, and retained journal all grow monotonically from the
    # tightest interval up to checkpointing disabled.
    ordered = [by_interval[str(k)] for k in finite] + [by_interval["off"]]
    for tighter, looser in zip(ordered, ordered[1:]):
        for column in ("replayed_max", "recovery_ms_max", "retained_end"):
            assert tighter[column] <= looser[column], (tighter, looser)
    assert ordered[0]["recovery_ms_mean"] < ordered[-1]["recovery_ms_mean"], \
        "tight checkpointing must beat no checkpointing on recovery time"
    # Fault-free overhead: the journal stays under two appends per
    # message on the wire (a remote post's three appends ride on at
    # least four messages).
    overhead = result.detail["fault_free_overhead"]
    assert not overhead["violations"], overhead
    assert overhead["executed_once"] == overhead["posts"], overhead
    assert overhead["appends_per_message"] <= 2.0, overhead
