#!/usr/bin/env python3
"""Transport-backend smoke check for CI (``smoke (transport)``).

Three quick proofs that the transport port holds its contract:

1. **sim — bit-identity.** Three frozen chaos/durable/fastpath specs
   must reproduce their pre-port reference digests exactly, on both
   the heap and wheel schedulers.  Any change to the sim transport
   path that perturbs message scheduling order fails here first.
2. **sharded — determinism + ground truth.** A 16-node / 4-shard
   multi-process run of the E14 scenario twice: same-seed digests must
   match each other, per-node delivery counts must match the
   independently computed expected distribution, and nothing may be
   lost across the pipe barriers.
3. **tcp — real sockets end to end.** The loopback example cluster
   with reliable+durable knobs on: the invocation completes, every
   durable post lands, the outbox drains.

Run:  PYTHONPATH=src python benchmarks/smoke_transport.py
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

from repro.bench.chaos import ChaosSpec, run_chaos  # noqa: E402
from repro.bench.scale import (  # noqa: E402
    ScaleSpec,
    _node_targets,
    _scenario_args,
    run_scale_sharded,
)

#: same-seed reference digests frozen at the pre-port HEAD; the sim
#: backend must stay bit-identical to these
REFERENCE_DIGESTS = {
    "chaos": (
        "49b1db13dad533366ef6c9742bdcedde966064d7c3ca5fd14f750b1e637aa056",
        ChaosSpec(seed=23, locator="cached", posts=40, drop_rate=0.1)),
    "durable": (
        "3327ab851341d539023b96a2a25ea58e6c91d3a28463f8c931d9190655cb11ba",
        ChaosSpec(seed=31, posts=40, drop_rate=0.1, durable=True,
                  crash_period=0.8, down_time=0.5)),
    "fastpath": (
        "337c61956bfa83b586ada5d156a6e42a9e599bb428087e9cb02e8ab9680cb2b7",
        ChaosSpec(seed=7, posts=50, drop_rate=0.05, duplicate_rate=0.05)),
    "chaos-wheel": (
        "49b1db13dad533366ef6c9742bdcedde966064d7c3ca5fd14f750b1e637aa056",
        ChaosSpec(seed=23, locator="cached", posts=40, drop_rate=0.1,
                  scheduler="wheel")),
}


def check_sim_bit_identity() -> None:
    for name, (want, spec) in REFERENCE_DIGESTS.items():
        report = run_chaos(spec)
        assert report.digest == want, (
            f"sim transport broke bit-identity: {name} digest "
            f"{report.digest} != frozen reference {want}")
        assert not report.violations, (name, report.violations)
    print(f"sim OK: {len(REFERENCE_DIGESTS)} frozen digests reproduced "
          "bit-identically (heap + wheel)")


def check_sharded_determinism() -> None:
    spec = ScaleSpec(n_nodes=16, shard_count=4, posts_per_node=50)
    first = run_scale_sharded(spec)
    second = run_scale_sharded(spec)
    assert first["digest"] == second["digest"], (
        "sharded same-seed runs diverged: "
        f"{first['digest']} vs {second['digest']}")
    assert first["executed"] == first["raised"] == spec.total_posts, first
    # independent ground truth: the deterministic target schedule
    expected = Counter()
    args = _scenario_args(spec)
    for node in range(spec.n_nodes):
        for target in _node_targets(args, node, spec.n_nodes):
            expected[target] += 1
    merged = Counter({int(k): v for k, v in first["per_node"].items()})
    assert merged == expected, (
        f"sharded per-node deliveries diverge from the schedule: "
        f"{merged} != {expected}")
    print(f"sharded OK: 16 nodes / 4 shards, {first['executed']} posts "
          f"({first['cross_shard']} cross-shard) reproducible at digest "
          f"{first['digest'][:12]}")


def check_tcp_example() -> None:
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "tcp_cluster.py")],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, (
        f"tcp example failed:\n{proc.stdout}\n{proc.stderr}")
    assert "0 outbox entries left pending" in proc.stdout, proc.stdout
    print("tcp OK: loopback example ran reliable+durable end to end")


def main() -> None:
    check_sim_bit_identity()
    check_sharded_determinism()
    check_tcp_example()
    print("transport smoke passed")


if __name__ == "__main__":
    sys.exit(main())
