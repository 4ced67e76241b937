"""E14 — scale-out runtime: posts/s and locator cost vs node count.

The transport port (PR 8) exists so benches can leave the one-core
simulator behind.  This experiment measures three things:

* **sim rows** — the reference single-process backend at 4→128 nodes:
  wall-clock posts/s for the mixed local/remote object-post workload
  (the same scenario function the sharded workers run, so the rows are
  apples-to-apples);
* **sharded rows** — the identical workload partitioned across worker
  processes under conservative time-window synchronization.  Every row
  re-checks the ground truth (`executed == raised`, no losses) and the
  same-seed digest, which must be reproducible run over run;
* **locator rows** — §7.1 thread-location message cost per post as the
  cluster grows (broadcast's O(n) vs path/cached O(1)), the figure that
  motivates the SCD-broadcast direction in the roadmap;
* a **tcp loopback smoke** row proving the reliable+durable stack runs
  end to end on real sockets with wall-clock timers.

Each row function returns its deterministic figures with the host's
clock readings apart under one ``"wall"`` key; :func:`run_e14` moves
those into the result's ``wall`` dict (``Result.take``).
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import Cluster, ClusterConfig, DistObject, on_event
from repro.bench.harness import Result, Table
from repro.bench.workloads import (
    MUTED_CATEGORIES,
    build_cluster,
    deep_thread,
    measure_posts,
)
from repro.kernel.config import shard_bounds
from repro.objects.capability import Capability

SCALE_EVENT = "SCALE"


class ScaleSink(DistObject):
    """Passive per-node object absorbing scale posts."""

    def __init__(self):
        super().__init__()
        self.seen = 0
        self.by_source: dict[int, int] = {}

    @on_event(SCALE_EVENT)
    def on_scale(self, ctx, block):
        yield ctx.compute(1e-6)
        self.seen += 1
        src = block.raiser_node
        self.by_source[src] = self.by_source.get(src, 0) + 1


def sink_cap(n_nodes: int, shard_count: int, node: int) -> Capability:
    """The capability of ``node``'s sink, computable from *any* shard.

    Every worker creates exactly one :class:`ScaleSink` per local node
    in ascending node order, and per-worker oid counters start at 1 —
    so the sink of global node ``g`` has oid ``g - shard_lo + 1`` in
    its owning worker's directory.  With ``shard_count == 1`` this
    degenerates to ``g + 1``, matching the single-process run.
    """
    lo = 0
    for shard in range(shard_count):
        lo, hi = shard_bounds(n_nodes, shard_count, shard)
        if lo <= node < hi:
            break
    return Capability(oid=node - lo + 1, home=node, transport="rpc",
                      cls_name="ScaleSink")


@dataclass
class ScaleSpec:
    """One scale workload configuration."""

    seed: int = 0
    n_nodes: int = 16
    shard_count: int = 4
    #: posts each node raises over the run
    posts_per_node: int = 200
    #: per-node raise interval, virtual seconds
    interval: float = 2e-3
    #: fraction of posts aimed at a uniformly-random *other* node
    remote_fraction: float = 0.3
    #: :class:`~repro.ClusterConfig` overrides laid over the scale base:
    #: ``link_latency=5e-3`` (the cross-node latency doubles as the
    #: sharded lookahead window)
    config: dict[str, Any] = field(default_factory=dict)

    @property
    def total_posts(self) -> int:
        return self.n_nodes * self.posts_per_node

    def cluster_config(self, **backend: Any) -> ClusterConfig:
        return ClusterConfig(**{
            "n_nodes": self.n_nodes, "seed": self.seed, "link_latency": 5e-3,
            **backend, **self.config})


# ----------------------------------------------------------------------
# the shared scenario (single-process AND per-shard worker)
# ----------------------------------------------------------------------

def _node_targets(spec_args: dict, node: int, n_nodes: int) -> list[int]:
    """Deterministic target node per post for one raiser node."""
    rng = random.Random(int(spec_args["seed"]) * 100003 + node)
    remote_fraction = float(spec_args["remote_fraction"])
    targets = []
    for _ in range(int(spec_args["posts_per_node"])):
        if n_nodes > 1 and rng.random() < remote_fraction:
            other = rng.randrange(n_nodes - 1)
            targets.append(other if other < node else other + 1)
        else:
            targets.append(node)
    return targets


def posts_scenario(ctx) -> Callable[[], dict]:
    """Per-shard setup for the mixed local/remote object-post workload.

    ``ctx`` is a :class:`repro.transport.sharded.ShardContext` (the
    single-process run builds an identical one with one shard).
    Required ``ctx.args``: seed, posts_per_node, interval,
    remote_fraction.
    """
    cluster = ctx.cluster
    args = ctx.args
    interval = float(args["interval"])
    cluster.register_event(SCALE_EVENT)
    cluster.tracer.mute(*MUTED_CATEGORIES)
    sinks = {}
    for node in ctx.local_nodes:
        cap = cluster.create_object(ScaleSink, node=node)
        sinks[node] = cluster.get_object(cap)
    raised = {"n": 0}
    sim = cluster.sim
    # one self-rescheduling pump per raiser node; raisers are staggered
    # inside the interval so 128 nodes do not all fire the same instant
    def make_pump(node: int, targets: list[int],
                  phase: float) -> Callable[[int], None]:
        def pump(i: int) -> None:
            cap = sink_cap(ctx.n_nodes, ctx.shard_count, targets[i])
            cluster.raise_event(SCALE_EVENT, cap, from_node=node,
                                user_data=(node, i))
            raised["n"] += 1
            if i + 1 < len(targets):
                sim.call_at(phase + (i + 1) * interval, pump, i + 1)
        return pump

    for node in ctx.local_nodes:
        targets = _node_targets(args, node, ctx.n_nodes)
        phase = interval * (node + 1) / (ctx.n_nodes + 1)
        if targets:
            sim.call_at(phase, make_pump(node, targets, phase), 0)

    def finish() -> dict:
        per_node = {node: sinks[node].seen for node in ctx.local_nodes}
        material = repr(sorted(
            (node, sinks[node].seen, sorted(sinks[node].by_source.items()))
            for node in ctx.local_nodes))
        return {
            "raised": raised["n"],
            "executed": sum(per_node.values()),
            "per_node": per_node,
            "sha": hashlib.sha256(material.encode()).hexdigest(),
        }

    return finish


def combine_digest(shard_results: list[dict]) -> str:
    """Run digest: order-sensitive hash over the per-shard hashes."""
    material = repr([r["sha"] for r in shard_results])
    return hashlib.sha256(material.encode()).hexdigest()


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------

def _scenario_args(spec: ScaleSpec) -> dict:
    return {"seed": spec.seed, "posts_per_node": spec.posts_per_node,
            "interval": spec.interval,
            "remote_fraction": spec.remote_fraction}


def run_scale_local(spec: ScaleSpec) -> dict:
    """The workload on the single-process ``sim`` backend."""
    from repro.transport.sharded import ShardContext
    cluster = Cluster(spec.cluster_config())
    ctx = ShardContext(cluster=cluster, shard_index=0, shard_count=1,
                       n_nodes=spec.n_nodes,
                       local_nodes=range(spec.n_nodes),
                       args=_scenario_args(spec))
    finish = posts_scenario(ctx)
    started = time.perf_counter()
    cluster.run(max_events=None)
    wall = time.perf_counter() - started
    result = finish()
    return {
        "backend": "sim", "nodes": spec.n_nodes, "shards": 1,
        "raised": result["raised"], "executed": result["executed"],
        "digest": combine_digest([result]),
        "virtual_time": cluster.now,
        "wall": {"seconds": wall,
                 "posts_per_sec": result["raised"] / wall if wall else 0.0},
    }


def run_scale_sharded(spec: ScaleSpec) -> dict:
    """The workload partitioned across ``spec.shard_count`` workers."""
    from repro.transport.sharded import run_sharded
    config = spec.cluster_config(transport="sharded",
                                 shard_count=spec.shard_count)
    report = run_sharded(config, "repro.bench.scale:posts_scenario",
                         scenario_args=_scenario_args(spec))
    raised = sum(r["raised"] for r in report.shard_results)
    executed = sum(r["executed"] for r in report.shard_results)
    per_node: dict[int, int] = {}
    for result in report.shard_results:
        per_node.update(result["per_node"])
    return {
        "per_node": per_node,
        "backend": "sharded", "nodes": spec.n_nodes,
        "shards": spec.shard_count,
        "raised": raised, "executed": executed,
        "digest": combine_digest(report.shard_results),
        "virtual_time": report.virtual_time,
        "windows": report.windows,
        "cross_shard": report.cross_shard_messages,
        "wall": {"seconds": report.wall_time,
                 "posts_per_sec": raised / report.wall_time
                 if report.wall_time else 0.0},
    }


def run_locator_rows(node_counts=(4, 16, 64, 128), posts: int = 10,
                     locators=("broadcast", "path", "cached"),
                     depth: int = 2) -> list[dict]:
    """§7.1 locate messages per post as the cluster grows."""
    rows = []
    for locator in locators:
        for n in node_counts:
            if depth >= n:
                continue
            cluster = build_cluster(n_nodes=n, locator=locator)
            thread = deep_thread(cluster, depth=depth)
            msgs, latency = measure_posts(cluster, thread, posts, warmup=2)
            rows.append({"locator": locator, "nodes": n,
                         "locate_msgs_per_post": msgs,
                         "latency_ms": latency * 1e3})
    return rows


def run_tcp_smoke(n_nodes: int = 3, posts: int = 30,
                  wall_budget: float = 20.0) -> dict:
    """The reliable+durable stack end to end on real loopback TCP."""
    cluster = Cluster(ClusterConfig(
        n_nodes=n_nodes, transport="tcp", reliable_delivery=True,
        durable_delivery=True, link_latency=1e-3))
    try:
        cluster.register_event(SCALE_EVENT)
        sinks = []
        for node in range(n_nodes):
            cap = cluster.create_object(ScaleSink, node=node)
            sinks.append(cluster.get_object(cap))
        started = time.perf_counter()
        for i in range(posts):
            target = sinks[(i + 1) % n_nodes]
            cluster.raise_event(SCALE_EVENT, target.cap,
                                from_node=i % n_nodes, user_data=i)
        deadline = started + wall_budget
        while (sum(s.seen for s in sinks) < posts
               and time.perf_counter() < deadline):
            cluster.run(until=cluster.now + 0.25)
        executed = sum(s.seen for s in sinks)
        wall = time.perf_counter() - started
        # frame and retransmit counts ride wall-clock timers on real
        # sockets, so only the post accounting is deterministic
        return {
            "backend": "tcp", "nodes": n_nodes, "shards": 1,
            "raised": posts, "executed": executed,
            "wall": {"seconds": wall,
                     "posts_per_sec": executed / wall if wall else 0.0,
                     "transport": cluster.transport_stats(),
                     "durability": cluster.durability_stats()},
        }
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# the E14 sweep
# ----------------------------------------------------------------------

def run_e14(sim_nodes=(4, 16, 64, 128),
            sharded=((16, 2), (64, 4), (128, 8)), posts_per_node: int = 200,
            locator_nodes=(4, 16, 64, 128), locator_posts: int = 10,
            tcp_posts: int = 30) -> Result:
    result = Result(Table(
        title="E14: posts and locator cost vs node count",
        columns=["backend", "nodes", "shards", "posts", "executed",
                 "digest[:12]"]))

    def record(row: dict) -> dict:
        result.take(f"{row['backend']}-{row['nodes']}/{row['shards']}", row)
        row.pop("per_node", None)  # hashed by the digest
        result.table.add(row["backend"], row["nodes"], row["shards"],
                         row["raised"], row["executed"],
                         row.get("digest", "-")[:12])
        return row

    result.detail = {
        "sim": [record(run_scale_local(ScaleSpec(
            n_nodes=n, posts_per_node=posts_per_node))) for n in sim_nodes],
        "sharded": [record(run_scale_sharded(ScaleSpec(
            n_nodes=n, shard_count=shards, posts_per_node=posts_per_node)))
            for n, shards in sharded],
        "locator": run_locator_rows(node_counts=locator_nodes,
                                    posts=locator_posts),
        "tcp": record(run_tcp_smoke(posts=tcp_posts)),
    }
    result.table.note("sharded digests are seed-reproducible; sim rows use "
                      "the identical scenario for apples-to-apples posts/s "
                      "(in wall)")
    return result


def check_e14(result: Result) -> None:
    """The scale acceptance bars."""
    rows = result.detail
    # zero losses on every backend
    for row in rows["sim"] + rows["sharded"] + [rows["tcp"]]:
        assert row["executed"] == row["raised"], row
    assert all(row["cross_shard"] > 0 for row in rows["sharded"]), \
        "workload never crossed a shard"
    # sim and sharded ran the same node counts up to the same size
    assert max(r["nodes"] for r in rows["sim"]) == \
        max(r["nodes"] for r in rows["sharded"])
    # §7.1 shape: broadcast locate cost grows with n, path/cached do not
    by_locator: dict[str, list[dict]] = {}
    for row in rows["locator"]:
        by_locator.setdefault(row["locator"], []).append(row)
    bcast = sorted(by_locator["broadcast"], key=lambda r: r["nodes"])
    assert bcast[-1]["locate_msgs_per_post"] > \
        bcast[0]["locate_msgs_per_post"]
    for flat in ("path", "cached"):
        costs = [r["locate_msgs_per_post"] for r in by_locator[flat]]
        assert max(costs) - min(costs) <= 2.0, (flat, by_locator[flat])
