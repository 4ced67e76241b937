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
from typing import Any, Callable

from repro import Cluster, ClusterConfig
from repro.bench.harness import Result, Table
from repro.bench.scenario import (
    OBJECT,
    Faults,
    Grid,
    Scenario,
    Sinks,
    run_scenario,
    run_shard,
    shard_summary,
    stage,
)
from repro.bench.workloads import deep_thread, measure_posts


# ----------------------------------------------------------------------
# the per-shard post scenario (single-process AND sharded worker)
# ----------------------------------------------------------------------

def posts(n_nodes: int, seed: int = 0, posts_per_node: int = 200,
          interval: float = 2e-3, remote_fraction: float = 0.3,
          churn: dict[str, float] | None = None) -> Scenario:
    """Mixed local/remote object posts, one sink per node.

    Every raiser node posts ``posts_per_node`` times, one per
    ``interval``; raisers are staggered inside the interval so 128 nodes
    do not all fire the same instant, and each draws its targets from
    its own seeded stream. Without ``churn`` every node raises, a
    ``remote_fraction`` of its posts at a uniformly random *other* node.
    With ``churn`` (``period``, ``down_time``, ``leave_fraction``,
    ``start``, ``end``) the low half of the node range is *stable* and
    posts at random stable sinks, while the high half churns on
    :func:`churn_schedule`: graceful leaves and abrupt crashes, each
    rejoining ``down_time`` later with a bumped incarnation.
    """
    raisers = range(n_nodes // 2) if churn else range(n_nodes)
    grids = []
    for node in raisers:
        rng = random.Random(seed * 100003 + node)
        if churn:
            targets = [rng.choice(raisers) for _ in range(posts_per_node)]
        else:
            targets = []
            for _ in range(posts_per_node):
                if n_nodes > 1 and rng.random() < remote_fraction:
                    other = rng.randrange(n_nodes - 1)
                    targets.append(other if other < node else other + 1)
                else:
                    targets.append(node)
        grids.append(Grid(node, tuple(targets), interval,
                          first=interval * (node + 1) / (n_nodes + 1)))
    faults = Faults()
    if churn:
        faults = Faults(churn=tuple(
            (t, node, kind, churn["down_time"])
            for t, node, kind in churn_schedule(seed, n_nodes, churn)))
    return Scenario(
        # the cross-node latency doubles as the sharded lookahead window;
        # churn needs SWIM to carry the news across shards
        config={"n_nodes": n_nodes, "seed": seed, "link_latency": 5e-3,
                **({"swim_interval": 0.05} if churn else {})},
        sinks=Sinks(OBJECT, tuple(range(n_nodes))),
        arrivals=tuple(grids), faults=faults)


def churn_schedule(seed: int, n_nodes: int,
                   churn: dict[str, float]) -> list[tuple[float, int, str]]:
    """The (time, node, kind) churn schedule over the high half of the
    nodes, computed identically in every worker from the seeded stream.
    Down-state is tracked *statically* (a departure pins the node down
    for ``down_time``), so no worker needs runtime knowledge of
    remotely-owned nodes."""
    rng = random.Random(int(seed) ^ 0xC0FFEE)
    churn_nodes = list(range(n_nodes // 2, n_nodes))
    period, down_time = churn["period"], churn["down_time"]
    up_at = dict.fromkeys(churn_nodes, 0.0)
    events: list[tuple[float, int, str]] = []
    t = churn["start"]
    while t < churn["end"]:
        node = rng.choice(churn_nodes)
        kind = ("leave" if rng.random() < churn["leave_fraction"]
                else "crash")
        if up_at[node] <= t:
            events.append((round(t, 9), node, kind))
            up_at[node] = t + down_time
        t += period
    return events


def shard_posts(ctx) -> Callable[[], dict]:
    """Per-shard entry for :func:`~repro.transport.sharded.run_sharded`:
    stages ``posts(ctx.n_nodes, **ctx.args)`` on this worker."""
    return run_shard(ctx, posts(ctx.n_nodes, **ctx.args))


def combine_digest(shard_results: list[dict]) -> str:
    """Run digest: order-sensitive hash over the per-shard hashes."""
    material = repr([r["sha"] for r in shard_results])
    return hashlib.sha256(material.encode()).hexdigest()


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------

def run_posts(n_nodes: int, shard_count: int | None = None,
              until: float | None = None, **args: Any) -> dict:
    """``posts(n_nodes, **args)`` in process (``shard_count`` None) or
    partitioned across ``shard_count`` worker processes under
    conservative time-window synchronization; ``until`` bounds a
    sharded run's virtual time. Returns the deterministic figures, with
    the host's clock readings under ``"wall"``."""
    from repro.transport.sharded import run_sharded
    scenario = posts(n_nodes, **args)
    if shard_count is None:
        outcome = run_scenario(scenario)
        wall = outcome.run_seconds
        results = [shard_summary(outcome, range(n_nodes))]
        row = {"backend": "sim", "nodes": n_nodes, "shards": 1,
               "virtual_time": outcome.cluster.now}
    else:
        report = run_sharded(
            ClusterConfig(**scenario.config, transport="sharded",
                          shard_count=shard_count),
            "repro.bench.scale:shard_posts", scenario_args=args,
            until=until)
        wall = report.wall_time
        results = report.shard_results
        row = {"backend": "sharded", "nodes": n_nodes,
               "shards": shard_count, "virtual_time": report.virtual_time,
               "windows": report.windows,
               "cross_shard": report.cross_shard_messages}
    raised = sum(r["raised"] for r in results)
    per_node: dict[int, int] = {}
    for result in results:
        per_node.update(result["per_node"])
    row.update(
        raised=raised, executed=sum(r["executed"] for r in results),
        per_node=per_node, shard_results=results,
        digest=combine_digest(results),
        wall={"seconds": wall,
              "posts_per_sec": raised / wall if wall else 0.0})
    return row


def run_locator_rows(node_counts=(4, 16, 64, 128), posts: int = 10,
                     locators=("broadcast", "path", "cached"),
                     depth: int = 2) -> list[dict]:
    """§7.1 locate messages per post as the cluster grows."""
    rows = []
    for locator in locators:
        for n in node_counts:
            if depth >= n:
                continue
            cluster = Cluster(ClusterConfig(n_nodes=n, locator=locator))
            thread = deep_thread(cluster, depth=depth)
            msgs, latency = measure_posts(cluster, thread, posts, warmup=2)
            rows.append({"locator": locator, "nodes": n,
                         "locate_msgs_per_post": msgs,
                         "latency_ms": latency * 1e3})
    return rows


def run_tcp_smoke(n_nodes: int = 3, posts: int = 30,
                  wall_budget: float = 20.0) -> dict:
    """The reliable+durable stack end to end on real loopback TCP: post
    ``i`` goes from node ``i % n_nodes`` to the sink on the next node."""
    scenario = Scenario(
        config={"n_nodes": n_nodes, "transport": "tcp",
                "reliable_delivery": True, "durable_delivery": True,
                "link_latency": 1e-3},
        sinks=Sinks(OBJECT, tuple(range(n_nodes))),
        arrivals=tuple(Grid(node, tuple((i + 1) % n_nodes for i in range(
            node, posts, n_nodes)), 0.0, burst=posts)
            for node in range(n_nodes)))
    cluster = Cluster(ClusterConfig(**scenario.config))
    try:
        outcome, start = stage(cluster, scenario, range(n_nodes))
        started = time.perf_counter()
        start()
        deadline = started + wall_budget
        while (sum(outcome.runs) < posts
               and time.perf_counter() < deadline):
            cluster.run(until=cluster.now + 0.25)
        executed = sum(outcome.runs)
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
        row.pop("shard_results", None)
        result.table.add(row["backend"], row["nodes"], row["shards"],
                         row["raised"], row["executed"],
                         row.get("digest", "-")[:12])
        return row

    result.detail = {
        "sim": [record(run_posts(n, posts_per_node=posts_per_node))
                for n in sim_nodes],
        "sharded": [record(run_posts(n, shards,
                                     posts_per_node=posts_per_node))
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
