"""E16 — gossip membership: detection latency and load vs cluster size.

The SWIM layer's whole argument is a scaling one: an all-pairs
heartbeat costs every node n - 1 messages per period by construction
(the retired detector's rows are a closed section of EXPERIMENTS.md),
while SWIM's one-probe-per-period plus piggybacked gossip costs O(1) —
with detection latency that stays flat as the cluster grows. This
experiment measures the claim directly:

* **detection rows** — crash one node in an otherwise idle cluster and
  measure, per live observer, how long until the victim is suspected
  and confirmed dead, plus the steady-state failure-detection message
  load per node per protocol period, swept to 256 nodes;
* **convergence row** — crash 10% of the cluster in the same instant
  (correlated failure) and measure how long until every surviving
  node's view marks every victim dead;
* **churn rows** — the chaos harness (:mod:`repro.bench.chaos`) with a
  scheduled join/leave/crash/recover churn riding on drops: every post
  must execute exactly once, surface a notice, or be quarantined;
* **sharded churn row** — the same churn discipline on the
  multi-process sharded transport: stable-half nodes exchange posts
  while the other half churns, with zero lost posts and every
  survivor's view converged (no suspects, no deads) once churn ends.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from typing import Callable

from repro import Cluster, ClusterConfig
from repro.bench.chaos import ChaosSpec, ChurnSpec, run_chaos
from repro.bench.harness import Result, Table
from repro.bench.scale import ScaleSink, sink_cap
from repro.bench.workloads import MUTED_CATEGORIES

MEMBER_EVENT = "SCALE"  # reuse the ScaleSink handler event


# ----------------------------------------------------------------------
# detection latency and per-node load (single-process sim)
# ----------------------------------------------------------------------

def _idle_cluster(n_nodes: int, interval: float, seed: int) -> Cluster:
    cluster = Cluster(ClusterConfig(n_nodes=n_nodes, seed=seed,
                                    swim_interval=interval,
                                    trace_net=False))
    cluster.tracer.mute(*MUTED_CATEGORIES)
    return cluster


def run_detection_row(n_nodes: int, interval: float = 0.1,
                      seed: int = 0, warm: float = 2.0,
                      window: float = 2.0,
                      budget_periods: int = 60) -> dict:
    """Crash one node; measure observer detection latency and the
    steady-state failure-detection load per node per period."""
    cluster = _idle_cluster(n_nodes, interval, seed)
    count = cluster.fabric.stats.count_prefix
    cluster.run(until=warm)
    before = count("swim.")
    cluster.run(until=cluster.now + window)
    load = ((count("swim.") - before)
            / n_nodes / (window / interval))

    victim = n_nodes - 1
    t_crash = cluster.now
    cluster.crash_node(victim)
    observers = [k for k in cluster.kernels.values()
                 if k.node_id != victim]
    deadline = t_crash + budget_periods * interval
    step = interval / 4.0

    suspect_lat: list[float] = []
    confirm_lat: list[float] = []
    while cluster.now < deadline:
        cluster.run(until=cluster.now + step)
        if all(k.membership.is_dead(victim) for k in observers):
            break
    for kernel in observers:
        first: dict[str, float] = {}
        for t, peer, state, _inc in kernel.membership.transitions:
            if peer == victim and t >= t_crash and state not in first:
                first[state] = t
        if "suspect" in first:
            suspect_lat.append(first["suspect"] - t_crash)
        if "dead" in first:
            confirm_lat.append(first["dead"] - t_crash)
    detected = sum(1 for k in observers if k.membership.is_dead(victim))

    assert detected == len(observers), (
        f"swim n={n_nodes}: only {detected}/{len(observers)} observers "
        f"detected the crash within {budget_periods} periods")
    return {
        "mode": "swim", "nodes": n_nodes, "interval": interval,
        "msgs_per_node_per_period": load,
        "suspect_p50": statistics.median(suspect_lat),
        "suspect_max": max(suspect_lat),
        "confirm_p50": statistics.median(confirm_lat),
        "confirm_max": max(confirm_lat),
        "observers": len(observers),
    }


def run_convergence_row(n_nodes: int, fail_fraction: float = 0.1,
                        interval: float = 0.1, seed: int = 0,
                        warm: float = 2.0,
                        budget_periods: int = 80) -> dict:
    """Crash ``fail_fraction`` of the cluster in the same instant;
    measure how long until every survivor marks every victim dead."""
    cluster = _idle_cluster(n_nodes, interval, seed)
    cluster.run(until=warm)
    k = max(1, int(n_nodes * fail_fraction))
    victims = list(range(n_nodes - k, n_nodes))
    t_crash = cluster.now
    for node in victims:
        cluster.crash_node(node)
    survivors = [kernel for kernel in cluster.kernels.values()
                 if kernel.node_id not in victims]
    deadline = t_crash + budget_periods * interval
    step = interval / 2.0
    while cluster.now < deadline:
        cluster.run(until=cluster.now + step)
        if all(kernel.membership.is_dead(v)
               for kernel in survivors for v in victims):
            break
    converged = all(kernel.membership.is_dead(v)
                    for kernel in survivors for v in victims)
    assert converged, (
        f"n={n_nodes}: views did not converge on {k} correlated "
        f"failures within {budget_periods} periods")
    last = 0.0
    for kernel in survivors:
        for t, peer, state, _inc in kernel.membership.transitions:
            if peer in victims and state == "dead" and t >= t_crash:
                last = max(last, t - t_crash)
    return {
        "nodes": n_nodes, "failed": k, "interval": interval,
        "convergence_time": last,
        "convergence_periods": last / interval,
    }


# ----------------------------------------------------------------------
# churn invariant rows (chaos harness, single-process sim)
# ----------------------------------------------------------------------

def churn_spec(n_nodes: int, seed: int = 7,
               scheduler: str = "heap") -> ChaosSpec:
    """The acceptance churn scenario: drops plus scheduled leave/crash
    churn at ``n_nodes`` with SWIM membership on."""
    return ChaosSpec(
        seed=seed, n_nodes=n_nodes, posts=150, drop_rate=0.05,
        crash_period=None,
        config={"swim_interval": 0.05, "scheduler": scheduler},
        churn=ChurnSpec(period=0.25, down_time=0.4,
                        max_down=max(2, n_nodes // 16)),
        settle=12.0)


def run_churn_row(n_nodes: int, seed: int = 7,
                  scheduler: str = "heap") -> dict:
    started = time.perf_counter()
    report = run_chaos(churn_spec(n_nodes, seed, scheduler))
    wall = time.perf_counter() - started
    assert not report.violations, (
        f"churn n={n_nodes}: {report.violations[:3]}")
    messages = report.message_stats.get("sent", 0)
    return {
        "nodes": n_nodes, "seed": seed, "scheduler": scheduler,
        "posts": report.spec.posts,
        "messages": messages,
        "wall": {"seconds": wall,
                 "msgs_per_sec": messages / wall if wall else 0.0},
        "executed_once": report.executed_once,
        "noticed": len(report.notices),
        "accounted": report.accounted_rate,
        "churn_events": len(report.churn_events),
        "leaves": sum(1 for _t, _n, kind in report.churn_events
                      if kind == "leave"),
        "rejoins": report.membership.get("rejoins", 0),
        "refutations": report.membership.get("refutations", 0),
        "digest": report.digest,
    }


# ----------------------------------------------------------------------
# sharded churn scenario (multi-process transport)
# ----------------------------------------------------------------------

def _churn_schedule(args: dict, n_nodes: int) -> list[tuple[float, int, str]]:
    """The (time, node, kind) churn schedule, computed identically in
    every worker from the seeded stream. Down-state is tracked
    *statically* (a departure pins the node down for ``down_time``), so
    no worker needs runtime knowledge of remotely-owned nodes."""
    rng = random.Random(int(args["seed"]) ^ 0xC0FFEE)
    churn_nodes = list(range(n_nodes // 2, n_nodes))
    period = float(args["churn_period"])
    down_time = float(args["down_time"])
    leave_fraction = float(args["leave_fraction"])
    start, end = float(args["churn_start"]), float(args["churn_end"])
    up_at = dict.fromkeys(churn_nodes, 0.0)
    events: list[tuple[float, int, str]] = []
    t = start
    while t < end:
        node = rng.choice(churn_nodes)
        kind = "leave" if rng.random() < leave_fraction else "crash"
        if up_at[node] <= t:
            events.append((round(t, 9), node, kind))
            up_at[node] = t + down_time
        t += period
    return events


def churn_scenario(ctx) -> Callable[[], dict]:
    """Per-shard setup for the sharded churn run.

    The low half of the node range is *stable*: each stable node raises
    ``posts_per_node`` posts at uniformly-random stable sinks (the event
    plane under test). The high half *churns* on the shared schedule —
    graceful leaves and abrupt crashes, each rejoining ``down_time``
    later with a bumped incarnation. Every worker computes the identical
    schedule and applies the events for its own nodes; SWIM gossip is
    the only thing that carries the news across shards.
    """
    cluster = ctx.cluster
    args = ctx.args
    n_nodes = ctx.n_nodes
    stable = list(range(n_nodes // 2))
    interval = float(args["interval"])
    down_time = float(args["down_time"])
    cluster.register_event(MEMBER_EVENT)
    cluster.tracer.mute(*MUTED_CATEGORIES)
    sinks = {}
    for node in ctx.local_nodes:
        # one sink per local node in ascending order: sink_cap's oid
        # arithmetic needs the uniform layout even on churn nodes
        cap = cluster.create_object(ScaleSink, node=node)
        sinks[node] = cluster.get_object(cap)
    raised = {"n": 0}
    sim = cluster.sim

    def make_pump(node: int, targets: list[int],
                  phase: float) -> Callable[[int], None]:
        def pump(i: int) -> None:
            cap = sink_cap(n_nodes, ctx.shard_count, targets[i])
            cluster.raise_event(MEMBER_EVENT, cap, from_node=node,
                                user_data=(node, i))
            raised["n"] += 1
            if i + 1 < len(targets):
                sim.call_at(phase + (i + 1) * interval, pump, i + 1)
        return pump

    for node in ctx.local_nodes:
        if node not in stable:
            continue
        rng = random.Random(int(args["seed"]) * 100003 + node)
        targets = [rng.choice(stable)
                   for _ in range(int(args["posts_per_node"]))]
        phase = interval * (node + 1) / (n_nodes + 1)
        if targets:
            sim.call_at(phase, make_pump(node, targets, phase), 0)

    events = _churn_schedule(args, n_nodes)
    churned = {"departures": 0, "leaves": 0}

    def depart(node: int, kind: str) -> None:
        churned["departures"] += 1
        if kind == "leave":
            churned["leaves"] += 1
            cluster.leave_node(node)
        else:
            cluster.crash_node(node)
        sim.call_after(down_time, cluster.recover_node, node)

    for t, node, kind in events:
        if node in set(ctx.local_nodes):
            sim.call_at(t, depart, node, kind)

    def finish() -> dict:
        executed = sum(sinks[node].seen for node in ctx.local_nodes)
        views = {}
        converged = True
        for node in ctx.local_nodes:
            if node not in stable:
                continue
            view = cluster.kernels[node].membership.stats()
            views[node] = (view["view_alive"], view["view_suspect"],
                           view["view_dead"])
            if view["view_suspect"] or view["view_dead"]:
                converged = False
        material = repr((
            sorted((node, sinks[node].seen,
                    sorted(sinks[node].by_source.items()))
                   for node in ctx.local_nodes),
            sorted(views.items())))
        return {
            "raised": raised["n"],
            "executed": executed,
            "departures": churned["departures"],
            "leaves": churned["leaves"],
            "converged": converged,
            "views": sorted(views.items()),
            "membership": cluster.membership_stats(),
            "sha": hashlib.sha256(material.encode()).hexdigest(),
        }

    return finish


def run_churn_sharded(n_nodes: int, shard_count: int, seed: int = 7,
                      posts_per_node: int = 60,
                      interval: float = 0.05) -> dict:
    """The sharded churn row: stable-half posts under other-half churn."""
    from repro.transport.sharded import run_sharded
    args = {
        "seed": seed, "posts_per_node": posts_per_node,
        "interval": interval, "churn_period": 0.25, "down_time": 0.4,
        "leave_fraction": 0.5, "churn_start": 0.3, "churn_end": 2.3,
    }
    post_end = posts_per_node * interval + 0.1
    settle = 4.0
    until = max(post_end, args["churn_end"] + args["down_time"]) + settle
    config = ClusterConfig(
        n_nodes=n_nodes, seed=seed, transport="sharded",
        shard_count=shard_count, link_latency=5e-3,
        swim_interval=0.05, trace_net=False)
    started = time.perf_counter()
    report = run_sharded(config, "repro.bench.membership:churn_scenario",
                         scenario_args=args, until=until)
    wall = time.perf_counter() - started
    raised = sum(r["raised"] for r in report.shard_results)
    executed = sum(r["executed"] for r in report.shard_results)
    departures = sum(r["departures"] for r in report.shard_results)
    assert executed == raised, (
        f"sharded churn n={n_nodes}: lost posts ({executed}/{raised})")
    assert all(r["converged"] for r in report.shard_results), (
        f"sharded churn n={n_nodes}: stable views did not converge "
        f"after churn (suspects or deads remain)")
    assert departures > 0, "churn schedule produced no departures"
    digest = hashlib.sha256(
        repr([r["sha"] for r in report.shard_results]).encode()).hexdigest()
    return {
        "nodes": n_nodes, "shards": shard_count, "seed": seed,
        "raised": raised, "executed": executed,
        "departures": departures,
        "leaves": sum(r["leaves"] for r in report.shard_results),
        "converged": True,
        "cross_shard": report.cross_shard_messages,
        "windows": report.windows,
        "wall": {"seconds": wall},
        "digest": digest,
    }


# ----------------------------------------------------------------------
# the E16 sweep
# ----------------------------------------------------------------------

def run_e16(swim_nodes=(4, 16, 64, 128, 256), converge_nodes=(64,),
            churn_nodes=(16, 64, 128),
            sharded=((64, 4), (128, 8))) -> Result:
    """E16: detection, convergence, churn and sharded-churn rows; the
    smallest churn run is repeated on the wheel scheduler."""
    result = Result(Table(
        title="E16: SWIM gossip membership",
        columns=["kind", "mode", "nodes", "shards", "msgs/node/period",
                 "suspect_p50", "confirm_max", "converge", "accounted",
                 "digest[:12]"]),
        detail={"detection": [], "convergence": [], "churn": [],
                "sharded": []})
    table, rows = result.table, result.detail
    for n in swim_nodes:
        row = run_detection_row(n)
        rows["detection"].append(row)
        table.add("detect", "swim", n, 1,
                  round(row["msgs_per_node_per_period"], 2),
                  round(row["suspect_p50"], 3),
                  round(row["confirm_max"], 3), "-", "-", "-")
    for n in converge_nodes:
        row = run_convergence_row(n)
        rows["convergence"].append(row)
        table.add("converge-10%", "swim", n, 1, "-", "-", "-",
                  round(row["convergence_time"], 3), "-", "-")
    for n, scheduler in ([(n, "heap") for n in churn_nodes]
                         + [(min(churn_nodes), "wheel")]):
        row = result.take(f"churn-{n}-{scheduler}",
                          run_churn_row(n, scheduler=scheduler))
        rows["churn"].append(row)
        table.add("churn", f"sim-{scheduler}", n, 1, "-", "-", "-", "-",
                  round(row["accounted"], 4), row["digest"][:12])
    for n, shards in sharded:
        row = result.take(f"sharded-{n}/{shards}",
                          run_churn_sharded(n, shards))
        rows["sharded"].append(row)
        table.add("churn", "sharded", n, shards, "-", "-", "-",
                  "-", 1.0, row["digest"][:12])
    table.note("msgs/node/period: failure-detection sends only (swim.*) "
               "over a 2s steady-state window")
    table.note("swim per-node load is O(1) (an all-pairs heartbeat is "
               "n-1 by construction)")
    table.note("churn accounted = every post executed exactly once, "
               "noticed, or quarantined under drops + leave/crash/rejoin")
    return result


def check_e16(result: Result) -> None:
    """The membership acceptance bars."""
    rows = result.detail
    # The headline claim: SWIM's per-node load is flat in n — the
    # largest cluster costs no more than 3x the smallest.
    swim = sorted(rows["detection"], key=lambda r: r["nodes"])
    lo, hi = swim[0], swim[-1]
    assert hi["nodes"] > lo["nodes"], "sweep needs two cluster sizes"
    growth = (hi["msgs_per_node_per_period"]
              / max(lo["msgs_per_node_per_period"], 1e-9))
    assert growth <= 3.0, (
        f"swim per-node load grew {growth:.2f}x from n={lo['nodes']} "
        f"to n={hi['nodes']} (expected O(1))")
    # detection latency stays bounded as the cluster grows
    worst = max(r["confirm_max"] for r in swim)
    assert worst <= 15 * lo["interval"], (
        f"confirm latency {worst} exceeds 15 protocol periods")
    # churn accounted for every post, with churn genuinely injected
    for row in rows["churn"]:
        assert row["accounted"] == 1.0, row
        assert row["churn_events"] > 0 and row["rejoins"] > 0, row
    # heap == wheel: the same churn run on either scheduler backend
    heap = {r["nodes"]: r["digest"] for r in rows["churn"]
            if r["scheduler"] == "heap"}
    for row in rows["churn"]:
        if row["scheduler"] == "wheel":
            assert row["digest"] == heap[row["nodes"]], (
                f"heap vs wheel churn digests diverged at "
                f"n={row['nodes']}")
    for row in rows["sharded"]:
        assert row["executed"] == row["raised"] and row["converged"], row
        assert row["cross_shard"] > 0, "churn run never crossed a shard"
