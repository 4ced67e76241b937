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
* **churn rows** — a chaos scenario (:mod:`repro.bench.chaos`) with a
  scheduled join/leave/crash/recover churn riding on drops: every post
  must execute exactly once, surface a notice, or be quarantined;
* **sharded churn row** — the same churn discipline on the
  multi-process sharded transport: stable-half nodes exchange posts
  while the other half churns, with zero lost posts and every
  survivor's view converged (no suspects, no deads) once churn ends.
"""

from __future__ import annotations

import statistics
import time

from repro import Cluster, ClusterConfig
from repro.bench import chaos
from repro.bench.harness import Result, Table
from repro.bench.scale import run_posts
from repro.bench.scenario import Scenario, run_scenario
from repro.bench.workloads import MUTED_CATEGORIES


# ----------------------------------------------------------------------
# detection latency and per-node load (single-process sim)
# ----------------------------------------------------------------------

def _idle_cluster(n_nodes: int, interval: float, seed: int) -> Cluster:
    cluster = Cluster(ClusterConfig(n_nodes=n_nodes, seed=seed,
                                    swim_interval=interval))
    cluster.tracer.mute(*MUTED_CATEGORIES)
    return cluster


def _crash_and_watch(cluster: Cluster, victims: list[int], interval: float,
                     budget_periods: int, step: float) -> tuple[float, list]:
    """Crash ``victims`` in one instant and step the clock until every
    other node's view marks each of them dead, which must happen within
    ``budget_periods``; returns the crash time and the observers."""
    t_crash = cluster.now
    for node in victims:
        cluster.crash_node(node)
    observers = [kernel for kernel in cluster.kernels.values()
                 if kernel.node_id not in victims]

    def converged() -> bool:
        return all(kernel.membership.is_dead(victim)
                   for kernel in observers for victim in victims)

    deadline = t_crash + budget_periods * interval
    while cluster.now < deadline and not converged():
        cluster.run(until=cluster.now + step)
    assert converged(), (
        f"n={len(cluster.kernels)}: views did not mark {len(victims)} "
        f"crashed node(s) dead within {budget_periods} periods")
    return t_crash, observers


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
    t_crash, observers = _crash_and_watch(cluster, [victim], interval,
                                          budget_periods, interval / 4.0)
    suspect_lat: list[float] = []
    confirm_lat: list[float] = []
    for kernel in observers:
        first: dict[str, float] = {}
        for t, peer, state, _inc in kernel.membership.transitions:
            if peer == victim and t >= t_crash and state not in first:
                first[state] = t
        if "suspect" in first:
            suspect_lat.append(first["suspect"] - t_crash)
        if "dead" in first:
            confirm_lat.append(first["dead"] - t_crash)
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
    t_crash, survivors = _crash_and_watch(cluster, victims, interval,
                                          budget_periods, interval / 2.0)
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
# churn invariant rows (chaos scenarios, single-process sim)
# ----------------------------------------------------------------------

def churn_chaos(n_nodes: int, seed: int = 7,
                   scheduler: str = "heap") -> Scenario:
    """The acceptance churn scenario: drops plus scheduled leave/crash
    churn at ``n_nodes`` with SWIM membership on."""
    return chaos.scenario(
        seed, n_nodes=n_nodes, posts=150, drop_rate=0.05,
        crash_period=None,
        config={"swim_interval": 0.05, "scheduler": scheduler},
        churn_period=0.25, churn_down=0.4, max_down=max(2, n_nodes // 16),
        settle=12.0)


def run_churn_row(n_nodes: int, seed: int = 7,
                  scheduler: str = "heap") -> dict:
    started = time.perf_counter()
    outcome = run_scenario(churn_chaos(n_nodes, seed, scheduler))
    wall = time.perf_counter() - started
    assert not outcome.violations, (
        f"churn n={n_nodes}: {outcome.violations[:3]}")
    messages = outcome.message_stats.get("sent", 0)
    return {
        "nodes": n_nodes, "seed": seed, "scheduler": scheduler,
        "posts": outcome.posts,
        "messages": messages,
        "wall": {"seconds": wall,
                 "msgs_per_sec": messages / wall if wall else 0.0},
        "executed_once": outcome.executed_once,
        "noticed": len(outcome.notices),
        "accounted": outcome.accounted_rate,
        "churn_events": len(outcome.churn_events),
        "leaves": sum(1 for _t, _n, kind in outcome.churn_events
                      if kind == "leave"),
        "rejoins": outcome.metrics.get("kernel.membership.rejoins", 0),
        "refutations": outcome.metrics.get(
            "kernel.membership.refutations", 0),
        "digest": outcome.digest,
    }


# ----------------------------------------------------------------------
# sharded churn (multi-process transport)
# ----------------------------------------------------------------------

#: the sharded churn row's schedule: one departure every ``period``
#: between ``start`` and ``end``, each down for ``down_time``
SHARDED_CHURN = {"period": 0.25, "down_time": 0.4, "leave_fraction": 0.5,
                 "start": 0.3, "end": 2.3}


def run_churn_sharded(n_nodes: int, shard_count: int, seed: int = 7,
                      posts_per_node: int = 60,
                      interval: float = 0.05) -> dict:
    """The sharded churn row: stable-half posts under other-half churn
    (:func:`repro.bench.scale.posts` with ``churn``), with zero lost
    posts and every stable view converged once churn ends."""
    post_end = posts_per_node * interval + 0.1
    settle = 4.0
    until = max(post_end, SHARDED_CHURN["end"]
                + SHARDED_CHURN["down_time"]) + settle
    started = time.perf_counter()
    row = run_posts(n_nodes, shard_count, until=until, seed=seed,
                    posts_per_node=posts_per_node, interval=interval,
                    churn=SHARDED_CHURN)
    wall = time.perf_counter() - started
    results = row["shard_results"]
    return {
        "nodes": n_nodes, "shards": shard_count, "seed": seed,
        "raised": row["raised"], "executed": row["executed"],
        "departures": sum(r["departures"] for r in results),
        "leaves": sum(r["leaves"] for r in results),
        # every stable view clean (no suspects, no deads) after churn
        "converged": all(r["converged"] for r in results),
        "cross_shard": row["cross_shard"],
        "windows": row["windows"],
        "wall": {"seconds": wall},
        "digest": row["digest"],
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
        # zero lost posts, views converged, churn genuinely injected
        assert row["executed"] == row["raised"] and row["converged"], row
        assert row["departures"] > 0, row
        assert row["cross_shard"] > 0, "churn run never crossed a shard"
