"""Deterministic chaos harness: event delivery under drops, duplicates,
partitions and node crashes.

The paper motivates asynchronous events with the observation that in a
distributed system "unexpected occurrences are far more probable than in
centralized systems" (§1) but leaves fault tolerance out of scope (§7.2).
This harness closes the loop for the reproduction: :func:`scenario`
draws an event-raising workload and a seeded schedule of network faults
and node crash/recover cycles into one
:class:`~repro.bench.scenario.Scenario`, and the
:class:`~repro.bench.scenario.Outcome` of running it is checked for the
delivery guarantees the reliability layer is supposed to provide:

* **exactly-once execution** — no post's handler runs twice, however many
  duplicates the wire creates;
* **no lost-or-hung raise** — every post either executes its handler or
  surfaces a dead-target/undeliverable notice to the raiser in bounded
  time;
* **convergence after heal** — once partitions heal and crashed nodes
  recover, probe posts to every target execute again.

Everything is driven by virtual time and seeded RNG streams, so two runs
of the same scenario are bit-identical — the outcome's ``digest`` makes
that checkable in one comparison.
"""

from __future__ import annotations

import itertools
import random
from typing import Any

from repro.bench.harness import Result, Table
from repro.bench.scenario import (
    DURABLE,
    SETUP,
    THREAD,
    Faults,
    Grid,
    Scenario,
    Sinks,
    run_scenario,
)

#: what every chaos cluster runs with unless ``config`` says otherwise;
#: ``post_deadline`` is the §7.2 backstop (a post unresolved after this
#: long is undeliverable)
BASE_CONFIG = {"reliable_delivery": True, "post_deadline": 1.5,
               "rpc_default_timeout": 0.5}


def scenario(seed: int = 0, *, locator: str = "path", n_nodes: int = 4,
             posts: int = 150, interval: float = 0.02,
             drop_rate: float = 0.1, duplicate_rate: float = 0.05,
             crash_period: float | None = 0.8, down_time: float = 0.5,
             partition_period: float | None = None,
             partition_length: float = 0.3, settle: float = 20.0,
             durable: bool = False,
             handler_faults: dict[str, float] | None = None,
             churn_period: float | None = None, churn_down: float = 0.5,
             leave_fraction: float = 0.5, max_down: int = 4,
             config: dict[str, Any] | None = None) -> Scenario:
    """One seeded chaos scenario: node 0 raises ``posts`` posts, one per
    ``interval``, each at a sink on a random other node, and never
    crashes.

    The sinks are long-lived threads, or with ``durable`` persistent
    objects under ``durable_delivery`` (threads die with their node,
    objects do not, so only objects can promise zero lost posts). A
    target node crashes every ``crash_period`` for ``down_time``; one is
    isolated every ``partition_period`` for ``partition_length``; with
    ``churn_period`` one departs (a graceful leave with probability
    ``leave_fraction``, else a crash) and rejoins ``churn_down`` later,
    never taking more than ``max_down`` nodes down. ``handler_faults``
    maps "hang" / "raise" / "poison" to per-post injection rates.
    ``config`` is laid over :data:`BASE_CONFIG` (supervision, overload,
    SWIM, journal and scheduler knobs all default off, so an empty dict
    keeps same-seed digests identical to runs that predate each knob).

    Everything is drawn from one seeded stream, in a fixed order:
    targets, handler faults, crashes, churn, isolations. A knob that is
    off draws nothing, so turning one on never moves the others.
    """
    nodes = tuple(range(1, n_nodes))
    rng = random.Random(seed ^ 0x5EED)
    targets = tuple(rng.choice(nodes) - 1 for _ in range(posts))
    injected: dict[int, str] = {}
    if handler_faults:
        kinds = ("hang", "raise", "poison")
        # cumulative bounds: roll < hang, < hang + raise, < ... + poison
        bounds = list(itertools.accumulate(
            handler_faults.get(kind, 0.0) for kind in kinds))
        for pid in range(posts):
            roll = rng.random()
            kind = next((k for k, b in zip(kinds, bounds) if roll < b), None)
            if kind is not None:
                injected[pid] = kind
    active = posts * interval

    def every(period: float | None) -> list[float]:
        times, t = [], period
        while period is not None and t < active:
            times.append(t)
            t += period
        return times

    crashes = tuple((t, rng.choice(nodes), down_time)
                    for t in every(crash_period))
    churn = []
    for t in every(churn_period):
        node = rng.choice(nodes)
        kind = "leave" if rng.random() < leave_fraction else "crash"
        churn.append((t, node, kind, churn_down))
    isolations = tuple((t, rng.choice(nodes), partition_length)
                       for t in every(partition_period))
    return Scenario(
        config={**BASE_CONFIG, "n_nodes": n_nodes, "seed": seed,
                "locator": locator, "durable_delivery": durable,
                **(config or {})},
        sinks=Sinks(DURABLE if durable else THREAD, nodes,
                    # the durable handler is slow against the post
                    # interval, so a crash catches posts queued but
                    # not yet executed
                    compute=5e-3 if durable else 1e-6),
        arrivals=(Grid(0, targets, interval, pump=False),),
        faults=Faults(drop_rate, duplicate_rate, crashes, tuple(churn),
                      max_down, isolations, injected),
        start=SETUP, settle=settle, probe=True)


def run_chaos_sweep(drop_rates: list[float], locators: list[str],
                    **base: Any) -> Result:
    """C1: sweep drop rate x locator over ``scenario(**base)``."""
    first = scenario(**base)
    crash_period = base.get("crash_period", 0.8)
    result = Result(Table(
        title="Chaos: delivery guarantees vs drop rate "
              f"({len(first.arrivals[0].targets)} posts, "
              f"{first.config['n_nodes']} nodes, "
              f"crash_period={crash_period})",
        columns=["locator", "drop_rate", "posts", "executed_once",
                 "noticed", "success_rate", "accounted", "retransmits/post",
                 "dup_suppressed", "p99_latency"]),
        detail={"violations": []})
    for locator in locators:
        for rate in drop_rates:
            outcome = run_scenario(scenario(**{**base, "locator": locator,
                                               "drop_rate": rate}))
            result.digests[f"{locator}@{rate}"] = outcome.digest
            result.detail["violations"] += [
                f"{locator}@{rate}: {v}" for v in outcome.violations]
            result.table.add(
                locator, rate, outcome.posts, outcome.executed_once,
                len(outcome.notices), round(outcome.success_rate, 4),
                round(outcome.accounted_rate, 4),
                round(outcome.retransmits_per_post, 3),
                outcome.reliability.get("duplicates_suppressed", 0),
                round(outcome.p99_latency, 6))
    result.table.note("accounted = executed exactly once OR raiser noticed "
                      "(1.0 = zero lost-or-hung posts)")
    result.table.note("duplicates suppressed by the channel dedup window; "
                      "handler executions are exactly-once by construction")
    return result


def check_chaos(result: Result) -> None:
    """The delivery guarantees, on every swept cell."""
    assert not result.detail["violations"], result.detail["violations"][:3]
    rows = result.table.dicts()
    for row in rows:
        # Zero hangs, zero losses: every post executed exactly once or
        # surfaced a dead-target/undeliverable notice to the raiser.
        assert row["accounted"] == 1.0, row
        # Exactly-once: executed_once counts handler runs == 1; any
        # duplicate run is a violation caught above.
        assert row["executed_once"] + row["noticed"] >= row["posts"], row
    cell = {(row["locator"], row["drop_rate"]): row for row in rows}
    for locator in {row["locator"] for row in rows}:
        # No network faults -> the channel never needs to retransmit for
        # loss; only crash windows cost deliveries.
        assert cell[locator, 0.0]["retransmits/post"] < \
            cell[locator, 0.2]["retransmits/post"]
        # Retransmission keeps delivery useful even at 20% loss, and at
        # the acceptance point (drop=0.1 with periodic crash/recover)
        # most posts still execute exactly once.
        assert cell[locator, 0.2]["success_rate"] >= 0.7
        assert cell[locator, 0.1]["success_rate"] >= 0.8
