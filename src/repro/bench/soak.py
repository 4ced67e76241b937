"""Million-post soak macro-bench (E12): the hot-path speed trajectory.

Three phases exercise the post→route→deliver path end to end, sized by
one total post budget (≥1M for the committed run) and Zipf-skewed object
popularity so hot ``(object, event)`` routing-table entries dominate the
way they do in real event systems:

* ``burst`` — the bulk of the budget: open-loop bursts of object-directed
  posts at a Zipf-popular object population, raised on the objects' home
  node (the kernel fast path: no locator, no fabric messages). This is
  the throughput ceiling of the delivery engine itself.
* ``fanout`` — group-multicast posts delivered to member threads spread
  across nodes; one raise traverses the (batched) routing stack once per
  fan-out, and the phase throughput counts member deliveries.
* ``durable`` — remote durable posts: journaled write-ahead at the
  origin, sent over the reliable channel, acked and resolved through the
  outbox. The expensive end of the spectrum.

Wall-clock throughput per phase lands in the result's ``wall`` dict so
every future PR can check the speed trajectory; everything deterministic
(post/delivery counts, simulator events, scheduler stats, virtual-time
p99 delivery latency) is in the phase rows, which same-seed runs
reproduce bit-for-bit across scheduler backends. For a custom size call
``run_soak(posts=..., config={...})``; one phase alone is
``phase_row(phase, run_scenario(phase_scenario(phase, posts)))``.
"""

from __future__ import annotations

import random
from typing import Any

from repro.bench.harness import Result, Table
from repro.bench.scenario import (
    OBJECT,
    SETUP,
    Grid,
    Outcome,
    Scenario,
    Sinks,
    run_scenario,
)
from repro.bench.workloads import FANOUT, zipf_weights

#: what every soak cluster runs with unless ``config`` says otherwise:
#: the acceptance criterion is stated for the wheel + slab +
#: batched-routing path
BASE_CONFIG = {"scheduler": "wheel"}

#: the phase split, as fractions of the post budget (durable gets the
#: remainder)
BURST_FRAC, FANOUT_FRAC = 0.80, 0.15
#: Zipf object population for the burst/durable phases
OBJECTS, ZIPF_S = 64, 1.1
#: posts fired per burst instant, virtual seconds between instants
BURST, GAP = 16, 2e-3
#: members per fan-out group (fanout throughput counts deliveries)
GROUP_SIZE = 4
#: retained latency samples per phase (drop-oldest, deterministic)
LATENCY_WINDOW = 4096


def _zipf_targets(seed: int, count: int, stream: str) -> list[int]:
    """``count`` Zipf-skewed object indices from a dedicated rng stream."""
    # seeding from a string hashes with sha512 inside Random — stable
    # across processes, unlike hash() of a str-containing tuple
    rng = random.Random(f"{seed}:{stream}:{OBJECTS}")
    return rng.choices(range(OBJECTS), weights=zipf_weights(OBJECTS, ZIPF_S),
                       k=count)


def phase_scenario(phase: str, posts: int, seed: int = 0,
                   config: dict[str, Any] | None = None,
                   burst: int = BURST) -> Scenario:
    """One soak phase as a scenario; ``posts`` counts member deliveries
    for ``fanout``.

    * ``burst`` — open-loop bursts of local object posts at a Zipf
      population on node 0, the raiser's own node;
    * ``fanout`` — one group post per instant from node 0 to member
      threads on nodes 1..:data:`GROUP_SIZE`;
    * ``durable`` — the burst shape, journaled, at an eighth of the
      population on node 1.
    """
    if phase == "fanout":
        nodes, sinks = GROUP_SIZE + 1, Sinks(
            group=tuple(range(1, GROUP_SIZE + 1)))
        grid = Grid(0, (FANOUT,) * (posts // GROUP_SIZE), GAP)
    elif phase == "burst":
        nodes, sinks = 2, Sinks(OBJECT, (0,) * OBJECTS)
        grid = Grid(0, tuple(_zipf_targets(seed, posts, "burst")), GAP,
                    burst=burst)
    else:
        objects = max(1, OBJECTS // 8)
        nodes, sinks = 2, Sinks(OBJECT, (1,) * objects)
        grid = Grid(0, tuple(t % objects for t in
                             _zipf_targets(seed, posts, "durable")),
                    GAP, burst=burst)
    return Scenario(
        config={**BASE_CONFIG, "seed": seed, "n_nodes": nodes,
                "durable_delivery": phase == "durable", **(config or {})},
        sinks=sinks, arrivals=(grid,),
        # group members sleep for good: a fixed drain window instead
        start=SETUP if phase == "fanout" else 0.0,
        settle=2.0 if phase == "fanout" else None,
        latency_window=LATENCY_WINDOW)


def phase_row(phase: str, outcome: Outcome) -> dict[str, Any]:
    """A soak phase's deterministic row, once its invariants hold: every
    post ran (fanout: at least once per member), the outbox drained."""
    cluster, posts = outcome.cluster, outcome.posts
    extra: dict[str, Any] = {}
    if phase == "fanout":
        group = len(outcome.scenario.sinks.group)
        delivered = outcome.metrics["events.execute.delivered"]
        assert delivered >= posts * group, \
            f"fanout phase lost deliveries: {delivered}/{posts * group}"
        extra = {"raises": posts, "group_size": group}
        posts *= group
    else:
        executed = sum(outcome.runs)
        assert executed == posts, \
            f"{phase} phase lost posts: {executed}/{posts}"
    if phase == "durable":
        store = outcome.durability
        assert store.get("pending", 0) == 0, \
            f"durable phase left {store['pending']} outbox entries pending"
        extra = {"journal_commits": store.get("commits", 0),
                 "journal_appends": store.get("appends", 0)}
    stats = cluster.scheduler_stats()
    return {
        "phase": phase, "posts": posts,
        "sim_events_per_post": round(cluster.sim.events_processed / posts,
                                     2),
        "msgs_per_post": round(cluster.message_stats()["sent"] / posts, 4),
        "p99_latency": round(outcome.p99_latency, 6),
        "wheel_spills": stats.get("wheel_spills", 0),
        "wheel_migrations": stats.get("wheel_migrations", 0),
        "compactions": stats.get("compactions", 0),
        "pending_at_end": stats.get("pending", 0), **extra}


def run_soak(posts: int = 1_000_000, seed: int = 0,
             config: dict[str, Any] | None = None) -> Result:
    """E12: the three phases over a ``posts`` budget."""
    burst = int(posts * BURST_FRAC)
    fanout = int(posts * FANOUT_FRAC)
    # fan-out counts member deliveries; round down to whole raises
    fanout -= fanout % GROUP_SIZE
    budget = {"burst": burst, "fanout": fanout,
              "durable": posts - burst - fanout}
    spec = {"seed": seed, "posts": posts, "burst_frac": BURST_FRAC,
            "fanout_frac": FANOUT_FRAC, "objects": OBJECTS, "zipf_s": ZIPF_S,
            "burst": BURST, "gap": GAP, "group_size": GROUP_SIZE,
            "latency_window": LATENCY_WINDOW, "config": config or {}}
    result = Result(Table(
        title=f"Soak (E12): {posts} posts, {OBJECTS} "
              f"Zipf(s={ZIPF_S}) objects, burst={BURST}",
        columns=["phase", "posts", "sim_ev/post", "msgs/post", "p99_lat",
                 "spills", "migrations", "compactions"]),
        detail={"phases": {}, "spec": spec})
    total_elapsed = 0.0
    for phase, count in budget.items():
        outcome = run_scenario(phase_scenario(phase, count, seed, config))
        row = result.detail["phases"][phase] = phase_row(phase, outcome)
        elapsed = outcome.run_seconds
        result.wall[f"{phase}_posts_per_sec"] = round(
            row["posts"] / elapsed if elapsed else 0.0, 1)
        total_elapsed += elapsed
        result.table.add(phase, row["posts"], row["sim_events_per_post"],
                         row["msgs_per_post"], row["p99_latency"],
                         row["wheel_spills"], row["wheel_migrations"],
                         row["compactions"])
    result.wall["overall_posts_per_sec"] = (
        round(posts / total_elapsed, 1) if total_elapsed else 0.0)
    result.table.note("burst: local object posts (no fabric); fanout: group "
                      "multicast counted in member deliveries; durable: "
                      "journaled remote posts over the reliable channel")
    result.table.note("p99_lat is virtual raise->deliver seconds; every "
                      "column is deterministic, posts/s is in wall")
    return result


def check_soak(result: Result) -> None:
    """The phase invariants beyond what each phase asserts while it
    runs (no lost posts, outbox drained)."""
    phases = result.detail["phases"]
    # every budgeted post ran in some phase
    assert sum(row["posts"] for row in phases.values()) == \
        result.detail["spec"]["posts"]
    # burst is the home-node fast path: no locator, no fabric
    assert phases["burst"]["msgs_per_post"] == 0.0, phases["burst"]
    assert phases["burst"]["pending_at_end"] == 0, phases["burst"]
    # one fabric message per member delivery, none per raise
    assert phases["fanout"]["msgs_per_post"] == 1.0, phases["fanout"]
    durable = phases["durable"]
    # POST + ACK at the origin and APPLIED at the executing node
    assert durable["journal_appends"] >= 3 * durable["posts"], durable
    assert durable["pending_at_end"] == 0, durable
