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
``run_soak(posts=..., config={...})``.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any

from repro import Cluster, ClusterConfig, DistObject, on_event
from repro.bench.harness import Result, Table
from repro.bench.workloads import (
    MUTED_CATEGORIES,
    EventSink,
    percentile,
    zipf_weights,
)

SOAK_EVENT = "SOAK"

#: what every soak cluster runs with unless ``SoakSpec.config`` says
#: otherwise: the acceptance criterion is stated for the wheel + slab +
#: batched-routing path
BASE_CONFIG = {"scheduler": "wheel"}


@dataclass
class SoakSpec:
    """One soak configuration; the phase split is fractions of ``posts``."""

    seed: int = 0
    #: total post budget across all three phases (the committed
    #: full-size run uses 1M)
    posts: int = 1_000_000
    burst_frac: float = 0.80
    fanout_frac: float = 0.15  # durable gets the remainder
    #: Zipf object population for the burst/durable phases
    objects: int = 64
    zipf_s: float = 1.1
    #: posts fired per burst instant
    burst: int = 16
    #: virtual seconds between burst instants
    gap: float = 2e-3
    #: members per fan-out group (fanout throughput counts deliveries)
    group_size: int = 4
    #: retained latency samples per phase (drop-oldest, deterministic)
    latency_window: int = 4096
    #: :class:`~repro.ClusterConfig` overrides laid over
    #: :data:`BASE_CONFIG`
    config: dict[str, Any] = field(default_factory=dict)

    def phase_budget(self) -> dict[str, int]:
        burst = int(self.posts * self.burst_frac)
        fanout = int(self.posts * self.fanout_frac)
        # fan-out counts member deliveries; round down to whole raises
        fanout -= fanout % self.group_size
        durable = self.posts - burst - fanout
        return {"burst": burst, "fanout": fanout, "durable": durable}


class SoakSink(DistObject):
    """Passive object absorbing soak posts; samples delivery latency."""

    def __init__(self, samples: deque):
        super().__init__()
        self.seen = 0
        self._samples = samples

    @on_event(SOAK_EVENT)
    def on_soak(self, ctx, block):
        yield ctx.compute(1e-6)
        self.seen += 1
        self._samples.append(ctx.now - block.raised_at)
        return None


@dataclass
class PhaseResult:
    """One phase's figures: :meth:`row` is deterministic, ``elapsed``
    and :attr:`posts_per_sec` are the host's wall clock."""

    phase: str
    posts: int
    elapsed: float
    sim_events: int
    messages: int
    p99_latency: float
    scheduler_stats: dict[str, Any]
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def posts_per_sec(self) -> float:
        return self.posts / self.elapsed if self.elapsed else 0.0

    def row(self) -> dict[str, Any]:
        data = {
            "phase": self.phase,
            "posts": self.posts,
            "sim_events_per_post": round(self.sim_events / self.posts, 2),
            "msgs_per_post": round(self.messages / self.posts, 4),
            "p99_latency": round(self.p99_latency, 6),
            "wheel_spills": self.scheduler_stats.get("wheel_spills", 0),
            "wheel_migrations": self.scheduler_stats.get(
                "wheel_migrations", 0),
            "compactions": self.scheduler_stats.get("compactions", 0),
            "pending_at_end": self.scheduler_stats.get("pending", 0),
        }
        data.update(self.extra)
        return data


def _build(spec: SoakSpec, **phase: Any) -> Cluster:
    cluster = Cluster(ClusterConfig(**{
        **BASE_CONFIG, "seed": spec.seed, **phase, **spec.config}))
    cluster.tracer.mute(*MUTED_CATEGORIES)
    cluster.register_event(SOAK_EVENT)
    return cluster


def _zipf_targets(spec: SoakSpec, count: int, stream: str) -> list[int]:
    """``count`` Zipf-skewed object indices from a dedicated rng stream."""
    # seeding from a string hashes with sha512 inside Random — stable
    # across processes, unlike hash() of a str-containing tuple
    rng = random.Random(f"{spec.seed}:{stream}:{spec.objects}")
    return rng.choices(range(spec.objects),
                       weights=zipf_weights(spec.objects, spec.zipf_s),
                       k=count)


def run_burst_phase(spec: SoakSpec, posts: int) -> PhaseResult:
    """Open-loop local object-post bursts over a Zipf population."""
    cluster = _build(spec, n_nodes=2)
    samples: deque = deque(maxlen=spec.latency_window)
    caps = [cluster.create_object(SoakSink, samples, node=0)
            for _ in range(spec.objects)]
    targets = _zipf_targets(spec, posts, "burst")
    sim, t0 = cluster.sim, cluster.now
    raise_external = cluster.events.raise_external
    burst, gap = spec.burst, spec.gap

    # Self-rescheduling feeder: O(1) queue growth instead of a million
    # pre-scheduled fire callbacks.
    def pump(i: int) -> None:
        base = i * burst
        stop = min(base + burst, posts)
        for pid in range(base, stop):
            raise_external(SOAK_EVENT, caps[targets[pid]], from_node=0,
                           user_data=pid)
        if stop < posts:
            sim.call_at(t0 + (i + 1) * gap, pump, i + 1)

    sim.call_at(t0, pump, 0)
    wall = time.perf_counter()
    cluster.run(max_events=None)  # a 1M-post run legitimately needs >2M
    elapsed = time.perf_counter() - wall

    seen = sum(cluster.get_object(cap).seen for cap in caps)
    assert seen == posts, f"burst phase lost posts: {seen}/{posts}"
    return PhaseResult(
        phase="burst", posts=posts, elapsed=elapsed,
        sim_events=cluster.sim.events_processed,
        messages=cluster.message_stats()["sent"],
        p99_latency=percentile(samples, 0.99),
        scheduler_stats=cluster.scheduler_stats())


def run_fanout_phase(spec: SoakSpec, deliveries: int) -> PhaseResult:
    """Group-multicast posts; throughput counts member deliveries."""
    group = spec.group_size
    raises = deliveries // group
    cluster = _build(spec, n_nodes=group + 1)
    gid = cluster.new_group()
    sinks = [cluster.create_object(EventSink, node=node)
             for node in range(1, group + 1)]
    for node, cap in enumerate(sinks, start=1):
        cluster.spawn(cap, "absorb", SOAK_EVENT, 1e9, at=node, group=gid)
    cluster.run(until=cluster.now + 0.1)  # handlers attach

    sim, t0 = cluster.sim, cluster.now
    raise_external = cluster.events.raise_external
    gap = spec.gap

    def pump(i: int) -> None:
        raise_external(SOAK_EVENT, gid, from_node=0, user_data=i)
        if i + 1 < raises:
            sim.call_at(t0 + (i + 1) * gap, pump, i + 1)

    if raises:
        sim.call_at(t0, pump, 0)
    wall = time.perf_counter()
    cluster.run(until=t0 + raises * spec.gap + 2.0, max_events=None)
    elapsed = time.perf_counter() - wall

    delivered = cluster.metrics()["events.execute.delivered"]
    assert delivered >= raises * group, \
        f"fanout phase lost deliveries: {delivered}/{raises * group}"
    latency = cluster.events.delivery_latencies.summary()
    return PhaseResult(
        phase="fanout", posts=raises * group, elapsed=elapsed,
        sim_events=cluster.sim.events_processed,
        messages=cluster.message_stats()["sent"],
        p99_latency=latency.get("p99", 0.0),
        scheduler_stats=cluster.scheduler_stats(),
        extra={"raises": raises, "group_size": group})


def run_durable_phase(spec: SoakSpec, posts: int) -> PhaseResult:
    """Remote durable posts: journal, reliable send, outbox resolution."""
    cluster = _build(spec, n_nodes=2, durable_delivery=True)
    samples: deque = deque(maxlen=spec.latency_window)
    objects = max(1, spec.objects // 8)
    caps = [cluster.create_object(SoakSink, samples, node=1)
            for _ in range(objects)]
    targets = [t % objects for t in _zipf_targets(spec, posts, "durable")]
    sim, t0 = cluster.sim, cluster.now
    raise_external = cluster.events.raise_external
    burst, gap = spec.burst, spec.gap

    def pump(i: int) -> None:
        base = i * burst
        stop = min(base + burst, posts)
        for pid in range(base, stop):
            raise_external(SOAK_EVENT, caps[targets[pid]], from_node=0,
                           user_data=pid)
        if stop < posts:
            sim.call_at(t0 + (i + 1) * gap, pump, i + 1)

    if posts:
        sim.call_at(t0, pump, 0)
    wall = time.perf_counter()
    cluster.run(max_events=None)
    elapsed = time.perf_counter() - wall

    seen = sum(cluster.get_object(cap).seen for cap in caps)
    assert seen == posts, f"durable phase lost posts: {seen}/{posts}"
    store = cluster.durability_stats()
    assert store.get("pending", 0) == 0, \
        f"durable phase left {store['pending']} outbox entries pending"
    return PhaseResult(
        phase="durable", posts=posts, elapsed=elapsed,
        sim_events=cluster.sim.events_processed,
        messages=cluster.message_stats()["sent"],
        p99_latency=percentile(samples, 0.99),
        scheduler_stats=cluster.scheduler_stats(),
        extra={"journal_commits": store.get("commits", 0),
               "journal_appends": store.get("appends", 0)})


def run_soak(**spec: Any) -> Result:
    """E12: run all three phases of ``SoakSpec(**spec)``."""
    spec = SoakSpec(**spec)
    budget = spec.phase_budget()
    result = Result(Table(
        title=f"Soak (E12): {spec.posts} posts, {spec.objects} "
              f"Zipf(s={spec.zipf_s}) objects, burst={spec.burst}",
        columns=["phase", "posts", "sim_ev/post", "msgs/post", "p99_lat",
                 "spills", "migrations", "compactions"]),
        detail={"phases": {}, "spec": asdict(spec)})
    runners = [("burst", run_burst_phase), ("fanout", run_fanout_phase),
               ("durable", run_durable_phase)]
    total_elapsed = 0.0
    for phase, runner in runners:
        outcome = runner(spec, budget[phase])
        row = outcome.row()
        result.detail["phases"][phase] = row
        result.wall[f"{phase}_posts_per_sec"] = round(outcome.posts_per_sec, 1)
        total_elapsed += outcome.elapsed
        result.table.add(phase, row["posts"], row["sim_events_per_post"],
                         row["msgs_per_post"], row["p99_latency"],
                         row["wheel_spills"], row["wheel_migrations"],
                         row["compactions"])
    result.wall["overall_posts_per_sec"] = (
        round(spec.posts / total_elapsed, 1) if total_elapsed else 0.0)
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
