"""E13: overload control — latency-vs-offered-load to the knee and past it.

Drives the open-loop generator (:mod:`repro.bench.workloads`) against a
cluster of service objects whose master handler threads charge a fixed
``service_time`` per post, so the cluster has a hard service capacity of
``(n_nodes - 1) / service_time`` posts per virtual second. Two question
sets:

* **the knee curve** — offered load swept from well under capacity to
  3x past it, with overload control off (the seed behaviour: queues and
  p99 grow without bound past the knee) and on (admission gate +
  flow-control window hold p99 near the watermark while goodput stays
  at capacity);
* **the policy matrix at 2x overload** — ``drop`` (§7.2 undeliverable
  notices for shed posts), ``degrade`` (reliable -> fire-and-forget
  datagrams for idempotent posts), ``defer`` (durable posts parked to
  the transactional outbox and drained after the storm), plus a bursty
  fan-out storm and a weighted-fair two-tenant scenario.

Every run proves each offered post **executed, noticed,
shed-with-notice, or deferred-then-executed — never silently lost** (the
PR 5 invariant extended to load shedding): no post is left in the
open-post table, ``Cluster.audit()`` finds nothing, and the per-post
execution map shows no post (or fan-out member) run twice. Goodput and
latency are virtual-time, so every figure is a function of the seed
alone. For a custom size call ``run_overload(OverloadSpec(...))``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro import Cluster, ClusterConfig, Decision, DistObject, entry, on_event
from repro.bench.harness import Result, Table
from repro.bench.workloads import (
    FANOUT,
    MUTED_CATEGORIES,
    WorkloadSpec,
    build_schedule,
    drive,
    percentile,
    summarize,
)

OVERLOAD_EVENT = "OVERLOAD"

#: what every overload cluster runs with unless ``OverloadSpec.config``
#: says otherwise
BASE_CONFIG = {"reliable_delivery": True}

#: offered-load multiples for the knee sweep (1.0 = service capacity)
KNEE_MULTIPLES = (0.5, 0.8, 1.2, 2.0, 3.0)


@dataclass
class OverloadSpec:
    """One E13 configuration; scenario runs derive from it via replace."""

    seed: int = 0
    n_nodes: int = 4
    #: arrival window, virtual seconds
    duration: float = 2.0
    #: per-post master-handler compute at the sinks
    service_time: float = 2e-3
    n_objects: int = 6
    #: offered load as a multiple of service capacity
    offered_x: float = 2.0
    arrival: str = "poisson"
    zipf_s: float = 1.1
    burst_factor: float = 8.0
    burst_fraction: float = 0.125
    burst_cycle: float = 0.25
    diurnal_depth: float = 0.0
    #: every Nth arrival is a group fan-out storm (0 = never)
    fanout_every: int = 0
    group_size: int = 3
    tenants: tuple = (0,)
    tenant_rates: tuple = ()
    #: overload-control knobs applied when control is on
    policy: str = "drop"
    flow_credits: int = 8
    admission_high: int = 32
    admission_low: int | None = None
    tenant_weights: dict = field(default_factory=dict)
    durable: bool = False
    #: :class:`~repro.ClusterConfig` overrides laid over
    #: :data:`BASE_CONFIG`. Degrade runs set ``post_deadline`` past the
    #: worst queueing delay so the datagram-loss backstop does not fire
    #: §7.2 notices for posts that are merely queued deep
    config: dict[str, Any] = field(default_factory=dict)
    #: extra virtual time after the arrival window for fan-out scenarios
    #: (sink threads sleep forever, so those runs cannot idle out)
    settle: float = 4.0

    def capacity(self) -> float:
        """Service capacity, posts per virtual second."""
        return (self.n_nodes - 1) / self.service_time

    def offered_rate(self) -> float:
        return self.offered_x * self.capacity()


class OverloadSink(DistObject):
    """Service object: fixed compute per post, per-post accounting."""

    def __init__(self, service_time: float, state: dict):
        super().__init__()
        self.service_time = service_time
        self.state = state
        self.seen = 0

    @on_event(OVERLOAD_EVENT)
    def on_post(self, ctx, block):
        yield ctx.compute(self.service_time)
        self.seen += 1
        state = self.state
        pid = block.user_data
        state["executions"][pid] = state["executions"].get(pid, 0) + 1
        tenant = block.raiser_node
        state["by_tenant"][tenant] = state["by_tenant"].get(tenant, 0) + 1
        state["samples"].append(ctx.now - block.raised_at)
        state["last_done"] = ctx.now
        if ctx.now <= state["window_end"]:
            state["in_window"] += 1
        return None


class StormMember(DistObject):
    """Group-member thread body: absorbs fan-out posts, keeps accounts."""

    @entry
    def absorb(self, ctx, event, state, hold):
        def on_event_(hctx, block):
            yield hctx.compute(1e-6)
            pid = block.user_data
            state["executions"][pid] = state["executions"].get(pid, 0) + 1
            state["samples"].append(hctx.now - block.raised_at)
            state["last_done"] = hctx.now
            if hctx.now <= state["window_end"]:
                state["in_window"] += 1
            return Decision.RESUME

        yield ctx.attach_handler(event, on_event_)
        yield ctx.sleep(hold)
        return "done"


def _build(spec: OverloadSpec, control: bool) -> Cluster:
    knobs: dict[str, Any] = dict(
        BASE_CONFIG, seed=spec.seed, n_nodes=spec.n_nodes,
        durable_delivery=spec.durable)
    if control:
        knobs.update(flow_credits=spec.flow_credits,
                     admission_high=spec.admission_high,
                     admission_low=spec.admission_low,
                     overload_policy=spec.policy,
                     tenant_weights=dict(spec.tenant_weights))
    cluster = Cluster(ClusterConfig(**{**knobs, **spec.config}))
    cluster.tracer.mute(*MUTED_CATEGORIES)
    cluster.register_event(OVERLOAD_EVENT)
    return cluster


def _workload(spec: OverloadSpec) -> WorkloadSpec:
    return WorkloadSpec(
        seed=spec.seed, duration=spec.duration, rate=spec.offered_rate(),
        arrival=spec.arrival, burst_factor=spec.burst_factor,
        burst_fraction=spec.burst_fraction, burst_cycle=spec.burst_cycle,
        diurnal_depth=spec.diurnal_depth, n_targets=spec.n_objects,
        zipf_s=spec.zipf_s, fanout_every=spec.fanout_every,
        tenants=spec.tenants, tenant_rates=spec.tenant_rates)


def run_overload(spec: OverloadSpec, control: bool = True) -> dict[str, Any]:
    """One open-loop run; returns the accounting + metrics row.

    Raises if any offered post is unaccounted — executed the wrong
    number of times with no notice, or lost without a §7.2 signal.
    """
    cluster = _build(spec, control)
    service_nodes = range(1, spec.n_nodes)
    state: dict[str, Any] = {"executions": {}, "by_tenant": {},
                             "samples": [], "in_window": 0,
                             "window_end": float("inf"), "last_done": 0.0}
    caps = [cluster.create_object(OverloadSink, spec.service_time, state,
                                  node=(i % (spec.n_nodes - 1)) + 1)
            for i in range(spec.n_objects)]
    gid = None
    if spec.fanout_every:
        gid = cluster.new_group()
        members = [cluster.create_object(StormMember, node=node)
                   for node in service_nodes][:spec.group_size]
        for node, cap in enumerate(members, start=1):
            cluster.spawn(cap, "absorb", OVERLOAD_EVENT, state, 1e9,
                          at=node, group=gid)
        cluster.run(until=cluster.now + 0.1)  # handlers attach

    notices: dict[int, int] = {}

    def on_undeliverable(block: Any, target: Any) -> None:
        pid = block.user_data
        if isinstance(pid, int):
            notices[pid] = notices.get(pid, 0) + 1

    cluster.events.on_undeliverable = on_undeliverable

    schedule = build_schedule(_workload(spec))
    fired = {"next": 0}
    raise_external = cluster.events.raise_external

    def fire(arrival: Any) -> None:
        pid = fired["next"]
        fired["next"] += 1
        target = gid if arrival.target == FANOUT else caps[arrival.target]
        raise_external(OVERLOAD_EVENT, target, from_node=arrival.tenant,
                       user_data=pid)

    t0 = drive(cluster, schedule, fire)
    state["window_end"] = t0 + spec.duration
    if gid is not None:
        # sink threads sleep ~forever; run a fixed drain window instead
        cluster.run(until=t0 + spec.duration + spec.settle,
                    max_events=None)
    else:
        cluster.run(max_events=None)  # to quiescence: full drain
    # time to drain the backlog, measured to the *last execution* (the
    # simulator may idle further while no-op backstop timers expire)
    drain = max(0.0, state["last_done"] - (t0 + spec.duration))

    overdelivered = _overdelivered(spec, schedule, state["executions"])
    executed = sum(state["executions"].values())
    offered = len(schedule)
    capacity_posts = spec.capacity() * spec.duration
    metrics = cluster.metrics()
    # A post neither executed nor noticed is still in the open-post
    # table: lost, or hung behind a handler. Read here, not left to the
    # audit, whose open half needs an idle scheduler: the fan-out runs'
    # group members sleep for good.
    lost = metrics["events.settle.open"]
    violations = cluster.audit()
    rel = cluster.reliability_stats()
    store = cluster.durability_stats()
    if spec.durable:
        assert store.get("pending", 0) == 0, \
            f"durable run left {store['pending']} outbox entries pending"
    latency = state["samples"]
    row = {
        "control": control, "policy": spec.policy,
        "offered_x": spec.offered_x, "offered_posts": offered,
        "executed": executed,
        "goodput_frac": round(
            state["in_window"] / max(1.0, min(offered, capacity_posts)), 4),
        "p50_latency": round(percentile(latency, 0.50), 6),
        "p99_latency": round(percentile(latency, 0.99), 6),
        "drain_time": round(drain, 4),
        "shed_dropped": metrics["events.admission.shed_dropped"],
        "shed_degraded": metrics["events.admission.shed_degraded"],
        "shed_deferred": metrics["events.admission.shed_deferred"],
        "gate_depth_hwm": metrics["events.admission.depth_hwm"],
        "notices": sum(notices.values()),
        "inflight_hwm": rel.get("inflight_hwm", 0),
        "flow_parked": rel.get("flow_parked", 0),
        "flow_halvings": rel.get("flow_halvings", 0),
        "outbox_deferred": store.get("deferred", 0),
        "outbox_redelivered": store.get("redelivered", 0),
        "lost": lost, "overdelivered": len(overdelivered),
        "per_tenant_executed": dict(sorted(state["by_tenant"].items())),
        "workload": summarize(schedule, spec.duration),
    }
    assert not lost, f"{lost} posts silently lost (no execution, no notice)"
    assert not overdelivered, (
        f"posts over-delivered: {sorted(overdelivered)[:10]}")
    assert not violations, list(map(str, violations[:3]))
    return row


def _overdelivered(spec: OverloadSpec, schedule: list,
                   executions: dict) -> list[int]:
    """Posts whose handlers ran more than the post allows: twice, or a
    fan-out run by some members only (a post that ran nowhere is either
    noticed or still in the open-post table)."""
    over = []
    for pid, arrival in enumerate(schedule):
        ran = executions.get(pid, 0)
        if arrival.target != FANOUT:
            if ran > 1:
                over.append(pid)
        elif ran not in (0, spec.group_size):
            over.append(pid)
    return over


def run_overload_sweep(**spec: Any) -> Result:
    """E13: knee sweep + policy matrix at 2x over ``OverloadSpec(**spec)``."""
    spec = OverloadSpec(**spec)
    knee: dict[str, Any] = {}
    policies: dict[str, Any] = {}
    table = Table(
        title=f"Overload (E13): capacity {spec.capacity():.0f} posts/s, "
              f"{spec.duration}s window, Zipf(s={spec.zipf_s}) over "
              f"{spec.n_objects} objects, high={spec.admission_high}, "
              f"credits={spec.flow_credits}",
        columns=["scenario", "ctl", "x", "offered", "executed", "goodput",
                 "p50", "p99", "drain", "shed", "notices", "lost"])

    def record(scenario: str, row: dict[str, Any]) -> None:
        shed = (row["shed_dropped"] + row["shed_degraded"]
                + row["shed_deferred"])
        table.add(scenario, "on" if row["control"] else "off",
                  row["offered_x"], row["offered_posts"], row["executed"],
                  row["goodput_frac"], row["p50_latency"],
                  row["p99_latency"], row["drain_time"], shed,
                  row["notices"], row["lost"])

    for mult in KNEE_MULTIPLES:
        point = replace(spec, offered_x=mult, policy="drop")
        knee[f"x{mult}"] = {"off": run_overload(point, control=False),
                            "on": run_overload(point, control=True)}
        record(f"knee-x{mult}", knee[f"x{mult}"]["off"])
        record(f"knee-x{mult}", knee[f"x{mult}"]["on"])

    two_x = replace(spec, offered_x=2.0)
    scenarios = {
        "drop": replace(two_x, policy="drop"),
        "degrade": replace(two_x, policy="degrade",
                           config={**spec.config, "post_deadline": 30.0}),
        "defer": replace(two_x, policy="defer", durable=True),
        "storm": replace(two_x, policy="drop", arrival="bursty",
                         fanout_every=5),
        "fair": replace(two_x, policy="drop", tenants=(0, 1),
                        tenant_rates=(4.0, 1.0),
                        tenant_weights={0: 1.0, 1: 1.0}),
    }
    for name, scenario_spec in scenarios.items():
        policies[name] = run_overload(scenario_spec, control=True)
        record(name, policies[name])

    table.note("knee: drop policy, control off vs on; goodput is "
               "executed-in-window / min(offered, capacity) posts")
    table.note("policies at 2x: drop sheds with notices, degrade "
               "downgrades to datagrams, defer parks durable posts to "
               "the outbox and drains after the storm")
    table.note("p50/p99 are virtual raise->deliver seconds over "
               "delivered posts; lost must be 0 everywhere")
    return Result(table, detail={
        "knee": knee, "policies": policies,
        "spec": dict(asdict(spec), capacity=spec.capacity())})


def check_overload(result: Result) -> None:
    """The E13 acceptance bars."""
    results = result.detail
    knee_on_2x = results["knee"]["x2.0"]["on"]
    knee_off_2x = results["knee"]["x2.0"]["off"]
    # Nothing silently lost anywhere (run_overload already asserts
    # per-run; re-check the committed rows).
    for group in results["knee"].values():
        for row in group.values():
            assert row["lost"] == 0 and row["overdelivered"] == 0, row
    # >= 90% goodput at 2x overload with control on.
    assert knee_on_2x["goodput_frac"] >= 0.90, knee_on_2x
    # Bounded p99 with control on: the admission watermark caps queueing,
    # where the uncontrolled run's p99 grows with the arrival window.
    assert knee_on_2x["p99_latency"] <= 0.2 * knee_off_2x["p99_latency"], \
        (knee_on_2x, knee_off_2x)
    # Shedding engaged, every shed post was noticed or deferred.
    assert knee_on_2x["shed_dropped"] > 0, knee_on_2x
    assert knee_on_2x["notices"] >= knee_on_2x["shed_dropped"], knee_on_2x
    # Under capacity the gate stays out of the way.
    assert results["knee"]["x0.5"]["on"]["shed_dropped"] == 0
    policies = results["policies"]
    assert policies["degrade"]["shed_degraded"] > 0, policies["degrade"]
    defer = policies["defer"]
    # Durable 2x overload: every post deferred-then-executed, none lost.
    assert defer["shed_deferred"] > 0, defer
    assert defer["executed"] == defer["offered_posts"], defer
    assert defer["outbox_redelivered"] >= defer["shed_deferred"], defer
    storm = policies["storm"]
    # Bursty fan-out storm: flow control parks the burst head.
    assert storm["flow_parked"] > 0, storm
    fair = policies["fair"]
    per_tenant = fair["per_tenant_executed"]
    offered = fair["workload"]["tenant_counts"]
    # Weighted-fair shedding: the light tenant (1/5 of offered load,
    # half the admitted share) keeps a larger fraction of its posts
    # than the hot tenant that caused the overload.
    hot = per_tenant.get(0, 0) / max(1, offered.get(0, 1))
    light = per_tenant.get(1, 0) / max(1, offered.get(1, 1))
    assert light > hot, (per_tenant, offered)
