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
alone. For a custom run call
``overload_row(run_scenario(scenario(WorkloadSpec(...))), offered_x)``.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Any

from repro.bench.harness import Result, Table
from repro.bench.scenario import (
    OBJECT,
    SETUP,
    Outcome,
    Scenario,
    Sinks,
    run_scenario,
)
from repro.bench.workloads import FANOUT, WorkloadSpec, percentile, summarize

#: what every overload cluster runs with unless ``config`` says otherwise
BASE_CONFIG = {"reliable_delivery": True}

#: the service: ``N_OBJECTS`` sinks spread over nodes 1.. of
#: ``N_NODES``, each computing ``SERVICE_TIME`` per post
N_NODES, N_OBJECTS, SERVICE_TIME = 4, 6, 2e-3
#: service capacity, posts per virtual second
CAPACITY = (N_NODES - 1) / SERVICE_TIME
#: members of the group a fan-out storm reaches
GROUP_SIZE = 3
#: extra virtual time after the arrival window for fan-out scenarios
#: (member threads sleep for good, so those runs cannot idle out)
SETTLE = 4.0

#: overload-control knobs applied when control is on, beside the policy
CONTROL = {"flow_credits": 8, "admission_high": 32, "admission_low": None,
           "tenant_weights": {}}

#: offered-load multiples for the knee sweep (1.0 = service capacity)
KNEE_MULTIPLES = (0.5, 0.8, 1.2, 2.0, 3.0)


def scenario(workload: WorkloadSpec, policy: str | None = "drop",
             durable: bool = False, tenant_weights: dict | None = None,
             config: dict[str, Any] | None = None) -> Scenario:
    """``workload`` against the service, with overload control under
    ``policy`` (None: control off). ``config`` is laid over the rest;
    degrade runs set ``post_deadline`` past the worst queueing delay so
    the datagram-loss backstop does not fire §7.2 notices for posts
    that are merely queued deep."""
    knobs: dict[str, Any] = dict(
        BASE_CONFIG, seed=workload.seed, n_nodes=N_NODES,
        durable_delivery=durable)
    if policy is not None:
        knobs.update(CONTROL, overload_policy=policy,
                     tenant_weights=dict(tenant_weights or {}))
    fanout = bool(workload.fanout_every)
    return Scenario(
        config={**knobs, **(config or {})},
        sinks=Sinks(OBJECT, tuple(i % (N_NODES - 1) + 1
                                  for i in range(workload.n_targets)),
                    compute=SERVICE_TIME,
                    group=tuple(range(1, GROUP_SIZE + 1)) if fanout else ()),
        arrivals=workload, start=SETUP if fanout else 0.0,
        settle=SETTLE if fanout else None)


def overload_row(outcome: Outcome, offered_x: float) -> dict[str, Any]:
    """One open-loop run's accounting + metrics row.

    Raises if any offered post is unaccounted — executed the wrong
    number of times with no notice, or lost without a §7.2 signal.
    """
    workload, schedule = outcome.scenario.arrivals, outcome.schedule
    control = "overload_policy" in outcome.scenario.config
    # a knee row with control off reports the policy its "on" twin ran
    policy = outcome.scenario.config.get("overload_policy", "drop")
    durable = outcome.scenario.config["durable_delivery"]
    # time to drain the backlog, measured to the *last execution* (the
    # simulator may idle further while no-op backstop timers expire)
    drain = max(0.0, outcome.last_done - (outcome.t0 + workload.duration))
    runs = outcome.runs
    # Posts whose handlers ran more than the post allows: twice, or a
    # fan-out run by some members only (a post that ran nowhere is
    # either noticed or still in the open-post table).
    overdelivered = [pid for pid in range(outcome.posts)
                     if runs[pid] > outcome.allowed(pid)
                     or (outcome.targets[pid] == FANOUT
                         and runs[pid] not in (0, outcome.allowed(pid)))]
    per_tenant: dict[int, int] = {}
    for pid, arrival in enumerate(schedule):
        if arrival.target != FANOUT and runs[pid]:
            per_tenant[arrival.tenant] = (per_tenant.get(arrival.tenant, 0)
                                          + runs[pid])
    offered = len(schedule)
    capacity_posts = CAPACITY * workload.duration
    metrics = outcome.metrics
    # A post neither executed nor noticed is still in the open-post
    # table: lost, or hung behind a handler. Read here, not left to the
    # audit, whose open half needs an idle scheduler: the fan-out runs'
    # group members sleep for good.
    lost = metrics["events.settle.open"]
    rel = outcome.reliability
    store = outcome.durability
    if durable:
        assert store.get("pending", 0) == 0, \
            f"durable run left {store['pending']} outbox entries pending"
    latency = outcome.latencies
    row = {
        "control": control, "policy": policy,
        "offered_x": offered_x, "offered_posts": offered,
        "executed": sum(runs),
        "goodput_frac": round(
            outcome.in_window / max(1.0, min(offered, capacity_posts)), 4),
        "p50_latency": round(percentile(latency, 0.50), 6),
        "p99_latency": round(percentile(latency, 0.99), 6),
        "drain_time": round(drain, 4),
        "shed_dropped": metrics["events.admission.shed_dropped"],
        "shed_degraded": metrics["events.admission.shed_degraded"],
        "shed_deferred": metrics["events.admission.shed_deferred"],
        "gate_depth_hwm": metrics["events.admission.depth_hwm"],
        "notices": sum(outcome.notices.values()),
        "inflight_hwm": rel.get("inflight_hwm", 0),
        "flow_parked": rel.get("flow_parked", 0),
        "flow_halvings": rel.get("flow_halvings", 0),
        "outbox_deferred": store.get("deferred", 0),
        "outbox_redelivered": store.get("redelivered", 0),
        "lost": lost, "overdelivered": len(overdelivered),
        "per_tenant_executed": dict(sorted(per_tenant.items())),
        "workload": summarize(schedule, workload.duration),
    }
    assert not lost, f"{lost} posts silently lost (no execution, no notice)"
    assert not overdelivered, (
        f"posts over-delivered: {sorted(overdelivered)[:10]}")
    assert not outcome.audit, list(map(str, outcome.audit[:3]))
    return row


def run_overload_sweep(duration: float = 2.0, seed: int = 0) -> Result:
    """E13: knee sweep + policy matrix at 2x over a ``duration``-second
    Poisson arrival window."""
    two_x = WorkloadSpec(seed=seed, duration=duration, rate=2.0 * CAPACITY,
                         burst_cycle=0.25, n_targets=N_OBJECTS)
    knee: dict[str, Any] = {}
    policies: dict[str, Any] = {}
    table = Table(
        title=f"Overload (E13): capacity {CAPACITY:.0f} posts/s, "
              f"{duration}s window, Zipf(s={two_x.zipf_s}) over "
              f"{N_OBJECTS} objects, high={CONTROL['admission_high']}, "
              f"credits={CONTROL['flow_credits']}",
        columns=["scenario", "ctl", "x", "offered", "executed", "goodput",
                 "p50", "p99", "drain", "shed", "notices", "lost"])

    def record(name: str, row: dict[str, Any]) -> dict[str, Any]:
        shed = (row["shed_dropped"] + row["shed_degraded"]
                + row["shed_deferred"])
        table.add(name, "on" if row["control"] else "off",
                  row["offered_x"], row["offered_posts"], row["executed"],
                  row["goodput_frac"], row["p50_latency"],
                  row["p99_latency"], row["drain_time"], shed,
                  row["notices"], row["lost"])
        return row

    for mult in KNEE_MULTIPLES:
        point = replace(two_x, rate=mult * CAPACITY)
        knee[f"x{mult}"] = {
            mode: record(f"knee-x{mult}", overload_row(
                run_scenario(scenario(point, policy)), mult))
            for mode, policy in (("off", None), ("on", "drop"))}

    scenarios = {
        "drop": scenario(two_x, "drop"),
        "degrade": scenario(two_x, "degrade",
                            config={"post_deadline": 30.0}),
        "defer": scenario(two_x, "defer", durable=True),
        "storm": scenario(replace(two_x, arrival="bursty", fanout_every=5),
                          "drop"),
        "fair": scenario(replace(two_x, tenants=(0, 1),
                                 tenant_rates=(4.0, 1.0)),
                         "drop", tenant_weights={0: 1.0, 1: 1.0}),
    }
    for name, chosen in scenarios.items():
        policies[name] = record(name, overload_row(run_scenario(chosen),
                                                   2.0))

    table.note("knee: drop policy, control off vs on; goodput is "
               "executed-in-window / min(offered, capacity) posts")
    table.note("policies at 2x: drop sheds with notices, degrade "
               "downgrades to datagrams, defer parks durable posts to "
               "the outbox and drains after the storm")
    table.note("p50/p99 are virtual raise->deliver seconds over "
               "delivered posts; lost must be 0 everywhere")
    spec = {key: value for key, value in asdict(two_x).items()
            if key not in ("rate", "n_targets")}
    spec.update(n_nodes=N_NODES, service_time=SERVICE_TIME,
                n_objects=N_OBJECTS, offered_x=2.0, group_size=GROUP_SIZE,
                policy="drop", **CONTROL, durable=False, config={},
                settle=SETTLE, capacity=CAPACITY)
    return Result(table, detail={"knee": knee, "policies": policies,
                                 "spec": spec})


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
