"""Handler supervision bench (E11): what the watchdog, the buddy
circuit breaker, the dead-letter quarantine and the SWIM failure
detector buy under injected handler faults.

Three workloads, each run with supervision **on** (``handler_deadline``,
``handler_retries``, ``breaker_threshold``, ``poison_threshold``,
``swim_interval`` set) and **off** (all defaults — the pre-PR 5
behaviour):

* ``handler-faults`` — a chaos scenario with hang / transient-raise /
  poison faults injected into thread handlers, plus drops and periodic
  node crashes. Supervised runs must account every post (executed once,
  §7.2-noticed, or quarantined) with zero wedged handlers; the
  unsupervised contrast rows show the hangs and losses.
* ``durable-poison`` — the same faults against durable object posts.
  The bar tightens to *exactly-once-or-quarantined*: every journaled
  post either executes exactly once or sits inspectable in a
  dead-letter queue, never silently lost, even across crashes.
* ``buddy-breaker`` — a central monitor object serving buddy handlers
  while its node crashes and recovers. Supervised runs suspect the dead
  node via SWIM probes, fail buddy invocations fast, open the breaker
  and fall through to the local fallback handler; unsupervised runs
  wait out a full RPC timeout per post. Delivery totals are asserted
  identical — only the counters and the virtual completion time differ.

Every figure is virtual-time or a count, so same-seed runs compare
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import (
    Cluster,
    ClusterConfig,
    Decision,
    DistObject,
    entry,
    handler_entry,
)
from repro.bench import chaos
from repro.bench.harness import Result, Table
from repro.bench.scenario import Scenario, run_scenario

#: the ``ClusterConfig`` overrides the "on" rows run with; the "off"
#: rows run with none (all defaults — the pre-supervision behaviour)
SUPERVISED = {"handler_deadline": 0.05, "handler_retries": 2,
              "breaker_threshold": 3, "poison_threshold": 3,
              "swim_interval": 0.02}


@dataclass
class SuperviseSpec:
    """One E11 configuration (shared by the on/off rows)."""

    seed: int = 7
    posts: int = 60
    #: injected handler-fault rates by kind
    hang_rate: float = 0.06
    raise_rate: float = 0.06
    poison_rate: float = 0.05
    drop_rate: float = 0.1
    crash_period: float = 0.6
    down_time: float = 0.4
    #: buddy-breaker workload shape
    buddy_posts: int = 40
    buddy_gap: float = 0.05
    rpc_timeout: float = 0.15


def _chaos_scenario(spec: SuperviseSpec, supervised: bool,
                    durable: bool) -> Scenario:
    return chaos.scenario(
        spec.seed, posts=spec.posts, durable=durable,
        drop_rate=spec.drop_rate, duplicate_rate=0.05,
        crash_period=spec.crash_period, down_time=spec.down_time,
        settle=10.0,
        handler_faults={"hang": spec.hang_rate, "raise": spec.raise_rate,
                        "poison": spec.poison_rate},
        config=SUPERVISED if supervised else {})


def run_handler_faults(spec: SuperviseSpec, supervised: bool,
                       durable: bool = False) -> dict[str, Any]:
    """Chaos with injected handler faults; supervised or bare."""
    outcome = run_scenario(_chaos_scenario(spec, supervised, durable))
    metrics = outcome.metrics
    return {
        "posts": outcome.posts,
        "executed_once": outcome.executed_once,
        "noticed": len(outcome.notices),
        "quarantined": len(outcome.quarantined),
        "hung_handlers": len(outcome.hung),
        "accounted_rate": round(outcome.accounted_rate, 4),
        "violations": len(outcome.violations),
        "faults_injected": dict(outcome.fault_counts),
        "handler_timeouts": metrics["events.supervise.handler_timeouts"],
        "chain_retries": metrics["events.supervise.chain_retries"],
        "dead_letters_held": metrics["events.supervise.held"],
        "virtual_time": round(outcome.cluster.now, 6),
    }


# -- buddy-breaker workload ---------------------------------------------------

BUDDY_EVENT = "TICK"


class BuddyMonitor(DistObject):
    """Central monitor whose buddy handler serves TICK events (§4.1)."""

    def __init__(self, times):
        super().__init__()
        self.served = 0
        #: pid -> virtual time the post was finally handled (shared with
        #: the worker's fallback handler)
        self.times = times

    @handler_entry
    def on_tick(self, ctx, block):
        yield ctx.compute(1e-4)
        self.served += 1
        self.times[block.user_data] = ctx.now
        return Decision.RESUME


class MonitoredWorker(DistObject):
    """Worker thread: buddy handler first (LIFO), local fallback under it."""

    @entry
    def work(self, ctx, monitor_cap, handled, times, hold):
        def fallback(hctx, block):
            handled[block.user_data] = handled.get(block.user_data, 0) + 1
            times[block.user_data] = hctx.now
            yield hctx.compute(1e-6)
            return Decision.RESUME

        # Attach order matters: chains run LIFO, so the buddy (attached
        # last) runs first and the fallback catches its fall-throughs.
        yield ctx.attach_handler(BUDDY_EVENT, fallback)
        yield ctx.attach_handler(BUDDY_EVENT, "on_tick", buddy=monitor_cap)
        yield ctx.sleep(hold)
        return "done"


def run_buddy_breaker(spec: SuperviseSpec,
                      supervised: bool) -> dict[str, Any]:
    """Buddy handlers against a crashing monitor node.

    Posts keep flowing while the monitor's node is down; every post must
    be handled — by the buddy when its node is up, by the local fallback
    when it is not. Supervision changes *how fast* the fallback path
    engages (fast-fail + breaker skip vs a full RPC timeout per post),
    never *whether* posts are handled.
    """
    knobs = dict(SUPERVISED if supervised else {},
                 poison_threshold=None)  # fall through, not DLQ
    # Reliable delivery is what bounds the *unsupervised* failure path:
    # a buddy invocation shipped into the dead node fails when the
    # channel's retransmission budget gives up. Supervision gets there
    # orders of magnitude sooner via SWIM suspicion + the breaker.
    cluster = Cluster(ClusterConfig(
        n_nodes=3, seed=spec.seed, reliable_delivery=True,
        max_retransmits=5, rpc_default_timeout=spec.rpc_timeout, **knobs))
    cluster.register_event(BUDDY_EVENT)
    times: dict[int, float] = {}
    monitor = cluster.create_object(BuddyMonitor, times, node=1)
    worker = cluster.create_object(MonitoredWorker, node=0)
    handled: dict[int, int] = {}
    thread = cluster.spawn(worker, "work", monitor, handled, times, 1e9,
                           at=0)
    cluster.run(until=cluster.now + 0.1)  # handlers attach

    sim, t0 = cluster.sim, cluster.now
    for pid in range(spec.buddy_posts):
        sim.call_at(t0 + pid * spec.buddy_gap, cluster.raise_event,
                    BUDDY_EVENT, thread.tid, 0, pid)
    span = spec.buddy_posts * spec.buddy_gap
    # The monitor's node dies mid-stream and comes back near the end.
    sim.call_at(t0 + 0.3 * span, cluster.crash_node, 1)
    sim.call_at(t0 + 0.8 * span, cluster.recover_node, 1)
    cluster.run(until=t0 + span + 30.0)

    served = cluster.get_object(monitor).served
    fellback = sum(handled.values())
    assert served + fellback == spec.buddy_posts, \
        (f"posts unaccounted: buddy served {served}, fallback {fellback}, "
         f"posted {spec.buddy_posts}")
    assert all(n == 1 for n in handled.values()), \
        f"fallback ran a post twice: {handled}"
    metrics = cluster.metrics()
    latencies = [times[pid] - (t0 + pid * spec.buddy_gap)
                 for pid in range(spec.buddy_posts)]
    return {
        "posts": spec.buddy_posts,
        "buddy_served": served,
        "fallback_handled": fellback,
        "fast_fails": metrics["events.supervise.fast_fails"],
        "handler_retries": metrics["events.supervise.handler_retries"],
        "breaker_opens": metrics["events.supervise.breaker_opens"],
        "breaker_skips": metrics["events.supervise.breaker_skips"],
        "breaker_closes": metrics["events.supervise.breaker_closes"],
        "membership_suspicions": metrics.get(
            "kernel.membership.suspicions", 0),
        # virtual post->handled latency: the stall supervision removes
        "mean_latency": round(sum(latencies) / len(latencies), 6),
        "max_latency": round(max(latencies), 6),
    }


def run_supervise_sweep(**spec: Any) -> Result:
    """E11: run every workload supervised and bare over
    ``SuperviseSpec(**spec)``.

    ``detail[workload]["on"|"off"]`` holds the raw counter dicts the
    check and EXPERIMENTS.md numbers come from.
    """
    spec = SuperviseSpec(**spec)
    result = Result(Table(
        title="Handler supervision: watchdog + breaker + dead letters + "
              f"failure detector ({spec.posts} chaos posts, "
              f"{spec.buddy_posts} buddy posts)",
        columns=["workload", "supervised", "posts", "exec=1", "noticed/"
                 "buddy", "quarantined/fallback", "hung", "accounted",
                 "violations", "virt_time"]))
    table = result.table
    runners = {
        "handler-faults": lambda on: run_handler_faults(spec, on),
        "durable-poison": lambda on: run_handler_faults(spec, on,
                                                        durable=True),
        "buddy-breaker": lambda on: run_buddy_breaker(spec, on),
    }
    for workload, runner in runners.items():
        result.detail[workload] = {}
        for mode, on in (("on", True), ("off", False)):
            row = runner(on)
            result.detail[workload][mode] = row
            if workload == "buddy-breaker":
                table.add(workload, mode, row["posts"], row["buddy_served"],
                          row["buddy_served"], row["fallback_handled"],
                          0, 1.0, 0, row["mean_latency"])
            else:
                table.add(workload, mode, row["posts"],
                          row["executed_once"], row["noticed"],
                          row["quarantined"], row["hung_handlers"],
                          row["accounted_rate"], row["violations"],
                          row["virtual_time"])
    table.note("supervised=off: no watchdog, no retries, no breaker, no "
               "quarantine, no failure detector (pre-PR 5 behaviour)")
    table.note("supervised rows must account every post (executed once, "
               "noticed, or quarantined) with zero wedged handlers; "
               "buddy-breaker delivery totals are asserted identical "
               "on/off")
    return result


def check_supervise(result: Result) -> None:
    """The E11 acceptance bars."""
    results = result.detail
    for workload in ("handler-faults", "durable-poison"):
        on, off = results[workload]["on"], results[workload]["off"]
        # Supervised: every post executed once, noticed, or quarantined;
        # nothing hung, nothing lost — with faults genuinely injected.
        assert on["violations"] == 0, (workload, on)
        assert on["accounted_rate"] == 1.0, (workload, on)
        assert on["hung_handlers"] == 0, (workload, on)
        assert sum(on["faults_injected"].values()) > 0, (workload, on)
        assert on["quarantined"] > 0, (workload, on)
        assert on["handler_timeouts"] > 0, (workload, on)
        # Unsupervised contrast: the same faults wedge handlers and
        # lose posts (that gap is what the subsystem exists to close).
        assert off["hung_handlers"] > 0, (workload, off)
        assert off["accounted_rate"] < 1.0, (workload, off)
        assert off["violations"] > 0, (workload, off)
    on = results["durable-poison"]["on"]
    # The durable bar is exactly-once-or-quarantined, no notice escape.
    assert on["executed_once"] + on["quarantined"] == on["posts"], on
    assert on["noticed"] == 0, on
    buddy_on = results["buddy-breaker"]["on"]
    buddy_off = results["buddy-breaker"]["off"]
    for row in (buddy_on, buddy_off):
        # Delivery totals identical: supervision changes how fast the
        # fallback engages, never whether posts are handled.
        assert (row["buddy_served"] + row["fallback_handled"]
                == row["posts"]), row
    assert buddy_on["membership_suspicions"] > 0, buddy_on
    assert buddy_on["fast_fails"] > 0, buddy_on
    assert buddy_on["breaker_opens"] > 0, buddy_on
    assert buddy_on["breaker_skips"] > 0, buddy_on
    assert buddy_off["fast_fails"] == buddy_off["breaker_opens"] == 0, \
        buddy_off
    # Failing fast + skipping the dead buddy must cut the mean stall.
    assert buddy_on["mean_latency"] <= 0.5 * buddy_off["mean_latency"], \
        (buddy_on, buddy_off)
