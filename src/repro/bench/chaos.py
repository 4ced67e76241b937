"""Deterministic chaos harness: event delivery under drops, duplicates,
partitions and node crashes.

The paper motivates asynchronous events with the observation that in a
distributed system "unexpected occurrences are far more probable than in
centralized systems" (§1) but leaves fault tolerance out of scope (§7.2).
This harness closes the loop for the reproduction: it runs an
event-raising workload against a seeded schedule of network faults and
node crash/recover cycles, and checks the delivery guarantees the
reliability layer is supposed to provide:

* **exactly-once execution** — no post's handler runs twice, however many
  duplicates the wire creates;
* **no lost-or-hung raise** — every post either executes its handler or
  surfaces a dead-target/undeliverable notice to the raiser in bounded
  time;
* **convergence after heal** — once partitions heal and crashed nodes
  recover, probe posts to every target execute again.

Everything is driven by virtual time and seeded RNG streams, so two runs
with the same :class:`ChaosSpec` are bit-identical — the
:attr:`ChaosReport.digest` hash makes that checkable in one comparison.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Any

from repro import Cluster, ClusterConfig, Decision, DistObject, entry
from repro.bench.harness import Result, Table
from repro.threads.thread import KIND_SURROGATE

CHAOS_EVENT = "CHAOS"

#: what every chaos cluster runs with unless ``ChaosSpec.config`` says
#: otherwise; ``post_deadline`` is the §7.2 backstop (a post unresolved
#: after this long is undeliverable)
BASE_CONFIG = {"reliable_delivery": True, "post_deadline": 1.5,
               "rpc_default_timeout": 0.5}


class ChaosHandlerFault(Exception):
    """The injected handler bug (raise / poison faults)."""


def _inject_fault(kind: str | None, pid: Any, tripped: set,
                  fault_counts: dict[str, int]) -> bool:
    """Shared fault gate for both target kinds; runs before the handler
    records its execution.

    Returns True when the handler should *hang* after recording. Raise
    faults are transient (first attempt only — a retried run succeeds);
    poison faults raise on every attempt, so only quarantine ends them.
    """
    if kind == "poison":
        fault_counts["poison"] += 1
        raise ChaosHandlerFault(f"poison post {pid}")
    if kind == "raise" and pid not in tripped:
        tripped.add(pid)
        fault_counts["raise"] += 1
        raise ChaosHandlerFault(f"transient fault on post {pid}")
    if kind == "hang":
        fault_counts["hang"] += 1
        return True
    return False


class ChaosTarget(DistObject):
    """Long-lived thread body absorbing chaos posts.

    The handler records its execution *first*, so a crash that kills the
    thread mid-handler still counts the run (the invariant is at-most-once
    execution, and the raiser may additionally get a notice for the same
    post — an honest crash race, not a bug). Injected faults fire
    *before* the record (except hang, which records then never returns —
    the watchdog's cancellation must not un-count a run that happened).
    """

    @entry
    def serve(self, ctx, executions, hold, faults, tripped, fault_counts):
        def on_chaos(hctx, block):
            pid = block.user_data
            hang = _inject_fault(faults.get(pid), pid, tripped,
                                 fault_counts)
            executions[pid] = executions.get(pid, 0) + 1
            if hang:
                yield hctx.sleep(1e9)
            yield hctx.compute(1e-6)
            return Decision.RESUME

        yield ctx.attach_handler(CHAOS_EVENT, on_chaos)
        yield ctx.sleep(hold)
        return "done"


class DurableChaosTarget(DistObject):
    """Persistent object absorbing durable chaos posts.

    The durable variant targets *objects*, not threads: objects survive
    node crashes (§2), so a journaled post can be redelivered after
    recovery instead of degrading to a §7.2 notice. The handler is
    deliberately slow relative to the post interval so the master-thread
    queue builds depth — crashes then catch posts *queued but not yet
    executed*, the exact window PR 2 lost. It records its execution
    first, mirroring :class:`ChaosTarget` (the receiver journals the
    applied marker atomically with this first statement, making the
    count exactly-once across redeliveries).

    The handler is registered dynamically (not via ``@on_event``) so
    chaos also exercises the persistent handler registry: a crash wipes
    the registration and recovery must replay it before redelivered
    posts arrive, or they would hit the OBJ_REJECT default.
    """

    def __init__(self, executions, faults=None, tripped=None,
                 fault_counts=None):
        super().__init__()
        self.executions = executions
        # identity matters: the harness fills this dict after creation
        self.faults = faults if faults is not None else {}
        self.tripped = tripped if tripped is not None else set()
        self.fault_counts = fault_counts if fault_counts is not None else {}

    def on_chaos(self, ctx, block):
        pid = block.user_data
        hang = _inject_fault(self.faults.get(pid), pid, self.tripped,
                             self.fault_counts)
        self.executions[pid] = self.executions.get(pid, 0) + 1
        if hang:
            yield ctx.sleep(1e9)
        yield ctx.compute(5e-3)


@dataclass
class ChurnSpec:
    """Scheduled membership churn riding on a chaos run.

    One departure fires every ``period`` (virtual seconds): a seeded
    coin picks a graceful *leave* (announced through gossip before the
    fail-stop) or an abrupt *crash* with probability ``leave_fraction``
    vs the rest; the node rejoins ``down_time`` later with a bumped
    incarnation. Departures that would push the number of
    simultaneously-down nodes past ``max_down`` (or hit an
    already-down node) are skipped, so the cluster never churns itself
    below quorum-of-targets.
    """

    period: float = 0.4
    down_time: float = 0.5
    leave_fraction: float = 0.5
    max_down: int = 4


@dataclass
class ChaosSpec:
    """One seeded chaos scenario."""

    seed: int = 0
    locator: str = "path"
    n_nodes: int = 4
    #: number of chaos posts raised from node 0
    posts: int = 150
    post_interval: float = 0.02
    drop_rate: float = 0.1
    duplicate_rate: float = 0.05
    #: crash one target node every ``crash_period`` (None = no crashes)
    crash_period: float | None = 0.8
    #: how long a crashed node stays down before recovering
    down_time: float = 0.5
    #: isolate one target node every ``partition_period`` (None = never)
    partition_period: float | None = None
    partition_length: float = 0.3
    #: virtual seconds to keep running after the last post so retransmits,
    #: give-ups and the post deadline all resolve
    settle: float = 20.0
    #: durable mode: journal posts write-ahead, target persistent objects
    #: instead of threads, and require zero lost posts (no notices)
    durable: bool = False
    #: handler-fault injection rates by kind ("hang" / "raise" /
    #: "poison"); None = healthy handlers, the pre-supervision behaviour
    handler_faults: dict[str, float] | None = None
    #: ``overload`` multiplies the offered rate by compressing the post
    #: interval (2.0 = the same posts in half the time)
    overload: float = 1.0
    #: :class:`~repro.ClusterConfig` overrides laid over
    #: :data:`BASE_CONFIG` (supervision, overload-control, SWIM, journal
    #: and scheduler knobs all default off, so an empty dict keeps
    #: same-seed digests identical to runs that predate each knob)
    config: dict[str, Any] = field(default_factory=dict)
    #: scheduled join/leave/crash/recover churn (None = no churn; the
    #: schedule is drawn from the same seeded stream, and only when set,
    #: so churn-off digests are unchanged)
    churn: ChurnSpec | None = None

    @property
    def effective_post_interval(self) -> float:
        return self.post_interval / self.overload

    @property
    def active_time(self) -> float:
        return self.posts * self.effective_post_interval


@dataclass
class ChaosReport:
    """Outcome of one chaos run, with invariants pre-checked."""

    spec: ChaosSpec
    #: post id -> handler executions (absent = never executed)
    executions: dict[int, int]
    #: post ids whose raiser got a dead-target/undeliverable notice
    notices: set[int]
    #: probe post id -> executions (convergence check after heal)
    probe_executions: dict[int, int]
    crashes: list[tuple[float, int]]
    partitions: list[tuple[float, int]]
    reliability: dict[str, int]
    fault_breakdown: dict[str, dict[str, int]]
    message_stats: dict[str, int]
    dead_targets: int
    undeliverable: int
    p99_latency: float
    virtual_time: float
    #: cluster-wide store counters (all zeros for non-durable runs)
    durability: dict[str, int] = field(default_factory=dict)
    #: post ids quarantined in a dead-letter queue (supervision runs)
    quarantined: set[int] = field(default_factory=set)
    #: handler executions still wedged at end of run (must be 0 when the
    #: watchdog is armed; the unsupervised contrast rows show the hangs)
    hung_handlers: int = 0
    #: the cluster's ``metrics()`` at the end of the run (supervisor,
    #: dead-letter, admission and SWIM counters among them)
    metrics: dict[str, int] = field(default_factory=dict)
    #: injected handler faults actually hit, by kind
    handler_fault_counts: dict[str, int] = field(default_factory=dict)
    #: one row per recovery replay (node, at, replayed, recovery_time,
    #: restored_objects, pending_redelivery) — the raw material for the
    #: durability bench; derived from state already hashed by ``digest``
    recoveries: list[dict[str, Any]] = field(default_factory=list)
    #: (time, node, "leave"|"crash") per churn departure; the departures
    #: themselves are also logged in ``crashes`` (hashed by ``digest``)
    churn_events: list[tuple[float, int, str]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def executed_once(self) -> int:
        return sum(1 for n in self.executions.values() if n == 1)

    @property
    def success_rate(self) -> float:
        return self.executed_once / self.spec.posts if self.spec.posts else 1.0

    @property
    def accounted_rate(self) -> float:
        """Fraction of posts that executed, surfaced a notice, or were
        quarantined (must be 1.0: the zero-lost-or-hung guarantee)."""
        ok = sum(1 for pid in range(self.spec.posts)
                 if self.executions.get(pid, 0) == 1 or pid in self.notices
                 or pid in self.quarantined)
        return ok / self.spec.posts if self.spec.posts else 1.0

    @property
    def retransmits_per_post(self) -> float:
        if not self.spec.posts:
            return 0.0
        return self.reliability.get("retransmits", 0) / self.spec.posts

    @property
    def digest(self) -> str:
        """Hash of every observable outcome; equal for same-seed runs."""
        material = repr((
            sorted(self.executions.items()),
            sorted(self.notices),
            sorted(self.probe_executions.items()),
            self.crashes,
            self.partitions,
            sorted(self.reliability.items()),
            sorted(self.message_stats.items()),
            sorted(self.durability.items()),
            self.dead_targets,
            self.undeliverable,
            round(self.virtual_time, 9),
        ))
        return hashlib.sha256(material.encode()).hexdigest()


def _check_invariants(spec: ChaosSpec, executions: dict[int, int],
                      notices: set[int],
                      probe_executions: dict[int, int],
                      n_probes: int,
                      durability: dict[str, int] | None = None,
                      quarantined: frozenset | set = frozenset(),
                      hung: list[str] | tuple = ()) -> list[str]:
    violations = []
    for pid in range(spec.posts):
        ran = executions.get(pid, 0)
        if ran > 1:
            violations.append(
                f"post {pid}: handler executed {ran} times (duplicate run)")
        if pid in quarantined and ran != 0:
            violations.append(
                f"post {pid}: quarantined after executing "
                f"(double accounting)")
        if spec.durable:
            # Durable posts to persistent objects have no notice escape
            # hatch: every journaled post must execute exactly once — or
            # be quarantined by the poison policy, never silently lost.
            if ran != 1 and pid not in quarantined:
                violations.append(
                    f"post {pid}: durable post executed {ran} times "
                    f"(journaled post lost)")
        elif ran == 0 and pid not in notices and pid not in quarantined:
            violations.append(
                f"post {pid}: neither executed, noticed nor quarantined "
                f"(lost/hung)")
    for pid in range(n_probes):
        ran = probe_executions.get(pid, 0)
        if ran != 1:
            violations.append(
                f"probe {pid}: executed {ran} times after heal "
                f"(no convergence)")
    if spec.durable and durability is not None:
        if durability.get("pending", 0) != 0:
            violations.append(
                f"outbox not drained: {durability['pending']} journaled "
                f"posts still pending at end of run")
    if hung:
        violations.append(
            f"{len(hung)} handler execution(s) still wedged at end of run: "
            + "; ".join(hung))
    return violations


def hung_handlers(cluster: Cluster) -> list[str]:
    """Handler executions in progress on a cluster that should be idle,
    one line each. A loop thread (master, per-event thread, surrogate)
    with a frame is a run in progress: a surrogate stuck in a handler,
    or an object-event thread wedged mid-serve. So is an orphaned
    surrogate (alive, but not parked with a live owner on its node — a
    surrogate between notices is parked and is *not* a hang)."""
    hung = []
    for thread in cluster.live_threads.values():
        if thread.kept is None:
            continue  # not a loop thread
        surrogate = thread.kind == KIND_SURROGATE
        owner = cluster.live_threads.get(thread.impersonates)
        if thread.frames:
            what = f"in {thread.frames[0].entry}"
        elif surrogate and (owner is None
                            or owner.chain_surrogate is not thread
                            or owner.current_node != thread.current_node):
            what = "orphaned"
        else:
            continue
        hung.append(f"surrogate {thread.tid} of {thread.impersonates} {what}"
                    if surrogate else
                    f"object handler mid-serve on node {thread.current_node}")
    return hung


def run_chaos(spec: ChaosSpec) -> ChaosReport:
    """Run one seeded chaos scenario and return the checked report."""
    cluster = Cluster(ClusterConfig(**{
        **BASE_CONFIG, "n_nodes": spec.n_nodes, "seed": spec.seed,
        "locator": spec.locator, "durable_delivery": spec.durable,
        **spec.config}))
    cluster.tracer.mute("net")  # E16's churn floor is messages per second
    cluster.register_event(CHAOS_EVENT)
    sim, faults = cluster.sim, cluster.fabric.faults

    executions: dict[int, int] = {}
    probe_executions: dict[int, int] = {}
    notices: set[int] = set()

    def on_undeliverable(block: Any, target: Any) -> None:
        if block.event != CHAOS_EVENT:
            return
        pid = block.user_data
        if isinstance(pid, tuple):  # probe posts: ("probe", i)
            return
        notices.add(pid)

    cluster.events.on_undeliverable = on_undeliverable

    # Quarantine is accounted the moment it happens: the dead-letter
    # queue itself is volatile kernel memory in non-durable runs, so a
    # later crash of the quarantining node may wipe the entry — but the
    # post's *outcome* (quarantined, traced, counted) already happened.
    quarantined: set[int] = set()

    def on_quarantine(dead: Any) -> None:
        if (dead.block.event == CHAOS_EVENT
                and not isinstance(dead.block.user_data, tuple)):
            quarantined.add(dead.block.user_data)

    cluster.events.on_quarantine = on_quarantine

    # One target per non-raiser node. Default mode: a long-lived thread,
    # spawned on its home node so it never migrates (in-flight thread
    # state is not what this harness stresses). Durable mode: a
    # persistent object with a dynamically registered handler — threads
    # die with their node, objects do not, and only objects can honour
    # the zero-lost-posts guarantee. Node 0 raises and never crashes.
    target_nodes = list(range(1, spec.n_nodes))
    slots: dict[int, Any] = {}
    #: pid -> injected fault kind; shared mutable state for the targets
    fault_kinds: dict[int, str] = {}
    tripped: set[int] = set()
    fault_counts = {"hang": 0, "raise": 0, "poison": 0}
    if spec.durable:
        caps = {node: cluster.create_object(DurableChaosTarget, executions,
                                            fault_kinds, tripped,
                                            fault_counts, node=node)
                for node in target_nodes}
        for node in target_nodes:
            cluster.kernels[node].objects.register_object_handler(
                caps[node].oid, CHAOS_EVENT, "on_chaos")
    else:
        caps = {node: cluster.create_object(ChaosTarget, node=node)
                for node in target_nodes}
        slots = {node: cluster.spawn(caps[node], "serve", executions, 1e9,
                                     fault_kinds, tripped, fault_counts,
                                     at=node) for node in target_nodes}
    cluster.run(until=0.1)  # fault-free setup: handlers attach

    # Everything below is precomputed from one seeded stream and then
    # scheduled in virtual time — the run itself makes no random choices.
    rng = random.Random(spec.seed ^ 0x5EED)
    faults.drop_rate = spec.drop_rate
    faults.duplicate_rate = spec.duplicate_rate

    t0 = cluster.now
    post_targets = [rng.choice(target_nodes) for _ in range(spec.posts)]
    if spec.handler_faults:
        # Same seeded stream, drawn only when the knob is on — with it
        # off the draw sequence (and so the whole run) is unchanged.
        hang = spec.handler_faults.get("hang", 0.0)
        raise_r = spec.handler_faults.get("raise", 0.0)
        poison = spec.handler_faults.get("poison", 0.0)
        for pid in range(spec.posts):
            roll = rng.random()
            if roll < hang:
                fault_kinds[pid] = "hang"
            elif roll < hang + raise_r:
                fault_kinds[pid] = "raise"
            elif roll < hang + raise_r + poison:
                fault_kinds[pid] = "poison"

    def fire_post(pid: int, node: int) -> None:
        target = caps[node] if spec.durable else slots[node].tid
        cluster.events.raise_external(CHAOS_EVENT, target, from_node=0,
                                      user_data=pid)

    for pid, node in enumerate(post_targets):
        sim.call_at(t0 + pid * spec.effective_post_interval,
                    fire_post, pid, node)

    crashes: list[tuple[float, int]] = []

    def crash_and_recover(node: int) -> None:
        crashes.append((round(sim.now - t0, 9), node))
        cluster.crash_node(node)
        sim.call_after(spec.down_time, revive, node)

    def revive(node: int) -> None:
        cluster.recover_node(node)
        # The node's target thread died with it; give later posts a live
        # target again (the dead tid keeps taking posts until then and
        # must produce notices, not hangs). Durable targets are objects:
        # they persist through the crash and need no respawn.
        if not spec.durable:
            slots[node] = cluster.spawn(caps[node], "serve", executions,
                                        1e9, fault_kinds, tripped,
                                        fault_counts, at=node)

    if spec.crash_period is not None:
        t = spec.crash_period
        while t < spec.active_time:
            sim.call_at(t0 + t, crash_and_recover, rng.choice(target_nodes))
            t += spec.crash_period

    # Membership churn: scheduled departures (graceful leave or abrupt
    # crash) with rejoin after down_time. The schedule is drawn from the
    # same seeded stream *only when the knob is on*, so churn-off runs
    # keep their draw sequence (and digests) unchanged. Departures log
    # into ``crashes`` too: the digest covers them.
    churn_events: list[tuple[float, int, str]] = []

    def churn_depart(node: int, kind: str) -> None:
        if cluster.kernels[node].crashed:
            return
        down = sum(1 for n in target_nodes if cluster.kernels[n].crashed)
        if down >= spec.churn.max_down:
            return
        at = round(sim.now - t0, 9)
        crashes.append((at, node))
        churn_events.append((at, node, kind))
        if kind == "leave":
            cluster.leave_node(node)
        else:
            cluster.crash_node(node)
        sim.call_after(spec.churn.down_time, revive, node)

    if spec.churn is not None:
        t = spec.churn.period
        while t < spec.active_time:
            node = rng.choice(target_nodes)
            kind = ("leave" if rng.random() < spec.churn.leave_fraction
                    else "crash")
            sim.call_at(t0 + t, churn_depart, node, kind)
            t += spec.churn.period

    partitions: list[tuple[float, int]] = []

    def isolate(node: int) -> None:
        partitions.append((round(sim.now - t0, 9), node))
        others = [n for n in range(spec.n_nodes) if n != node]
        faults.partition([node], others)
        sim.call_after(spec.partition_length,
                       lambda: faults.heal([node], others))

    if spec.partition_period is not None:
        t = spec.partition_period
        while t < spec.active_time:
            sim.call_at(t0 + t, isolate, rng.choice(target_nodes))
            t += spec.partition_period

    cluster.run(until=t0 + spec.active_time + spec.settle)

    # Convergence: heal everything, recover everyone, then every target
    # must take a probe post exactly once.
    faults.heal()
    for node in target_nodes:
        if cluster.kernels[node].crashed:
            cluster.recover_node(node)
            if not spec.durable:
                slots[node] = cluster.spawn(caps[node], "serve", executions,
                                            1e9, fault_kinds, tripped,
                                            fault_counts, at=node)
    cluster.run(until=cluster.now + 0.2)

    # Probes flow through the same chaos handler, which writes into
    # ``executions`` keyed by the ("probe", i) tuples; split them out.
    for i, node in enumerate(target_nodes):
        target = caps[node] if spec.durable else slots[node].tid
        cluster.events.raise_external(CHAOS_EVENT, target,
                                      from_node=0, user_data=("probe", i))
    cluster.run(until=cluster.now + spec.settle)

    for key in [k for k in executions if isinstance(k, tuple)]:
        probe_executions[key[1]] = executions.pop(key)

    chaos_latencies = [v for label, v in cluster.events.delivery_latencies
                       if label == CHAOS_EVENT]
    if chaos_latencies:
        ordered = sorted(chaos_latencies)
        rank = max(0, min(len(ordered) - 1,
                          int(round(0.99 * (len(ordered) - 1)))))
        p99 = ordered[rank]
    else:
        p99 = 0.0

    metrics = cluster.metrics()
    durability = cluster.durability_stats()
    recoveries = sorted(
        (dict(row, node=kernel.node_id)
         for kernel in cluster.kernels.values()
         for row in kernel.store.recovery_log),
        key=lambda row: (row["at"], row["node"]))
    # A handler execution still in progress after the settle window is a
    # hang the supervision layer failed to bound.
    hung = hung_handlers(cluster)
    report = ChaosReport(
        spec=spec, executions=executions, notices=notices,
        probe_executions=probe_executions, crashes=crashes,
        partitions=partitions, reliability=cluster.reliability_stats(),
        fault_breakdown=faults.fault_breakdown(),
        message_stats=cluster.fabric.stats.snapshot(),
        dead_targets=metrics["events.post.dead_targets"],
        undeliverable=cluster.events.undeliverable,
        p99_latency=p99, virtual_time=cluster.now,
        durability=durability, recoveries=recoveries,
        quarantined=quarantined, hung_handlers=len(hung),
        metrics=metrics, handler_fault_counts=dict(fault_counts),
        churn_events=churn_events)
    report.violations = _check_invariants(
        spec, executions, notices, probe_executions, len(target_nodes),
        durability, quarantined, hung) + list(map(str, cluster.audit()))
    return report


def run_chaos_sweep(drop_rates: list[float], locators: list[str],
                    **base: Any) -> Result:
    """C1: sweep drop rate x locator over ``ChaosSpec(**base)``."""
    spec = ChaosSpec(**base)
    result = Result(Table(
        title="Chaos: delivery guarantees vs drop rate "
              f"({spec.posts} posts, {spec.n_nodes} nodes, "
              f"crash_period={spec.crash_period})",
        columns=["locator", "drop_rate", "posts", "executed_once",
                 "noticed", "success_rate", "accounted", "retransmits/post",
                 "dup_suppressed", "p99_latency"]),
        detail={"violations": []})
    for locator in locators:
        for rate in drop_rates:
            report = run_chaos(replace(spec, locator=locator, drop_rate=rate))
            result.digests[f"{locator}@{rate}"] = report.digest
            result.detail["violations"] += [
                f"{locator}@{rate}: {v}" for v in report.violations]
            result.table.add(
                locator, rate, spec.posts, report.executed_once,
                len(report.notices), round(report.success_rate, 4),
                round(report.accounted_rate, 4),
                round(report.retransmits_per_post, 3),
                report.reliability.get("duplicates_suppressed", 0),
                round(report.p99_latency, 6))
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
