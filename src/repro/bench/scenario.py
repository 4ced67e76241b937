"""One scenario runner for the benches: a :class:`Scenario` in, an
:class:`Outcome` out.

The benches produce §1's "unexpected occurrences" (drops, crashes,
churn, overload) and check that every post still ends one way. A
:class:`Scenario` holds the cluster config, the :class:`Sinks` (threads,
``@on_event`` objects, durable objects whose handler is registered at
run time, group members), the arrivals (a
:class:`~repro.bench.workloads.WorkloadSpec` fed open loop by
:func:`~repro.bench.workloads.drive`, or one :class:`Grid` per raiser
node) and a :class:`Faults` plan. :func:`run_scenario` runs it on a
fresh cluster; :func:`run_shard` stages it on one sharded worker. A
post's ``user_data`` is its post id: the arrivals numbered in order,
grid by grid.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro import Cluster, ClusterConfig, DistObject, entry, on_event
from repro.bench.workloads import (
    FANOUT,
    MUTED_CATEGORIES,
    WorkloadSpec,
    build_schedule,
    drive,
)
from repro.errors import BenchmarkError
from repro.kernel.config import shard_bounds
from repro.objects.capability import Capability
from repro.threads.thread import KIND_SURROGATE

#: the one event every scenario raises
EVENT = "POST"

#: sink kinds: a thread with an attached handler, an ``@on_event``
#: object, an object whose handler is registered at run time
THREAD, OBJECT, DURABLE = "thread", "object", "durable"
SINK_KINDS = (THREAD, OBJECT, DURABLE)

#: a group member's compute per post; how long a sink thread sleeps
MEMBER_COMPUTE, HOLD = 1e-6, 1e9

#: fault-free set-up time that lets thread sinks attach their handlers
SETUP = 0.1


class HandlerFault(Exception):
    """The injected handler bug (``raise`` and ``poison`` faults)."""


@dataclass(frozen=True)
class Sinks:
    """One sink of ``kind`` per entry of ``nodes`` (a post's target is
    an index into it), each computing ``compute`` virtual seconds per
    post, plus group-member threads on ``group`` for FANOUT posts."""

    kind: str = OBJECT
    nodes: tuple[int, ...] = ()
    compute: float = 1e-6
    group: tuple[int, ...] = ()


@dataclass(frozen=True)
class Grid:
    """One raiser's fixed arrivals: ``burst`` posts at each instant
    ``first + k * gap`` after the start, aimed at ``targets`` (sink
    indices or FANOUT) in order. A pumped grid keeps one pending
    callback; ``pump=False`` schedules every instant at set-up, ahead
    of the fault plan, so a post wins a same-instant tie against a
    fault (the order the chaos digests depend on)."""

    node: int
    targets: tuple[int, ...]
    gap: float
    first: float = 0.0
    burst: int = 1
    pump: bool = True


@dataclass(frozen=True)
class Faults:
    """A fault plan; entry times are offsets from the start. Crashes
    are ``(at, node, down)``; churn departures ``(at, node, "leave" |
    "crash", down)``, skipped while the node is down or ``max_down``
    nodes already are; isolations ``(at, node, length)``. ``handler``
    maps a post id to an injected fault: ``"hang"`` (runs, never
    returns), ``"raise"`` (first attempt only) or ``"poison"``."""

    drop: float = 0.0
    duplicate: float = 0.0
    crashes: tuple[tuple[float, int, float], ...] = ()
    churn: tuple[tuple[float, int, str, float], ...] = ()
    max_down: int | None = None
    isolations: tuple[tuple[float, int, float], ...] = ()
    handler: Mapping[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """One bench run, as a value. ``start`` is fault-free set-up time;
    ``settle`` None runs until idle, a number stops that long after the
    arrival span (sink threads sleep for good); ``probe`` heals and
    recovers everything afterwards and sends one probe per sink, which
    must run once; ``latency_window`` keeps only the newest samples."""

    config: Mapping[str, Any]
    sinks: Sinks
    arrivals: tuple[Grid, ...] | WorkloadSpec
    faults: Faults = Faults()
    start: float = 0.0
    settle: float | None = None
    probe: bool = False
    latency_window: int | None = None

    def span(self) -> float:
        """Virtual seconds from the start to the end of the arrivals."""
        if isinstance(self.arrivals, WorkloadSpec):
            return self.arrivals.duration
        return max((grid.first + -(-len(grid.targets) // grid.burst)
                    * grid.gap for grid in self.arrivals), default=0.0)


class Outcome:
    """What one run did: sinks write the per-post records as it goes,
    the rest is read off ``cluster`` at the end."""

    def __init__(self, scenario: Scenario, cluster: Any, targets: Any,
                 bases: list[int], schedule: list | None) -> None:
        self.scenario, self.cluster = scenario, cluster
        #: target per post id; first post id of each grid; the schedule
        #: a WorkloadSpec drew
        self.targets, self.bases, self.schedule = targets, bases, schedule
        self.posts = len(targets)
        #: executions by post id; probe ``i`` is post id ``posts + i``
        self.runs = [0] * (self.posts + (len(scenario.sinks.nodes)
                                         if scenario.probe else 0))
        #: post id -> raiser notices; quarantined post ids
        self.notices: dict[int, int] = {}
        self.quarantined: set[int] = set()
        #: FANOUT post id -> its raise's future (the recipient count)
        self.reach: dict[int, Any] = {}
        self.raised = 0
        self.latencies: deque = deque(maxlen=scenario.latency_window)
        #: when the last handler run finished; runs finished by the end
        #: of the arrival window
        self.last_done, self.in_window = 0.0, 0
        self.t0, self.window_end = 0.0, float("inf")
        #: wall seconds of the main run (not set-up, not probes)
        self.run_seconds = 0.0
        self.handler_faults = scenario.faults.handler
        self.tripped: set[int] = set()
        self.fault_counts = {"hang": 0, "raise": 0, "poison": 0}
        self.crashes: list[tuple[float, int]] = []
        self.partitions: list[tuple[float, int]] = []
        self.churn_events: list[tuple[float, int, str]] = []
        self.recoveries: list[dict[str, Any]] = []
        self.metrics: dict[str, int] = {}
        self.audit: list[Any] = []
        self.hung: list[str] = []
        #: what a post to sink k is raised at; ``revive`` recovers a
        #: node and respawns its sink threads
        self.refs: list[Any] = []
        self.revive: Callable[[int], None] = lambda node: None

    @property
    def executions(self) -> dict[int, int]:
        """Post id -> handler executions (absent = never executed)."""
        return {pid: n for pid, n in enumerate(self.runs[:self.posts]) if n}

    @property
    def probe_executions(self) -> dict[int, int]:
        return {i: n for i, n in enumerate(self.runs[self.posts:]) if n}

    def allowed(self, pid: int) -> int:
        """Runs a post must make: for FANOUT, one per group member its
        raise reached (a member that died with its node has left)."""
        if self.targets[pid] != FANOUT:
            return 1
        return self.reach[pid].result()

    @property
    def executed_once(self) -> int:
        return self.runs[:self.posts].count(1)

    @property
    def success_rate(self) -> float:
        return self.executed_once / self.posts if self.posts else 1.0

    @property
    def accounted_rate(self) -> float:
        """Fraction of posts that executed, surfaced a notice, or were
        quarantined (1.0 = no post lost or hung)."""
        ok = sum(1 for pid in range(self.posts)
                 if self.runs[pid] == self.allowed(pid)
                 or pid in self.notices or pid in self.quarantined)
        return ok / self.posts if self.posts else 1.0

    @property
    def retransmits_per_post(self) -> float:
        retransmits = self.reliability.get("retransmits", 0)
        return retransmits / self.posts if self.posts else 0.0

    @property
    def reliability(self) -> dict[str, int]:
        return self.cluster.reliability_stats()

    @property
    def message_stats(self) -> dict[str, int]:
        return self.cluster.fabric.stats.snapshot()

    @property
    def durability(self) -> dict[str, int]:
        return self.cluster.durability_stats()

    @property
    def p99_latency(self) -> float:
        """Nearest-rank p99 raise->deliver virtual latency of the posts,
        as the cluster recorded it."""
        ordered = sorted(v for label, v in self.cluster.events
                         .delivery_latencies if label == EVENT)
        if not ordered:
            return 0.0
        return ordered[max(0, min(len(ordered) - 1,
                                  int(round(0.99 * (len(ordered) - 1)))))]

    @property
    def digest(self) -> str:
        """Hash of every observable outcome; equal for same-seed runs."""
        material = repr((
            sorted(self.executions.items()), sorted(self.notices),
            sorted(self.probe_executions.items()), self.crashes,
            self.partitions, sorted(self.reliability.items()),
            sorted(self.message_stats.items()),
            sorted(self.durability.items()),
            self.metrics["events.post.dead_targets"],
            self.cluster.events.undeliverable, round(self.cluster.now, 9)))
        return hashlib.sha256(material.encode()).hexdigest()

    @property
    def violations(self) -> list[str]:
        """Every broken delivery guarantee, one line each: a post run
        more often than allowed, a post neither executed, noticed nor
        quarantined (a durable post to an object: neither executed nor
        quarantined), a probe that did not run once, a durable outbox
        left pending, a wedged handler, and ``audit()``'s rows."""
        sinks = self.scenario.sinks
        objects = (self.scenario.config.get("durable_delivery", False)
                   and sinks.kind != THREAD and bool(sinks.nodes))
        out = []
        for pid in range(self.posts):
            ran, allowed = self.runs[pid], self.allowed(pid)
            quarantined = pid in self.quarantined
            if ran > allowed:
                out.append(f"post {pid}: handler executed {ran} times "
                           f"(duplicate run)")
            if quarantined and ran != 0:
                out.append(f"post {pid}: quarantined after executing "
                           f"(double accounting)")
            if objects and self.targets[pid] != FANOUT:
                # no notice escape hatch for a journaled post to a
                # persistent object: it runs, or it is quarantined
                if ran != allowed and not quarantined:
                    out.append(f"post {pid}: durable post executed {ran} "
                               f"times (journaled post lost)")
            elif (ran == 0 and allowed and pid not in self.notices
                  and not quarantined):
                out.append(f"post {pid}: neither executed, noticed nor "
                           f"quarantined (lost/hung)")
        out += [f"probe {i}: executed {ran} times after heal "
                f"(no convergence)"
                for i, ran in enumerate(self.runs[self.posts:]) if ran != 1]
        if objects and self.durability.get("pending", 0):
            out.append(f"outbox not drained: {self.durability['pending']} "
                       f"journaled posts still pending at end of run")
        if self.hung:
            out.append(f"{len(self.hung)} handler execution(s) still "
                       f"wedged at end of run: " + "; ".join(self.hung))
        return out + list(map(str, self.audit))


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------

def _post_handler() -> Callable:
    """A fresh copy of the one post handler: ``@on_event`` marks the
    function object itself, and only the static sink may carry it."""

    def on_post(self, ctx, block):
        outcome = self._outcome
        pid = block.user_data
        hang = outcome.handler_faults and _inject(outcome, pid)
        # Recorded first: a crash mid-handler still counts the run.
        outcome.runs[pid] += 1
        if hang:
            yield ctx.sleep(HOLD)
        yield ctx.compute(self.compute)
        now = ctx.now
        outcome.latencies.append(now - block.raised_at)
        outcome.last_done = now
        if now <= outcome.window_end:
            outcome.in_window += 1

    return on_post


def _inject(outcome: Outcome, pid: int) -> bool:
    """Fire the post's injected handler fault, if any; True when the
    run should hang after recording itself."""
    kind = outcome.handler_faults.get(pid)
    counts = outcome.fault_counts
    if kind == "poison":
        counts["poison"] += 1
        raise HandlerFault(f"poison post {pid}")
    if kind == "raise" and pid not in outcome.tripped:
        outcome.tripped.add(pid)
        counts["raise"] += 1
        raise HandlerFault(f"transient fault on post {pid}")
    if kind == "hang":
        counts["hang"] += 1
        return True
    return False


class DurableSink(DistObject):
    """Persistent object whose handler is registered at run time, so a
    crash wipes the registration and recovery must replay it."""

    def __init__(self, outcome: Outcome, compute: float):
        super().__init__()
        # private: a checkpoint deep-copies only public attributes
        self._outcome = outcome
        self.compute = compute

    on_post = _post_handler()


class ObjectSink(DurableSink):
    """The same handler, bound by ``@on_event``."""

    on_post = on_event(EVENT)(_post_handler())


class ThreadSink(DurableSink):
    """Long-lived thread body: attaches the handler, then sleeps."""

    @entry
    def serve(self, ctx):
        yield ctx.attach_handler(EVENT, self.on_post)
        yield ctx.sleep(HOLD)
        return "done"


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


# ----------------------------------------------------------------------
# staging
# ----------------------------------------------------------------------

def stage(cluster: Any, scenario: Scenario, local: Any,
          remote_cap: Callable[[int], Capability] | None = None
          ) -> tuple[Outcome, Callable[[], None]]:
    """Build the sinks and hooks of the nodes in ``local`` on a built
    ``cluster``; returns the :class:`Outcome` the sinks write into and
    the function that starts the arrivals and the fault plan (for a
    caller that runs the clock itself, like the tcp smoke)."""
    sinks, arrivals, faults = (scenario.sinks, scenario.arrivals,
                               scenario.faults)
    schedule = None
    if isinstance(arrivals, WorkloadSpec):
        schedule = build_schedule(arrivals)
        targets: Any = [arrival.target for arrival in schedule]
        bases = [0]
    else:
        bases = list(itertools.accumulate(
            (len(grid.targets) for grid in arrivals), initial=0))[:-1]
        targets = (arrivals[0].targets if len(arrivals) == 1 else
                   [t for grid in arrivals for t in grid.targets])
    if FANOUT in targets and not sinks.group:
        raise BenchmarkError("FANOUT posts need group sinks")
    outcome = Outcome(scenario, cluster, targets, bases, schedule)
    cluster.register_event(EVENT)
    cluster.tracer.mute(*MUTED_CATEGORIES)
    posts, notices = outcome.posts, outcome.notices

    def on_undeliverable(block: Any, target: Any) -> None:
        if block.event == EVENT and block.user_data < posts:
            notices[block.user_data] = notices.get(block.user_data, 0) + 1

    # Counted the moment it happens: in a non-durable run the dead
    # letter may die with its node, but the post's outcome stands.
    def on_quarantine(dead: Any) -> None:
        if dead.block.event == EVENT and dead.block.user_data < posts:
            outcome.quarantined.add(dead.block.user_data)

    cluster.events.on_undeliverable = on_undeliverable
    cluster.events.on_quarantine = on_quarantine
    # refs[k]: a thread sink's current tid, an object's capability;
    # refs[FANOUT] = refs[-1] is the group
    local, refs = set(local), outcome.refs
    caps: dict[int, Any] = {}
    cls = {THREAD: ThreadSink, OBJECT: ObjectSink, DURABLE: DurableSink}
    for k, node in enumerate(sinks.nodes):
        if node in local:
            caps[k] = cluster.create_object(cls[sinks.kind], outcome,
                                            sinks.compute, node=node)
        refs.append(caps[k] if node in local else remote_cap(k))

    def spawn(k: int, cap: Any, gid: Any = None) -> None:
        thread = cluster.spawn(cap, "serve", at=cap.home, group=gid)
        if k >= 0:
            refs[k] = thread.tid

    for k, cap in caps.items():
        if sinks.kind == DURABLE:
            cluster.kernels[cap.home].objects.register_object_handler(
                cap.oid, EVENT, "on_post")
        elif sinks.kind == THREAD:
            spawn(k, cap)
    if sinks.group:
        gid = cluster.new_group()
        members = [cluster.create_object(ThreadSink, outcome,
                                         MEMBER_COMPUTE, node=node)
                   for node in sinks.group]
        for cap in members:
            spawn(-1, cap, gid)
        refs.append(gid)

    def revive(node: int) -> None:
        if not cluster.kernels[node].crashed:
            return  # an overlapping entry already brought it back
        cluster.recover_node(node)
        # A thread dies with its node: later posts need a live one (the
        # dead tid keeps taking posts until then, and must notice).
        # Objects persist; a dead group member has left for good.
        if sinks.kind == THREAD:
            for k, cap in caps.items():
                if cap.home == node:
                    spawn(k, cap)

    outcome.revive = revive

    def start() -> None:
        outcome.t0 = t0 = cluster.now
        if faults.drop or faults.duplicate:
            cluster.fabric.faults.drop_rate = faults.drop
            cluster.fabric.faults.duplicate_rate = faults.duplicate
        if schedule is not None:
            _feed_workload(outcome, schedule)
        else:
            for grid, base in zip(arrivals, bases):
                if grid.node in local and grid.targets:
                    _feed_grid(outcome, grid, base, t0)
        outcome.window_end = t0 + scenario.span()
        _schedule_faults(outcome, local)

    return outcome, start


def _feed_grid(outcome: Outcome, grid: Grid, base: int, t0: float) -> None:
    call_at = outcome.cluster.sim.call_at
    raise_external = outcome.cluster.events.raise_external
    node, targets, burst, gap = grid.node, grid.targets, grid.burst, grid.gap
    refs, reach, count = outcome.refs, outcome.reach, len(targets)
    start, fanout = t0 + grid.first, FANOUT in targets

    def fire(k: int) -> int:
        lo, hi = k * burst, min(k * burst + burst, count)
        if fanout:
            for i in range(lo, hi):
                recipients = raise_external(EVENT, refs[targets[i]], node,
                                            base + i)
                if targets[i] == FANOUT:
                    reach[base + i] = recipients
        else:  # one raise per post, nothing else: E12's million
            for i in range(lo, hi):
                raise_external(EVENT, refs[targets[i]], node, base + i)
        outcome.raised += hi - lo
        return hi

    def pump(k: int) -> None:
        if fire(k) < count:
            call_at(start + (k + 1) * gap, pump, k + 1)

    if grid.pump:
        call_at(start, pump, 0)
    else:
        for k in range(-(-count // burst)):
            call_at(start + k * gap, fire, k)


def _feed_workload(outcome: Outcome, schedule: list) -> None:
    raise_external = outcome.cluster.events.raise_external
    refs, reach, pids = outcome.refs, outcome.reach, itertools.count()

    def fire(arrival: Any) -> None:
        pid = next(pids)
        recipients = raise_external(EVENT, refs[arrival.target],
                                    arrival.tenant, pid)
        if arrival.target == FANOUT:
            reach[pid] = recipients
        outcome.raised += 1

    drive(outcome.cluster, schedule, fire)


def _schedule_faults(outcome: Outcome, local: set) -> None:
    cluster, faults = outcome.cluster, outcome.scenario.faults
    sim, t0, revive = cluster.sim, outcome.t0, outcome.revive

    def crash(node: int, down: float) -> None:
        outcome.crashes.append((round(sim.now - t0, 9), node))
        cluster.crash_node(node)
        sim.call_after(down, revive, node)

    def depart(node: int, kind: str, down: float) -> None:
        kernels = cluster.kernels
        if kernels[node].crashed or (faults.max_down is not None and sum(
                kernel.crashed for kernel in kernels.values())
                >= faults.max_down):
            return
        at = round(sim.now - t0, 9)
        outcome.crashes.append((at, node))
        outcome.churn_events.append((at, node, kind))
        (cluster.leave_node if kind == "leave" else cluster.crash_node)(node)
        sim.call_after(down, revive, node)

    def isolate(node: int, length: float) -> None:
        outcome.partitions.append((round(sim.now - t0, 9), node))
        others = [n for n in range(cluster.config.n_nodes) if n != node]
        cluster.fabric.faults.partition([node], others)
        sim.call_after(length, cluster.fabric.faults.heal, [node], others)

    for at, node, down in faults.crashes:
        if node in local:
            sim.call_at(t0 + at, crash, node, down)
    for at, node, kind, down in faults.churn:
        if node in local:
            sim.call_at(t0 + at, depart, node, kind, down)
    for at, node, length in faults.isolations:
        sim.call_at(t0 + at, isolate, node, length)


def _finish(outcome: Outcome) -> Outcome:
    cluster = outcome.cluster
    outcome.metrics = cluster.metrics()
    outcome.recoveries = sorted(
        (dict(row, node=kernel.node_id)
         for kernel in cluster.kernels.values()
         for row in kernel.store.recovery_log),
        key=lambda row: (row["at"], row["node"]))
    # a handler still running once the run is over is a hang the
    # supervision layer failed to bound
    outcome.hung = hung_handlers(cluster)
    outcome.audit = cluster.audit()
    return outcome


# ----------------------------------------------------------------------
# running a scenario
# ----------------------------------------------------------------------

def run_scenario(scenario: Scenario) -> Outcome:
    """Run one scenario on a fresh in-process cluster."""
    cluster = Cluster(ClusterConfig(**scenario.config))
    outcome, start = stage(cluster, scenario, range(cluster.config.n_nodes))
    if scenario.start:
        cluster.run(until=scenario.start)
    start()
    until = (None if scenario.settle is None
             else outcome.t0 + scenario.span() + scenario.settle)
    wall = time.perf_counter()
    cluster.run(until=until, max_events=None)
    outcome.run_seconds = time.perf_counter() - wall
    if scenario.probe:
        # Convergence: heal everything, recover everyone, then every
        # sink takes one probe post, raised from node 0.
        cluster.fabric.faults.heal()
        for node in range(cluster.config.n_nodes):
            outcome.revive(node)
        cluster.run(until=cluster.now + 0.2, max_events=None)
        for k in range(len(scenario.sinks.nodes)):
            cluster.events.raise_external(EVENT, outcome.refs[k], 0,
                                          outcome.posts + k)
        cluster.run(until=cluster.now + scenario.settle, max_events=None)
    return _finish(outcome)


def run_shard(ctx: Any, scenario: Scenario) -> Callable[[], dict]:
    """Stage ``scenario`` on one sharded worker (``ctx`` is its
    :class:`~repro.transport.sharded.ShardContext`); returns the
    ``finish`` that reports :func:`shard_summary`. A worker creates only
    its own nodes' sinks, in index order, so a remote sink's oid is one
    more than the number of sinks before it on the same shard."""
    nodes = scenario.sinks.nodes
    uppers = [shard_bounds(ctx.n_nodes, ctx.shard_count, s)[1]
              for s in range(ctx.shard_count)]
    shard_of = [next(s for s, hi in enumerate(uppers) if node < hi)
                for node in nodes]

    def remote_cap(k: int) -> Capability:
        oid = 1 + shard_of[:k].count(shard_of[k])
        return Capability(oid, nodes[k], "rpc", "ObjectSink")

    outcome, start = stage(ctx.cluster, scenario, ctx.local_nodes,
                            remote_cap)
    start()
    return lambda: shard_summary(_finish(outcome), ctx.local_nodes)


def shard_summary(outcome: Outcome, local: Any) -> dict:
    """The grid posts' figures over the sinks on ``local`` nodes: posts
    raised and executed, one ``(node, executions, executions by raiser
    node)`` row per sink, the departures applied, and with churn the
    membership view of each local raiser; ``sha`` hashes rows and
    views."""
    scenario, runs, local = outcome.scenario, outcome.runs, set(local)
    churn = bool(scenario.faults.churn)
    by_sink: dict[int, dict[int, int]] = {
        k: {} for k, node in enumerate(scenario.sinks.nodes) if node in local}
    for grid, base in zip(scenario.arrivals, outcome.bases):
        for i, k in enumerate(grid.targets):
            if k in by_sink and runs[base + i]:
                tally = by_sink[k]
                tally[grid.node] = tally.get(grid.node, 0) + runs[base + i]
    rows = sorted((scenario.sinks.nodes[k], sum(tally.values()),
                   sorted(tally.items())) for k, tally in by_sink.items())
    views = {}
    for grid in scenario.arrivals if churn else ():
        if grid.node in local:
            view = outcome.cluster.kernels[grid.node].membership.stats()
            views[grid.node] = (view["view_alive"], view["view_suspect"],
                                view["view_dead"])
    material = repr((rows, sorted(views.items())) if churn else rows)
    return {
        "raised": outcome.raised,
        "executed": sum(seen for _node, seen, _src in rows),
        "per_node": {node: seen for node, seen, _src in rows},
        "departures": len(outcome.churn_events),
        "leaves": sum(kind == "leave"
                      for _t, _n, kind in outcome.churn_events),
        "converged": not any(suspect or dead
                             for _alive, suspect, dead in views.values()),
        "sinks": rows,
        "sha": hashlib.sha256(material.encode()).hexdigest(),
    }
