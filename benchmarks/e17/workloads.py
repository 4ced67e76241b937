"""The five E17 workloads: inputs, load generators, handlers, checks.

Every workload is a function ``(seed, scale, clock) -> dict`` that builds
a fresh cluster, generates its inputs from
``random.Random(f"{seed}:{workload}")``, drives one *measured section*
between ``clock.start()`` and ``clock.stop()``, and returns the raw
outcome: the delivery ledger check, raise→handler latencies, and the
public ``*_stats()`` counters the per-layer metrics are derived from
(``metrics.py``).  ``scale`` shrinks the section for the tests.

Only the library's public surface is used (the compatibility contract
is listed in README.md); sinks, handlers, thread bodies and the shard
scenario all live here.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import resource
import time
from typing import Any, Callable

from repro import (Capability, Cluster, ClusterConfig, Decision, DistObject,
                   entry, on_event)
from repro.transport.sharded import run_sharded

from e17 import trace

EVENT = "E17"

#: trace categories whose records are counted but not stored: a section
#: would otherwise hold a TraceRecord per simulator step
MUTED = ("event", "object", "thread", "net", "store", "supervise",
         "invoke", "dsm", "rpc")

#: measured-section sizes at scale 1.0, chosen so one section takes
#: 1.5-2.5 s on a 2-core host and the driver fits several in a run
SIZES = {
    "local_burst": 64_000,    # posts
    "thread_chase": 5_000,    # raises (x1.375 deliveries)
    "durable_lossy": 20_000,  # posts
    "sharded_mix": 450,       # posts per node, x64 nodes
    "tcp_closed": 4_000,      # posts
}

BURST, GAP = 16, 2e-3
#: a section is cut into this many chunks of equal load, each timed on
#: its own (metrics.py explains what the chunks are for)
CHUNKS = 64
ZIPF_S = 1.1
CHASE_NODES, CHASE_THREADS, CHASE_DEPTH, CHASE_GROUP = 8, 16, 3, 4
CHASE_GAP = 5e-4
SHARD_NODES, SHARD_LATENCY, SHARD_REMOTE = 64, 5e-3, 0.3
TCP_NODES, TCP_OUTSTANDING = 3, 16


# ----------------------------------------------------------------------
# measurement brackets and the delivery ledger
# ----------------------------------------------------------------------

def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class SectionClock:
    """Wall, CPU and tracer brackets around one measured section.

    ``spawned_at`` is the ``time.time()`` stamp the parent took before it
    started this subprocess, so ``setup_s`` covers interpreter start,
    imports, cluster build, object/thread creation and settling.  The
    root span of an installed tracer opens and closes with the section.
    """

    def __init__(self, spawned_at: float) -> None:
        self.spawned_at = spawned_at
        self.setup_s = self.wall_s = self.cpu_s = 0.0

    def start(self) -> None:
        self.setup_s = time.time() - self.spawned_at
        tracer = trace.current()
        if tracer is not None:
            tracer.begin()
        self._cpu0 = cpu_seconds()
        self._t0 = time.perf_counter()

    def stop(self, ledger: "Ledger") -> None:
        ledger.stamp()
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = cpu_seconds() - self._cpu0
        tracer = trace.current()
        if tracer is not None:
            tracer.end()


def calibration_slice(rounds: int = 6000) -> None:
    """A fixed piece of interpreter work (calls, dict and heap traffic)
    that knows nothing of the program under test.  Timed at every chunk
    boundary, it tells how fast this host was running just then, which
    is what lets metrics.py cancel a neighbour's load on a shared host.
    """
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(rounds):
        push(heap, (i * 7919 % 1009, i))
        table[i & 511] = i
        if i & 1:
            pop(heap)


class Ledger:
    """What the benchmark's own handlers record during one section."""

    def __init__(self, slots: int, sinks: int = 0) -> None:
        #: executions per (post id, recipient) slot
        self.seen = bytearray(slots)
        #: executions per sink object, to check a post reached the sink
        #: its schedule names and not just any sink
        self.by_sink = [0] * sinks
        #: raise -> first handler start, one sample per delivery
        self.latencies: list[float] = []
        #: handlers run, and wall gaps between consecutive handlers of
        #: one thread-based chain (thread_chase only)
        self.chain_steps = 0
        self.gap_ns = 0
        self.gaps = 0
        #: (wall, cpu) before and after the calibration slice run at
        #: every chunk boundary, and deliveries so far
        self.stamps: list[tuple[float, float, float, float, int]] = []

    def stamp(self) -> None:
        """A chunk boundary: time one calibration slice."""
        tracer = trace.current()
        span = tracer.enter("calibration:slice") if tracer else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        calibration_slice()
        if span is not None:
            tracer.exit(span)
        self.stamps.append((wall0, cpu0, time.perf_counter(),
                            time.process_time(), len(self.latencies)))

    def chunks(self) -> list[tuple[int, float, float]]:
        """Per chunk: deliveries, and the wall and CPU time of the load
        between its two boundaries, each in units of the calibration
        slices timed at those boundaries (mean of the two)."""
        out = []
        for a, b in zip(self.stamps, self.stamps[1:]):
            slice_wall = (a[2] - a[0] + b[2] - b[0]) / 2
            slice_cpu = (a[3] - a[1] + b[3] - b[1]) / 2
            out.append((b[4] - a[4], (b[0] - a[2]) / slice_wall,
                        (b[1] - a[3]) / slice_cpu))
        return out

    def slices(self) -> list[float]:
        """Wall seconds each calibration slice took."""
        return [stamp[2] - stamp[0] for stamp in self.stamps]

    def failed(self, expected: bytes) -> int:
        """Slots not executed exactly as often as the schedule says."""
        return sum(1 for got, want in zip(self.seen, expected)
                   if got != want)


class Sink(DistObject):
    """Passive object absorbing posts; ``user_data`` is the ledger slot."""

    def __init__(self, ledger: Ledger, index: int,
                 done: Callable[[], None] | None = None):
        super().__init__()
        # underscored: a durable checkpoint deep-copies an object's
        # public attributes, and the ledger is the harness's, not state
        self._ledger = ledger
        self._index = index
        self._done = done

    @on_event(EVENT)
    def on_post(self, ctx, block):
        ledger = self._ledger
        ledger.latencies.append(ctx.now - block.raised_at)
        ledger.seen[block.user_data] += 1
        ledger.by_sink[self._index] += 1
        ledger.chain_steps += 1
        yield ctx.compute(1e-6)
        if self._done is not None:
            self._done()


def build(**knobs: Any) -> Cluster:
    cluster = Cluster(ClusterConfig(trace_net=False, **knobs))
    cluster.tracer.mute(*MUTED)
    cluster.register_event(EVENT)
    return cluster


def tally(targets: list[int], sinks: int) -> list[int]:
    """Deliveries per sink that a target schedule asks for."""
    counts = [0] * sinks
    for target in targets:
        counts[target] += 1
    return counts


def zipf_targets(rng: random.Random, objects: int, count: int) -> list[int]:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(objects)]
    return rng.choices(range(objects), weights=weights, k=count)


def chunk_every(load: int, step: int = 1) -> int:
    """Load units per chunk, a multiple of ``step``."""
    return max(step, load // CHUNKS // step * step)


def burst_pump(cluster: Cluster, ledger: Ledger, caps: list,
               targets: list[int], from_node: int) -> None:
    """Open loop on a fixed schedule: BURST posts every GAP virtual
    seconds, self-rescheduling so the queue holds one pump entry."""
    sim, t0, posts = cluster.sim, cluster.now, len(targets)
    raise_event = cluster.raise_event
    every = chunk_every(posts, BURST)

    def pump(base: int) -> None:
        if base % every == 0:
            ledger.stamp()
        stop = min(base + BURST, posts)
        for pid in range(base, stop):
            raise_event(EVENT, caps[targets[pid]], from_node=from_node,
                        user_data=pid)
        if stop < posts:
            sim.call_at(t0 + (stop // BURST) * GAP, pump, stop)

    sim.call_at(t0, pump, 0)


def cluster_stats(cluster: Cluster) -> dict[str, Any]:
    """The public counters every per-layer count metric is read from."""
    return {
        "scheduler": cluster.scheduler_stats(),
        "messages": cluster.message_stats(),
        "reliability": cluster.reliability_stats(),
        "durability": cluster.durability_stats(),
        "transport": cluster.transport_stats(),
        "undeliverable": cluster.events.undeliverable,
    }


def outcome(clock: SectionClock, ledger: Ledger, expected: bytes,
            raises: int, stats: dict, checks: dict[str, bool],
            deterministic: bool = True, **extra: Any) -> dict[str, Any]:
    latencies = sorted(ledger.latencies)
    material = [bytes(ledger.seen), ledger.by_sink]
    if deterministic:
        material += [latencies, sorted(_flatten(stats))]
    result = {
        "raises": raises,
        "attempted": sum(expected),
        "executed": sum(ledger.seen),
        "failed": ledger.failed(expected),
        "wall_s": clock.wall_s,
        "cpu_s": clock.cpu_s,
        "setup_s": clock.setup_s,
        # sharded_mix overrides both with what its workers measured
        "chunks": ledger.chunks(),
        "slices": ledger.slices(),
        "latencies": latencies,
        "chain": {"steps": ledger.chain_steps, "gap_ns": ledger.gap_ns,
                  "gaps": ledger.gaps},
        "stats": stats,
        "checks": checks,
        "digest": hashlib.sha256(repr(material).encode()).hexdigest(),
    }
    result.update(extra)
    return result


def _flatten(data: dict, prefix: str = "") -> list[tuple[str, Any]]:
    out = []
    for key, value in data.items():
        if isinstance(value, dict):
            out.extend(_flatten(value, f"{prefix}{key}."))
        else:
            out.append((f"{prefix}{key}", value))
    return out


# ----------------------------------------------------------------------
# local_burst / durable_lossy: the delivery engine, local and journaled
# ----------------------------------------------------------------------

def local_burst(seed: int, scale: float, clock: SectionClock) -> dict:
    posts = max(BURST, int(SIZES["local_burst"] * scale))
    rng = random.Random(f"{seed}:local_burst")
    targets = zipf_targets(rng, 64, posts)
    cluster = build(n_nodes=2, seed=seed, scheduler="wheel")
    ledger = Ledger(posts, sinks=64)
    caps = [cluster.create_object(Sink, ledger, index, node=0)
            for index in range(64)]
    burst_pump(cluster, ledger, caps, targets, from_node=0)
    clock.start()
    cluster.run(max_events=None)
    clock.stop(ledger)
    return outcome(clock, ledger, bytes([1]) * posts, posts,
                   cluster_stats(cluster), {
                       "quiescent": cluster.quiescent(),
                       "right_sink": ledger.by_sink == tally(targets, 64)})


def durable_lossy(seed: int, scale: float, clock: SectionClock) -> dict:
    posts = max(BURST, int(SIZES["durable_lossy"] * scale))
    rng = random.Random(f"{seed}:durable_lossy")
    targets = zipf_targets(rng, 8, posts)
    cluster = build(n_nodes=2, seed=seed, reliable_delivery=True,
                    durable_delivery=True)
    cluster.fabric.faults.drop_rate = 0.01
    ledger = Ledger(posts, sinks=8)
    caps = [cluster.create_object(Sink, ledger, index, node=1)
            for index in range(8)]
    burst_pump(cluster, ledger, caps, targets, from_node=0)
    clock.start()
    cluster.run(max_events=None)
    clock.stop(ledger)
    stats = cluster_stats(cluster)
    return outcome(clock, ledger, bytes([1]) * posts, posts, stats, {
        "quiescent": cluster.quiescent(),
        "right_sink": ledger.by_sink == tally(targets, 8),
        "outbox_drained": stats["durability"]["pending"] == 0})


# ----------------------------------------------------------------------
# thread_chase: Table 1 thread/group addressing over migrated threads
# ----------------------------------------------------------------------

class Hop(DistObject):
    """One frame of a chased thread: attach a handler for EVENT, then
    carry the thread one node deeper, or hold at the innermost frame."""

    def __init__(self, ledger: Ledger, step_end: list[int]):
        super().__init__()
        self._ledger = ledger
        self._step_end = step_end

    @entry
    def descend(self, ctx, index, depth, deeper, hold):
        ledger, step_end = self._ledger, self._step_end
        innermost = not deeper

        def handler(hctx, block):
            started = time.perf_counter_ns()
            if innermost:
                # newest registration: the first handler of the LIFO chain
                ledger.latencies.append(hctx.now - block.raised_at)
                ledger.seen[block.user_data * CHASE_THREADS + index] += 1
            else:
                ledger.gap_ns += started - step_end[index]
                ledger.gaps += 1
            ledger.chain_steps += 1
            yield hctx.compute(1e-6)
            decision = Decision.PROPAGATE
            if depth == 0:
                # the root frame's handler ends the chain and, for a
                # raise_and_wait, resumes the blocked raiser explicitly
                if block.synchronous:
                    yield hctx.resume_raiser(block, block.user_data)
                decision = Decision.RESUME
            step_end[index] = time.perf_counter_ns()
            return decision

        yield ctx.attach_handler(EVENT, handler)
        if deeper:
            result = yield ctx.invoke(deeper[0], "descend", index,
                                      depth + 1, deeper[1:], hold)
            return result
        yield ctx.sleep(hold)
        return depth


def chase_inputs(seed: int, raises: int) -> dict[str, Any]:
    """Thread placements and the raise schedule, from the seed alone."""
    rng = random.Random(f"{seed}:thread_chase")
    paths = []
    for _ in range(CHASE_THREADS):
        node, path = 0, []
        for _ in range(CHASE_DEPTH):
            node = rng.choice([n for n in range(CHASE_NODES) if n != node])
            path.append(node)
        paths.append(path)
    groups = CHASE_THREADS // CHASE_GROUP
    schedule = []
    tid_raises = 0
    for i in range(raises):
        if i % 8 == 7:
            schedule.append(("gid", rng.randrange(groups), False))
        else:
            tid_raises += 1
            schedule.append(("tid", rng.randrange(CHASE_THREADS),
                             tid_raises % 10 == 0))
    return {"paths": paths, "schedule": schedule}


def thread_chase(seed: int, scale: float, clock: SectionClock) -> dict:
    raises = max(16, int(SIZES["thread_chase"] * scale))
    inputs = chase_inputs(seed, raises)
    schedule = inputs["schedule"]
    cluster = build(n_nodes=CHASE_NODES, seed=seed)
    ledger = Ledger(raises * CHASE_THREADS)
    step_end = [0] * CHASE_THREADS
    gids = [cluster.new_group() for _ in range(CHASE_THREADS // CHASE_GROUP)]
    threads = []
    for index, path in enumerate(inputs["paths"]):
        caps = [cluster.create_object(Hop, ledger, step_end, node=node)
                for node in path]
        threads.append(cluster.spawn(
            caps[0], "descend", index, 0, caps[1:], 1e9, at=0,
            group=gids[index // CHASE_GROUP]))
    cluster.run(until=cluster.now + 0.1)  # threads descend, handlers attach

    expected = bytearray(raises * CHASE_THREADS)
    for pid, (kind, target, _sync) in enumerate(schedule):
        members = ([target] if kind == "tid" else
                   range(target * CHASE_GROUP, (target + 1) * CHASE_GROUP))
        for index in members:
            expected[pid * CHASE_THREADS + index] = 1

    sim, t0 = cluster.sim, cluster.now
    waits: list[tuple[int, Any]] = []
    resumes: list[float] = []
    every = chunk_every(raises)

    def pump(pid: int) -> None:
        if pid % every == 0:
            ledger.stamp()
        kind, target, sync = schedule[pid]
        addressee = threads[target].tid if kind == "tid" else gids[target]
        from_node = pid % CHASE_NODES
        if sync:
            future = cluster.raise_and_wait(EVENT, addressee,
                                            from_node=from_node,
                                            user_data=pid)
            raised_at = sim.now
            future.add_done_callback(
                lambda fut: resumes.append(sim.now - raised_at))
            waits.append((pid, future))
        else:
            cluster.raise_event(EVENT, addressee, from_node=from_node,
                                user_data=pid)
        if pid + 1 < raises:
            sim.call_at(t0 + (pid + 1) * CHASE_GAP, pump, pid + 1)

    sim.call_at(t0, pump, 0)
    clock.start()
    # the threads hold forever, so the run is bounded by the schedule
    cluster.run(until=t0 + raises * CHASE_GAP + 1.0, max_events=None)
    clock.stop(ledger)
    resolved = all(fut.done and not fut.failed and fut.result() == pid
                   for pid, fut in waits)
    return outcome(
        clock, ledger, bytes(expected), raises, cluster_stats(cluster),
        {"sync_raises_resolved": resolved and len(resumes) == len(waits),
         "chains_complete":
             ledger.chain_steps == CHASE_DEPTH * sum(expected)},
        sync_resumes=sorted(resumes))


# ----------------------------------------------------------------------
# sharded_mix: conservative-window shards, batch codec framing
# ----------------------------------------------------------------------

def shard_targets(seed: int, node: int, posts_per_node: int) -> list[int]:
    """Target node of each post one raiser node makes."""
    rng = random.Random(f"{seed}:sharded_mix:{node}")
    targets = []
    for _ in range(posts_per_node):
        if rng.random() < SHARD_REMOTE:
            other = rng.randrange(SHARD_NODES - 1)
            targets.append(other if other < node else other + 1)
        else:
            targets.append(node)
    return targets


def sharded_scenario(ctx) -> Callable[[], dict]:
    """Per-worker share of ``sharded_mix`` (a ``run_sharded`` scenario).

    Every worker creates one sink per local node in ascending order and
    per-worker oid counters start at 1, so the sink of global node ``g``
    has oid ``g - first_local + 1`` in its owner's directory — which is
    how a raiser names a sink that lives in another process.
    """
    cluster = ctx.cluster
    seed, per_node = ctx.args["seed"], ctx.args["posts_per_node"]
    tracer = trace.current()  # installed before the fork, so inherited
    cluster.tracer.mute(*MUTED)
    cluster.register_event(EVENT)
    ledger = Ledger(SHARD_NODES * per_node, sinks=SHARD_NODES)
    for node in ctx.local_nodes:
        cluster.create_object(Sink, ledger, node, node=node)
    first_of = {}
    for node in range(SHARD_NODES):
        shard = ctx.owner_shard(node)
        first_of.setdefault(shard, node)
    caps = [Capability(oid=node - first_of[ctx.owner_shard(node)] + 1,
                       home=node, transport="rpc", cls_name="Sink")
            for node in range(SHARD_NODES)]
    sim = cluster.sim
    raise_event = cluster.raise_event
    started: list[float] = []
    every = chunk_every(per_node)
    first_local = ctx.local_nodes[0]

    def make_pump(node: int, targets: list[int], phase: float):
        def pump(i: int) -> None:
            if not started:
                started.append(time.time())
            if node == first_local and i % every == 0:
                ledger.stamp()
            raise_event(EVENT, caps[targets[i]], from_node=node,
                        user_data=node * per_node + i)
            if i + 1 < per_node:
                sim.call_at(phase + (i + 1) * GAP, pump, i + 1)
        return pump

    for node in ctx.local_nodes:
        # raisers are staggered inside the interval so 64 nodes do not
        # all fire at the same instant
        phase = GAP * (node + 1) / (SHARD_NODES + 1)
        sim.call_at(phase, make_pump(node, shard_targets(seed, node, per_node),
                                     phase), 0)
    if tracer is not None:
        tracer.begin()
    cpu0 = time.process_time()

    def finish() -> dict:
        cpu = time.process_time() - cpu0
        ledger.stamp()
        if tracer is not None:
            tracer.end()
        return {"seen": bytes(ledger.seen), "by_sink": ledger.by_sink,
                "latencies": ledger.latencies,
                "chunks": ledger.chunks(), "slices": ledger.slices(),
                "chain_steps": ledger.chain_steps,
                "stats": cluster_stats(cluster), "cpu_s": cpu,
                "first_raise": started[0] if started else None,
                "quiescent": cluster.quiescent(),
                "trace": tracer.totals() if tracer is not None else None}

    return finish


def sharded_mix(seed: int, scale: float, clock: SectionClock) -> dict:
    per_node = max(2, int(SIZES["sharded_mix"] * scale))
    shards = 2
    config = ClusterConfig(n_nodes=SHARD_NODES, seed=seed,
                           link_latency=SHARD_LATENCY, transport="sharded",
                           shard_count=shards, trace_net=False)
    # the target schedule, computed here independently of the workers
    posts = SHARD_NODES * per_node
    per_sink = tally([target for node in range(SHARD_NODES)
                      for target in shard_targets(seed, node, per_node)],
                     SHARD_NODES)
    # the parent only routes blobs between barriers; spans are opened in
    # the workers (sharded_scenario), which inherit the installed tracer
    cpu0 = cpu_seconds()
    report = run_sharded(config, "e17.workloads:sharded_scenario",
                         scenario_args={"seed": seed,
                                        "posts_per_node": per_node})
    ended = time.time()
    results = report.shard_results
    # the measured section is first raise -> run_sharded returning; fork
    # and the workers' cluster builds before it are set-up
    first_raise = min(r["first_raise"] for r in results)
    clock.setup_s = first_raise - clock.spawned_at
    clock.wall_s = ended - first_raise
    worker_cpu = [r["cpu_s"] for r in results]
    clock.cpu_s = sum(worker_cpu)
    parent_cpu = cpu_seconds() - cpu0 - sum(worker_cpu)

    ledger = Ledger(posts, sinks=SHARD_NODES)
    for result in results:
        for slot, count in enumerate(result["seen"]):
            if count:
                ledger.seen[slot] += count
        for node, count in enumerate(result["by_sink"]):
            ledger.by_sink[node] += count
        ledger.latencies.extend(result["latencies"])
        ledger.chain_steps += result["chain_steps"]
    stats = _sum_stats([r["stats"] for r in results])
    stats["sharded"] = {"windows": report.windows,
                        "cross_shard_msgs": report.cross_shard_messages}
    # chunk i is the same virtual interval in every worker (they stamp
    # at the same per-node post index and advance in lockstep windows).
    # Its CPU cost is the workers' sum; its time cost is the busier
    # worker's CPU, the critical path: how long the chunk takes when each
    # worker has a core.  Measured wall adds the waits at the barrier,
    # which on a two-core shared host (two workers plus the parent)
    # follow the neighbours' load; transport.sharded.barrier_wait_fraction
    # reports them.
    chunks = [(sum(c[0] for c in parts), max(c[2] for c in parts),
               sum(c[2] for c in parts))
              for parts in zip(*(r["chunks"] for r in results))]
    return outcome(
        clock, ledger, bytes([1]) * posts, posts, stats,
        {"right_sink": ledger.by_sink == per_sink,
         "quiescent": all(r["quiescent"] for r in results)},
        chunks=chunks, slices=[w for r in results for w in r["slices"]],
        worker_cpu_s=worker_cpu,
        parent_cpu_s=max(0.0, parent_cpu),
        worker_traces=[r["trace"] for r in results])


def _sum_stats(parts: list[dict]) -> dict:
    total: dict[str, Any] = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                total[key] = _sum_stats([total.get(key, {}), value])
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] = total.get(key, 0) + value
            else:
                total[key] = value
    return total


# ----------------------------------------------------------------------
# tcp_closed: real sockets, wall-clock timers, closed loop
# ----------------------------------------------------------------------

def tcp_closed(seed: int, scale: float, clock: SectionClock) -> dict:
    posts = max(TCP_OUTSTANDING, int(SIZES["tcp_closed"] * scale))
    cluster = build(n_nodes=TCP_NODES, seed=seed, transport="tcp",
                    reliable_delivery=True, durable_delivery=True)
    try:
        ledger = Ledger(posts, sinks=TCP_NODES)
        state = {"next": 0, "done": 0}
        sim = cluster.sim

        def raise_next() -> None:
            pid = state["next"]
            if pid >= posts:
                return
            state["next"] = pid + 1
            cluster.raise_event(EVENT, caps[(pid + 1) % TCP_NODES],
                                from_node=pid % TCP_NODES, user_data=pid)

        every = chunk_every(posts)

        def completed() -> None:
            # closed loop: a finished delivery releases the next raise
            state["done"] += 1
            if state["done"] % every == 0:
                ledger.stamp()
            sim.call_soon(raise_next)

        caps = [cluster.create_object(Sink, ledger, node, completed,
                                      node=node)
                for node in range(TCP_NODES)]
        for _ in range(TCP_OUTSTANDING):
            sim.call_soon(raise_next)
        clock.start()
        ledger.stamp()
        cluster.run(max_events=None)
        clock.stop(ledger)
        stats = cluster_stats(cluster)
        drained = (stats["transport"]["in_flight"] == 0
                   and stats["transport"]["frames_sent"]
                   == stats["transport"]["frames_received"])
    finally:
        cluster.close()
    return outcome(clock, ledger, bytes([1]) * posts, posts, stats, {
        "right_sink": ledger.by_sink == tally(
            [(pid + 1) % TCP_NODES for pid in range(posts)], TCP_NODES),
        "outbox_drained": stats["durability"]["pending"] == 0,
        "sockets_drained": drained,
        "sockets_closed": cluster.sim.loop.is_closed()},
        deterministic=False)


WORKLOADS: dict[str, Callable[[int, float, SectionClock], dict]] = {
    "local_burst": local_burst,
    "thread_chase": thread_chase,
    "durable_lossy": durable_lossy,
    "sharded_mix": sharded_mix,
    "tcp_closed": tcp_closed,
}

#: workloads whose counts and virtual latencies repeat exactly per seed
DETERMINISTIC = ("local_burst", "thread_chase", "durable_lossy",
                 "sharded_mix")
