"""Workload builders shared by the experiment suite.

Each builder assembles a cluster plus application objects/threads for one
experiment shape, so the experiment functions in
:mod:`repro.bench.experiments` stay declarative.

The last section is the open-loop workload generator for the overload
experiments (E13). The closed-loop benches (E3/E6/E12) let the raiser
wait on the system — offered load collapses to whatever the handlers
can absorb, so the knee of the latency curve is invisible. The
generator builds **open-loop** arrival schedules: the offered rate is
fixed ahead of time and arrivals fire regardless of how far behind the
handlers are, which is the regime admission control and flow control
exist for.

A schedule is a precomputed, deterministic list of :class:`Arrival`
records drawn from one seeded stream before the run starts (the chaos
discipline: randomness up front, bit-identical same-seed replays). The
generator composes four traffic shapes:

* **Poisson** arrivals — exponential gaps via Lewis-Shedler thinning,
  exact even when the instantaneous rate varies;
* **bursty** arrivals — an on/off duty cycle multiplying the base rate
  by ``burst_factor`` for the first ``burst_fraction`` of every
  ``burst_cycle`` seconds (pager-style fault storms);
* **diurnal ramps** — a sinusoidal modulation over the schedule's span
  (trough at both ends, peak in the middle) scaled by ``diurnal_depth``;
* **Zipf-skewed popularity** — target objects drawn from a Zipf(s) law,
  so hot objects dominate the way they do in the pager/search apps;
  every ``fanout_every``-th arrival is a group fan-out storm instead
  (the search app's BOUND-broadcast shape).

Tenancy: each arrival carries a raiser node drawn from ``tenants`` with
relative weights ``tenant_rates`` — the hot-tenant knob that the
weighted-fair admission gate (``tenant_weights``) is tested against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro import Cluster, ClusterConfig, Decision, DistObject, entry, on_event
from repro.apps.termination import install_ctrl_c
from repro.errors import BenchmarkError
from repro.locks import LockManager


#: every trace category the library emits, muted for big runs (soak,
#: overload, scale, membership): a muted site builds no record, which
#: saves the CPU the E12 and E16 wall floors are measured against
MUTED_CATEGORIES = ("dsm", "event", "invoke", "kernel", "membership", "net",
                    "object", "store", "supervise", "thread", "timer")


# ---------------------------------------------------------------------------
# migration workloads (E2)
# ---------------------------------------------------------------------------

class HopStation(DistObject):
    """A relay that carries a thread deeper into the cluster, then holds."""

    @entry
    def hop_and_hold(self, ctx, caps, hold):
        if caps:
            result = yield ctx.invoke(caps[0], "hop_and_hold", caps[1:],
                                      hold)
            return result
        yield ctx.sleep(hold)
        return "held"


def deep_thread(cluster: Cluster, depth: int, hold: float = 1e6):
    """Spawn a thread rooted at node 0 whose innermost frame sits
    ``depth`` migrations away; returns the thread once it settles."""
    n = cluster.config.n_nodes
    caps = [cluster.create_object(HopStation, node=(i % max(1, n - 1)) + 1)
            for i in range(depth)]
    thread = cluster.spawn(caps[0], "hop_and_hold", caps[1:], hold, at=0)
    cluster.run(until=cluster.now + max(1.0, depth * 0.01))
    return thread


def measure_posts(cluster: Cluster, thread, posts: int,
                  warmup: int = 0) -> tuple[float, float]:
    """Post INTERRUPT ``posts`` times; returns (msgs/post, latency/post).

    ``warmup`` posts run (and are excluded) first, so steady-state
    strategies like the hint cache are measured hot. Only ``locate.*``
    messages are counted, so a target that keeps migrating during the
    measurement is not charged for its own invoke/reply traffic.
    """
    for _ in range(warmup):
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.2)
    before_msgs = cluster.fabric.stats.count_prefix("locate.")
    for _ in range(posts):
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.2)
    assert thread.alive, "posting must not kill the target"
    msgs = (cluster.fabric.stats.count_prefix("locate.")
            - before_msgs) / posts
    samples = cluster.events.delivery_latencies.last(posts)
    latency = sum(lat for _, lat in samples) / max(1, len(samples))
    return msgs, latency


class Bouncer(DistObject):
    """Carries a thread back and forth between two nodes forever —
    the adversarial target for hint-cached location (E2)."""

    @entry
    def bounce(self, ctx, other, dwell):
        while True:
            yield ctx.invoke(other, "dwell", dwell)
            yield ctx.sleep(dwell)

    @entry
    def dwell(self, ctx, seconds):
        yield ctx.sleep(seconds)
        return None


def bouncing_thread(cluster: Cluster, dwell: float = 0.05,
                    nodes: tuple[int, int] = (1, 2)):
    """Spawn a thread that keeps migrating between two nodes; returns it
    once the bouncing is underway."""
    a = cluster.create_object(Bouncer, node=nodes[0])
    b = cluster.create_object(Bouncer, node=nodes[1])
    thread = cluster.spawn(a, "bounce", b, dwell, at=0)
    cluster.run(until=cluster.now + dwell / 2)
    return thread


# ---------------------------------------------------------------------------
# lock chains (E4)
# ---------------------------------------------------------------------------

class LockGrabber(DistObject):
    @entry
    def grab_and_hang(self, ctx, mgr, names):
        for name in names:
            yield ctx.invoke(mgr, "acquire", name)
        yield ctx.sleep(1e6)
        return "never"


@dataclass
class LockChainRig:
    cluster: Cluster
    manager_cap: Any
    thread: Any
    lock_names: list[str]


def lock_chain(locks: int, n_nodes: int = 4) -> LockChainRig:
    cluster = Cluster(ClusterConfig(n_nodes=n_nodes))
    mgr = cluster.create_object(LockManager, node=n_nodes - 1)
    grabber = cluster.create_object(LockGrabber, node=1)
    names = [f"lock-{i}" for i in range(locks)]
    thread = cluster.spawn(grabber, "grab_and_hang", mgr, names, at=0)
    cluster.run(until=1.0)
    return LockChainRig(cluster=cluster, manager_cap=mgr, thread=thread,
                        lock_names=names)


# ---------------------------------------------------------------------------
# distributed ^C applications (E5)
# ---------------------------------------------------------------------------

class CtrlCWorkload(DistObject):
    def __init__(self):
        super().__init__()
        self.aborted_tids = []

    @on_event("ABORT")
    def on_abort(self, ctx, block):
        yield ctx.compute(1e-6)
        data = block.user_data or {}
        self.aborted_tids.append(str(data.get("tid")))

    @entry
    def main(self, ctx, worker_cap, mgr_cap, n_workers, use_locks):
        yield from install_ctrl_c(ctx)
        for i in range(n_workers):
            lock = f"lock-{i}" if use_locks else None
            yield ctx.invoke_async(worker_cap, "work", mgr_cap, lock,
                                   claimable=False)
        yield ctx.sleep(1e6)
        return "never"

    @entry
    def work(self, ctx, mgr_cap, lock_name):
        if lock_name is not None:
            yield ctx.invoke(mgr_cap, "acquire", lock_name)
        yield ctx.sleep(1e6)
        return "never"


@dataclass
class CtrlCRig:
    cluster: Cluster
    root: Any
    gid: Any
    manager_cap: Any
    root_obj: Any
    worker_obj: Any


def ctrl_c_app(workers: int, n_nodes: int = 8, use_locks: bool = True,
               **config: Any) -> CtrlCRig:
    cluster = Cluster(ClusterConfig(n_nodes=n_nodes, **config))
    mgr = cluster.create_object(LockManager, node=n_nodes - 1)
    root_obj = cluster.create_object(CtrlCWorkload, node=0)
    worker_obj = cluster.create_object(CtrlCWorkload, node=1)
    gid = cluster.new_group()
    root = cluster.spawn(root_obj, "main", worker_obj, mgr, workers,
                         use_locks, at=0, group=gid)
    cluster.run(until=2.0)
    return CtrlCRig(cluster=cluster, root=root, gid=gid, manager_cap=mgr,
                    root_obj=root_obj, worker_obj=worker_obj)


# ---------------------------------------------------------------------------
# transport-transparency workload (E7)
# ---------------------------------------------------------------------------

class SharedCounter(DistObject):
    """Transport-agnostic object: all state through ctx.read/ctx.write."""

    dsm_fields = {"total": 0}

    @entry
    def seed(self, ctx):
        yield ctx.write("total", 0)
        return True

    @entry
    def bump(self, ctx, trace, label, rounds):
        def on_mark(hctx, block):
            trace.append((label, "MARK", block.user_data))
            yield hctx.compute(1e-6)
            return Decision.RESUME

        yield ctx.attach_handler("MARK", on_mark)
        for _ in range(rounds):
            value = yield ctx.read("total")
            yield ctx.write("total", value + 1)
        yield ctx.sleep(0.5)
        result = yield ctx.read("total")
        trace.append((label, "DONE", result))
        return result


@dataclass
class TransportRun:
    transport: str
    per_thread_traces: dict[str, list]
    messages: dict[str, int]
    virtual_time: float
    final_total: int


def transport_workload(transport: str, workers: int = 3,
                       rounds: int = 5, n_nodes: int = 4) -> TransportRun:
    cluster = Cluster(ClusterConfig(n_nodes=n_nodes))
    cluster.register_event("MARK")
    cap = cluster.create_object(SharedCounter, node=1, transport=transport)
    if transport == "rpc":
        cluster.get_object(cap).total = 0
    trace: list = []
    threads = []
    for i in range(workers):
        threads.append(cluster.spawn(cap, "bump", trace, f"w{i}", rounds,
                                     at=i % n_nodes))
    cluster.run(until=0.3)
    for i, thread in enumerate(threads):
        cluster.raise_event("MARK", thread.tid, from_node=0,
                            user_data=f"mark-{i}")
    cluster.run()
    per_thread: dict[str, list] = {}
    for label, kind, data in trace:
        per_thread.setdefault(label, []).append((kind, data))
    finals = [t.completion.result() for t in threads]
    return TransportRun(
        transport=transport, per_thread_traces=per_thread,
        messages=dict(cluster.fabric.stats.by_type),
        virtual_time=cluster.now, final_total=max(finals))


# ---------------------------------------------------------------------------
# open-loop arrival schedules (E13)
# ---------------------------------------------------------------------------

#: arrival-process shapes understood by :func:`build_schedule`
ARRIVAL_KINDS = ("poisson", "bursty", "uniform")

#: target index marking a group fan-out storm instead of an object post
FANOUT = -1


@dataclass(frozen=True)
class Arrival:
    """One generated post: when, from whom, at what."""

    at: float      #: offset from schedule start, virtual seconds
    tenant: int    #: raiser node id
    target: int    #: object index, or :data:`FANOUT` for a group storm


@dataclass
class WorkloadSpec:
    """One open-loop traffic configuration."""

    seed: int = 0
    #: span of the arrival schedule, virtual seconds
    duration: float = 10.0
    #: mean offered rate, posts per virtual second (time-averaged)
    rate: float = 200.0
    arrival: str = "poisson"
    #: bursty shape: rate multiplier while the duty cycle is "on"
    burst_factor: float = 8.0
    #: fraction of each cycle spent "on"
    burst_fraction: float = 0.125
    #: duty-cycle period, virtual seconds
    burst_cycle: float = 1.0
    #: 0 = flat; 1 = rate swings from 0 (edges) to 2x mean (midpoint)
    diurnal_depth: float = 0.0
    #: object population size for Zipf popularity draws
    n_targets: int = 8
    #: Zipf skew (0 = uniform popularity)
    zipf_s: float = 1.1
    #: every Nth arrival is a group fan-out storm (0 = never)
    fanout_every: int = 0
    #: raiser nodes; one entry per tenant
    tenants: tuple = (0,)
    #: relative tenant rates (defaults to equal shares)
    tenant_rates: tuple = ()

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_KINDS:
            raise BenchmarkError(
                f"arrival must be one of {ARRIVAL_KINDS}, "
                f"got {self.arrival!r}")
        if self.duration <= 0 or self.rate <= 0:
            raise BenchmarkError("duration and rate must be positive")
        if not 0.0 <= self.diurnal_depth <= 1.0:
            raise BenchmarkError("diurnal_depth must be within [0, 1]")
        if not 0.0 < self.burst_fraction <= 1.0:
            raise BenchmarkError("burst_fraction must be within (0, 1]")
        if self.burst_factor < 1.0 or self.burst_cycle <= 0:
            raise BenchmarkError("burst_factor >= 1 and burst_cycle > 0 "
                                 "required")
        if self.n_targets < 1 or not self.tenants:
            raise BenchmarkError("need at least one target and one tenant")
        if self.tenant_rates and len(self.tenant_rates) != len(self.tenants):
            raise BenchmarkError("tenant_rates must match tenants")


def zipf_weights(n: int, s: float) -> list[float]:
    """Unnormalised Zipf(s) weights over ranks ``0..n-1``."""
    return [1.0 / (rank + 1) ** s for rank in range(n)]


def percentile(samples: Iterable[float], frac: float) -> float:
    """Nearest-rank ``frac`` quantile of ``samples`` (0.0 when empty)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(len(ordered) * frac))]


def rate_at(spec: WorkloadSpec, t: float) -> float:
    """Instantaneous offered rate at offset ``t``.

    The shape multipliers are normalised so the *time-averaged* rate
    stays ``spec.rate`` whatever the modulation — offered-load sweeps
    compare like with like across arrival shapes.
    """
    rate = spec.rate
    if spec.arrival == "bursty":
        # duty cycle with unit mean: on-multiplier f, off-multiplier
        # chosen so frac*on + (1-frac)*off == 1
        frac, factor = spec.burst_fraction, spec.burst_factor
        on = factor / (frac * factor + (1.0 - frac))
        off = 1.0 / (frac * factor + (1.0 - frac))
        phase = math.fmod(t, spec.burst_cycle) / spec.burst_cycle
        rate *= on if phase < frac else off
    if spec.diurnal_depth:
        # sin^2 has mean 1/2 over the span: depth*2*sin^2 keeps mean 1
        rate *= ((1.0 - spec.diurnal_depth)
                 + 2.0 * spec.diurnal_depth
                 * math.sin(math.pi * t / spec.duration) ** 2)
    return rate


def peak_rate(spec: WorkloadSpec) -> float:
    """Upper bound on :func:`rate_at` (the thinning envelope)."""
    rate = spec.rate
    if spec.arrival == "bursty":
        frac, factor = spec.burst_fraction, spec.burst_factor
        rate *= factor / (frac * factor + (1.0 - frac))
    if spec.diurnal_depth:
        rate *= (1.0 + spec.diurnal_depth)
    return rate


def build_schedule(spec: WorkloadSpec) -> list[Arrival]:
    """Generate the full arrival schedule, deterministically.

    Arrival *times* come first from one stream (thinned inhomogeneous
    Poisson, or an evenly spaced grid for ``uniform``), then tenants and
    targets are drawn per arrival from separate streams, so changing the
    popularity knobs never perturbs the timing sequence and vice versa.
    """
    times = _arrival_times(spec)
    tenant_rng = random.Random(f"{spec.seed}:workload:tenant")
    target_rng = random.Random(f"{spec.seed}:workload:target")
    tenants = list(spec.tenants)
    tenant_weights = (list(spec.tenant_rates) if spec.tenant_rates
                      else [1.0] * len(tenants))
    target_weights = zipf_weights(spec.n_targets, spec.zipf_s)
    targets = range(spec.n_targets)
    schedule = []
    for index, at in enumerate(times):
        tenant = (tenants[0] if len(tenants) == 1 else
                  tenant_rng.choices(tenants, weights=tenant_weights)[0])
        if spec.fanout_every and (index + 1) % spec.fanout_every == 0:
            target = FANOUT
        else:
            target = target_rng.choices(targets,
                                        weights=target_weights)[0]
        schedule.append(Arrival(at=at, tenant=tenant, target=target))
    return schedule


def _arrival_times(spec: WorkloadSpec) -> list[float]:
    if spec.arrival == "uniform":
        gap = 1.0 / spec.rate
        count = int(spec.duration * spec.rate)
        return [i * gap for i in range(count)]
    # Lewis-Shedler thinning: candidates at the peak rate, kept with
    # probability rate(t)/peak — an exact inhomogeneous Poisson draw.
    rng = random.Random(f"{spec.seed}:workload:times")
    peak = peak_rate(spec)
    times = []
    t = rng.expovariate(peak)
    while t < spec.duration:
        if rng.random() * peak <= rate_at(spec, t):
            times.append(t)
        t += rng.expovariate(peak)
    return times


def drive(cluster: Any, schedule: list[Arrival],
          fire: Callable[[Arrival], None]) -> float:
    """Feed a schedule into a running cluster, open loop.

    Schedules ``fire(arrival)`` at ``now + arrival.at`` for every
    arrival, using a self-rescheduling pump (one pending simulator
    callback at a time, the soak-feeder idiom) so a hundred-thousand-
    arrival schedule does not pre-populate the event queue. Returns the
    schedule's start time.
    """
    sim = cluster.sim
    start = cluster.now
    count = len(schedule)

    def pump(i: int) -> None:
        fire(schedule[i])
        # fire everything sharing this instant before rescheduling
        while i + 1 < count and schedule[i + 1].at <= schedule[i].at:
            i += 1
            fire(schedule[i])
        if i + 1 < count:
            sim.call_at(start + schedule[i + 1].at, pump, i + 1)

    if schedule:
        sim.call_at(start + schedule[0].at, pump, 0)
    return start


def summarize(schedule: list[Arrival],
              duration: float | None = None) -> dict[str, Any]:
    """Deterministic shape summary of a schedule (for payloads/tests)."""
    if not schedule:
        return {"arrivals": 0, "offered_rate": 0.0, "fanouts": 0,
                "tenant_counts": {}, "hot_target_share": 0.0}
    span = duration if duration is not None else schedule[-1].at
    tenant_counts: dict[int, int] = {}
    target_counts: dict[int, int] = {}
    fanouts = 0
    for arrival in schedule:
        tenant_counts[arrival.tenant] = \
            tenant_counts.get(arrival.tenant, 0) + 1
        if arrival.target == FANOUT:
            fanouts += 1
        else:
            target_counts[arrival.target] = \
                target_counts.get(arrival.target, 0) + 1
    posts = len(schedule)
    hot = max(target_counts.values()) if target_counts else 0
    return {
        "arrivals": posts,
        "offered_rate": round(posts / span, 2) if span else 0.0,
        "fanouts": fanouts,
        "tenant_counts": dict(sorted(tenant_counts.items())),
        "hot_target_share": round(hot / max(1, posts - fanouts), 4),
    }
