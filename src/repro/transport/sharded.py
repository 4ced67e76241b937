"""Sharded multi-process simulation: conservative time-window PDES.

The single-process simulator caps every run at one core.  This backend
partitions the cluster's nodes into contiguous shards, runs one full
kernel/event/durability stack per shard in its own worker process, and
synchronizes the shards' virtual clocks with the classic **conservative
time-window** protocol:

* the *lookahead* ``L`` is the minimum cross-shard link latency
  (``link_latency``) — a message sent at virtual time ``t`` cannot
  affect another shard before ``t + L``;
* all shards advance in lockstep windows of width ``W = L``.  Within a
  window each shard simulates independently (in parallel, on its own
  core); any message addressed to a node owned by another shard is
  buffered with its computed delivery time ``t_send + latency >=
  window_end``;
* at the window barrier, the parent collects every shard's outbound
  buffer, routes each message to the owning shard, and delivers the
  batch before the next window runs.  Arrivals are injected in sorted
  ``(deliver_time, source_shard, send_seq)`` order, so the destination
  simulator allocates sequence numbers deterministically — same-seed
  sharded runs are bit-identical, just like the single-process ones.

Messages cross the process boundary over multiprocessing pipes (the
parent is the hub), encoded by the compact wire codec
(:mod:`repro.transport.codec`).  A whole window's traffic to one
destination shard travels as **one** encoded blob that the parent
routes without decoding; the destination worker merges all source
blobs in ``(deliver_time, source_shard, send_seq)`` order.  Barrier
rounds for provably-empty windows are elided: when nothing is in
flight the parent jumps the window counter to the earliest
shard-reported next-event time, which is conservative because an idle
shard cannot originate traffic before its next pending callback.
Workers are forked where the platform offers it (no interpreter
re-import; module id counters are reset so a run is bit-identical to a
spawned one) and spawned where it does not.  Everything
*above* the transport is the stock stack: reliable channels retransmit
across shards, durable posts ack back to their origin shard,
supervision quarantines remotely — none of those layers can tell the
difference.

Known v1 limits (documented, asserted where cheap): fabric
``broadcast``/``multicast`` fan out over the *local* shard's endpoint
registry only, and recovery announcements (:meth:`Cluster.
node_recovered`) reach local peers only — run membership-style
protocols on the single-process backends for now.

Whole runs are driven by :func:`run_sharded`; ``ClusterConfig(
transport="sharded", shard_index=i)`` is what each worker builds
internally.
"""

from __future__ import annotations

import itertools
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from importlib import import_module
from typing import Any, Callable

from repro.errors import NetworkError
from repro.kernel.config import ClusterConfig, shard_owner_map
from repro.transport import codec
from repro.transport.simlocal import SimTransport

if False:  # pragma: no cover - typing only
    from repro.net.message import Message
    from repro.sim.scheduler import Simulator


class ShardSimTransport(SimTransport):
    """One shard's transport: local deliveries on the shard simulator,
    cross-shard deliveries buffered for the window barrier.

    Parameters
    ----------
    scheduler:
        The shard's deterministic simulator.
    local_nodes:
        Global node ids this shard hosts.
    all_nodes:
        Every node id in the whole run (remote ids become routable).
    lookahead:
        Conservative window width; every buffered cross-shard message
        must be deliverable no earlier than the end of the window that
        sent it (checked at the barrier).
    """

    BACKEND = "sharded"

    def __init__(self, scheduler: "Simulator", local_nodes: Any,
                 all_nodes: Any, lookahead: float) -> None:
        super().__init__(scheduler)
        self._local = set(local_nodes)
        self._remote = set(all_nodes) - self._local
        for node_id in self._remote:
            self.add_known(node_id)
        self.lookahead = float(lookahead)
        #: buffered (deliver_at, send_seq, message, dst) for the barrier
        self._outbound: list[tuple[float, int, "Message", int]] = []
        self._out_seq = itertools.count()
        self.cross_sent = 0
        self.cross_received = 0

    def routable(self, node_id: int) -> bool:
        # A remote id is always routable: whether the far node is alive
        # is the owning shard's knowledge, exactly as a real wire cannot
        # see the far end crash. Local ids follow the endpoint registry.
        return node_id in self._endpoints or node_id in self._remote

    def post(self, message: "Message", dst: int, delay: float) -> None:
        if dst in self._remote:
            self.cross_sent += 1
            deliver_at = self.scheduler.now + delay
            self._outbound.append(
                (deliver_at, next(self._out_seq), message, dst))
            return
        super().post(message, dst, delay)

    # -- barrier protocol (driven by the worker loop) -------------------

    def take_outbound(self, window_end: float) -> list[tuple]:
        """Drain the cross-shard buffer, enforcing the lookahead bound."""
        out = self._outbound
        self._outbound = []
        for deliver_at, _seq, message, dst in out:
            if deliver_at < window_end - 1e-12:
                raise NetworkError(
                    f"conservative-window violation: message "
                    f"{message.mtype!r} to node {dst} computed delivery "
                    f"{deliver_at!r} inside the sending window (end "
                    f"{window_end!r}); cross-shard latency must be >= "
                    f"the lookahead ({self.lookahead!r}s)")
        return out

    def inject(self, message: "Message", dst: int, deliver_at: float) -> None:
        """Schedule an arrival merged in at the window barrier."""
        self.cross_received += 1
        self.scheduler.call_at(deliver_at, self._hook, message, dst)

    def stats(self) -> dict[str, Any]:
        data = super().stats()
        data["cross_sent"] = self.cross_sent
        data["cross_received"] = self.cross_received
        return data


# ----------------------------------------------------------------------
# scenario plumbing
# ----------------------------------------------------------------------

#: a scenario is addressed as "package.module:function"; the function is
#: called once per worker with a ShardContext after the shard cluster is
#: built, and returns a zero-argument ``finish() -> dict`` callable that
#: runs after the last window
ScenarioFn = Callable[["ShardContext"], Callable[[], dict]]


@dataclass
class ShardContext:
    """Everything a scenario needs to set up one shard's share."""

    cluster: Any
    shard_index: int
    shard_count: int
    n_nodes: int
    local_nodes: range
    args: dict = field(default_factory=dict)
    #: lazily-built ``node -> shard`` map shared with the runner's
    #: routing table (the old per-call linear scan over shard bounds
    #: was a measurable cost for scenarios that route every post)
    _owner_map: dict | None = field(default=None, repr=False)

    def owner_shard(self, node_id: int) -> int:
        """Which shard hosts a global node id."""
        owner = self._owner_map
        if owner is None:
            owner = self._owner_map = shard_owner_map(
                self.n_nodes, self.shard_count)
        try:
            return owner[node_id]
        except KeyError:
            raise NetworkError(
                f"node {node_id} outside the cluster") from None


def resolve_scenario(path: str) -> ScenarioFn:
    """Import ``"pkg.module:function"`` (workers re-import on spawn)."""
    module_name, _, fn_name = path.partition(":")
    if not fn_name:
        raise NetworkError(
            f"scenario must be 'module:function', got {path!r}")
    fn = getattr(import_module(module_name), fn_name, None)
    if fn is None:
        raise NetworkError(f"no scenario {fn_name!r} in {module_name}")
    return fn


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _config_kwargs(config: ClusterConfig) -> dict:
    """A picklable kwargs dict rebuilding this config in a worker."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def _start_method() -> str:
    """Worker start method: fork where the OS offers it, else spawn.

    ``spawn`` re-imports the interpreter per worker (~0.2 s each, the
    dominant cost of small sharded runs); ``fork`` inherits the loaded
    modules.  :func:`_reset_process_counters` makes the two
    bit-identical.
    """
    import multiprocessing as mp
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _reset_process_counters() -> None:
    """Reset every module-level id counter to its import-time state.

    A forked worker inherits the parent's already-advanced counters
    (oids, block ids, timer spec ids, ...), which would shift every id the
    shard allocates and break both the per-shard digests and
    :func:`repro.bench.scale.sink_cap`'s oid arithmetic.  Resetting
    them reproduces exactly what a spawned (freshly imported) worker
    sees; under spawn this is a no-op by construction.
    """
    # import_module, not ``import a.b as c``: repro/__init__ rebinds the
    # ``events`` attribute (``names as events``), breaking getattr-chain
    # binding for repro.events.* submodules
    counters = (
        ("repro.objects.base", "_oids"),
        ("repro.events.handlers", "_reg_ids"),
        ("repro.events.handlers", "_proc_names"),
        ("repro.events.block", "_block_ids"),
        ("repro.threads.attributes", "_timer_spec_ids"),
        ("repro.dsm.manager", "_segment_ids"),
        ("repro.baselines.unix_signals", "_pids"),
        ("repro.baselines.mach_exceptions", "_task_ids"),
    )
    for module_name, counter in counters:
        setattr(import_module(module_name), counter, itertools.count(1))


def _shard_worker(conn: Any, config_kwargs: dict, shard_index: int,
                  scenario_path: str, scenario_args: dict) -> None:
    """Worker main: build one shard's cluster, obey barrier commands."""
    try:
        _reset_process_counters()
        from repro.kernel.boot import Cluster
        config = ClusterConfig(**{**config_kwargs,
                                  "shard_index": shard_index})
        cluster = Cluster(config)
        transport: ShardSimTransport = cluster.transport
        ctx = ShardContext(cluster=cluster, shard_index=shard_index,
                           shard_count=config.shard_count,
                           n_nodes=config.n_nodes,
                           local_nodes=config.local_node_ids(),
                           args=dict(scenario_args))
        finish = resolve_scenario(scenario_path)(ctx)
        owner_of = shard_owner_map(config.n_nodes, config.shard_count)
        sim = cluster.sim
        while True:
            cmd = conn.recv()
            tag = cmd[0]
            if tag == "win":
                _, window_end, blobs = cmd
                # One blob per source shard; merge every source's
                # records in (deliver_time, src shard, send seq) order —
                # injection order decides the destination simulator's
                # sequence numbers, hence determinism.
                merged = []
                for src_shard, blob in blobs:
                    for deliver_at, seq, message, dst in codec.decode_batch(
                            blob):
                        merged.append(
                            (deliver_at, src_shard, seq, message, dst))
                merged.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
                for deliver_at, _s, _q, message, dst in merged:
                    transport.inject(message, dst, deliver_at)
                cluster.run(until=window_end)
                by_dst_shard: dict[int, list] = {}
                for record in transport.take_outbound(window_end):
                    by_dst_shard.setdefault(
                        owner_of[record[3]], []).append(record)
                outbound = {
                    dst_shard: (len(records), codec.encode_batch(records))
                    for dst_shard, records in by_dst_shard.items()}
                conn.send(("done", outbound, sim.pending,
                           sim.peek_next()))
            elif tag == "finish":
                conn.send(("result", finish(), transport.stats(),
                           cluster.message_stats()))
            elif tag == "exit":
                return
            else:  # pragma: no cover - protocol guard
                raise NetworkError(f"unknown shard command {tag!r}")
    except Exception:  # noqa: BLE001 - forwarded to the parent
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

@dataclass
class ShardedReport:
    """Outcome of one sharded run."""

    #: per-shard dicts returned by the scenarios' ``finish``
    shard_results: list[dict]
    #: per-shard transport counters (cross_sent / cross_received / ...)
    transport_stats: list[dict]
    #: per-shard fabric traffic snapshots
    message_stats: list[dict]
    windows: int
    virtual_time: float
    wall_time: float

    @property
    def cross_shard_messages(self) -> int:
        return sum(s.get("cross_sent", 0) for s in self.transport_stats)


def run_sharded(config: ClusterConfig, scenario: str,
                scenario_args: dict | None = None,
                until: float | None = None,
                max_windows: int = 1_000_000) -> ShardedReport:
    """Run one conservatively-synchronized sharded simulation.

    Parameters
    ----------
    config:
        Cluster configuration with ``transport="sharded"`` and
        ``shard_count`` set (``shard_index`` must be None — the runner
        assigns one per worker).
    scenario:
        ``"module:function"`` path to the per-shard scenario.
    scenario_args:
        Plain-data kwargs handed to every shard's context.
    until:
        Stop after this much virtual time; None = run until every shard
        is idle and no messages are in flight.
    max_windows:
        Safety valve against livelock (a window is one lookahead).
    """
    import math
    import multiprocessing as mp

    if config.transport != "sharded":
        raise NetworkError("run_sharded needs config.transport='sharded'")
    if config.shard_index is not None:
        raise NetworkError("leave shard_index unset; the runner assigns it")
    window = config.link_latency
    shard_count = config.shard_count
    kwargs = _config_kwargs(config)
    ctx = mp.get_context(_start_method())
    conns, workers = [], []
    started = time.perf_counter()

    def dead_worker(shard: int) -> NetworkError:
        workers[shard].join(timeout=5)
        return NetworkError(
            f"shard {shard} worker died without reporting "
            f"(exitcode {workers[shard].exitcode})")

    def send(shard: int, payload: tuple) -> None:
        """One command, or a clear error naming the shard that died."""
        try:
            conns[shard].send(payload)
        except OSError:
            # BrokenPipeError when the worker died before the barrier
            # round reached it; whether the parent notices on send or
            # on the following recv is a race
            raise dead_worker(shard) from None

    def recv(shard: int) -> tuple:
        """One reply, or a clear error naming the shard that failed."""
        try:
            reply = conns[shard].recv()
        except (EOFError, OSError):
            # EOFError for a cleanly-closed pipe, ConnectionResetError
            # (an OSError) when the worker was killed mid-write
            raise dead_worker(shard) from None
        if reply[0] == "error":
            raise NetworkError(f"shard {shard} failed:\n{reply[1]}")
        return reply

    try:
        for shard in range(shard_count):
            parent_conn, child_conn = ctx.Pipe()
            worker = ctx.Process(
                target=_shard_worker,
                args=(child_conn, kwargs, shard, scenario,
                      dict(scenario_args or {})),
                daemon=True)
            worker.start()
            child_conn.close()
            conns.append(parent_conn)
            workers.append(worker)

        final_index = (None if until is None
                       else math.ceil(until / window - 1e-12))

        #: per destination shard: one (src_shard, blob) per source
        inbound: list[list] = [[] for _ in range(shard_count)]
        windows = 0
        window_index = 0
        virtual_time = 0.0
        while True:
            windows += 1
            if windows > max_windows:
                raise NetworkError(
                    f"sharded run exceeded max_windows={max_windows} "
                    f"(livelock, or raise the cap for long runs)")
            window_index += 1
            window_end = window_index * window
            for shard in range(shard_count):
                send(shard, ("win", window_end, inbound[shard]))
            inbound = [[] for _ in range(shard_count)]
            in_flight = 0
            pending_total = 0
            next_times = []
            for shard in range(shard_count):
                _tag, outbound, pending, next_time = recv(shard)
                pending_total += pending
                if next_time is not None:
                    next_times.append(next_time)
                for dst_shard, (count, blob) in outbound.items():
                    inbound[dst_shard].append((shard, blob))
                    in_flight += count
            virtual_time = window_end
            if until is not None and window_end >= until:
                break
            if until is None and in_flight == 0 and pending_total == 0:
                break
            if in_flight == 0:
                # Quiescent skip-ahead: with nothing in flight, no shard
                # can execute (or send) anything before the earliest
                # pending callback at min(next_times) = E.  Jumping to
                # window k = ceil(E / W) keeps the lookahead invariant:
                # every event the jump target window runs is at time
                # > (k-1)*W, so its cross-shard sends deliver after
                # k*W.  Barrier rounds for the skipped windows carried
                # provably zero traffic.
                if next_times:
                    target = math.ceil(min(next_times) / window - 1e-12)
                    if target > window_index + 1:
                        window_index = target - 1
                elif final_index is not None:
                    # no pending work anywhere: only the `until` bound
                    # is left to reach
                    window_index = max(window_index, final_index - 1)
                if final_index is not None and window_index >= final_index:
                    window_index = final_index - 1

        shard_results, transport_stats, message_stats = [], [], []
        for shard in range(shard_count):
            send(shard, ("finish",))
            _tag, result, tstats, mstats = recv(shard)
            shard_results.append(result)
            transport_stats.append(tstats)
            message_stats.append(mstats)
        for shard in range(shard_count):
            send(shard, ("exit",))
        for shard, worker in enumerate(workers):
            worker.join(timeout=30)
            if worker.exitcode is None:
                raise NetworkError(
                    f"shard {shard} worker did not exit within 30s "
                    f"after the run completed")
            if worker.exitcode != 0:
                raise NetworkError(
                    f"shard {shard} worker exited with code "
                    f"{worker.exitcode} after reporting its results")
        return ShardedReport(shard_results=shard_results,
                             transport_stats=transport_stats,
                             message_stats=message_stats,
                             windows=windows, virtual_time=virtual_time,
                             wall_time=time.perf_counter() - started)
    finally:
        for conn in conns:
            conn.close()
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5)


def sharded_config(base: ClusterConfig, n_nodes: int,
                   shard_count: int) -> ClusterConfig:
    """Convenience: re-target a config at a sharded run."""
    return replace(base, transport="sharded", n_nodes=n_nodes,
                   shard_count=shard_count, shard_index=None)
