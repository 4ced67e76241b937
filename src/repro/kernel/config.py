"""Cluster-wide configuration.

All timing constants the simulation charges for kernel operations live
here, so experiments can sweep them (e.g. E3 sweeps
``thread_create_cost`` to show what the master-handler-thread optimisation
saves).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import KernelError

#: Locator strategy names (section 7.1 of the paper). ``cached`` is the
#: optimisation the paper leaves on the table: remember where the thread
#: was last found and post there directly, falling back to a base
#: strategy on a miss.
LOCATE_BROADCAST = "broadcast"
LOCATE_PATH = "path"
LOCATE_MULTICAST = "multicast"
LOCATE_CACHED = "cached"
BASE_LOCATOR_NAMES = (LOCATE_BROADCAST, LOCATE_PATH, LOCATE_MULTICAST)
LOCATOR_NAMES = BASE_LOCATOR_NAMES + (LOCATE_CACHED,)

#: Invocation transports (section 2: "RPC or DSM").
TRANSPORT_RPC = "rpc"
TRANSPORT_DSM = "dsm"
TRANSPORT_NAMES = (TRANSPORT_RPC, TRANSPORT_DSM)

#: Object-event execution modes (section 7: master handler thread vs
#: creating a thread per event).
OBJ_EVENTS_MASTER = "master"
OBJ_EVENTS_PER_EVENT = "per-event"

#: Scheduler backends (:mod:`repro.sim.scheduler`). ``heap`` is the
#: bit-identical reference; ``wheel`` is the timing-wheel / calendar
#: queue fast path with an overflow heap for far-future timers.
SCHEDULER_HEAP = "heap"
SCHEDULER_WHEEL = "wheel"
SCHEDULER_NAMES = (SCHEDULER_HEAP, SCHEDULER_WHEEL)

#: Transport backends (:mod:`repro.transport`): ``sim`` is the
#: deterministic single-process simulator (the bit-identical reference),
#: ``sharded`` one shard of a conservatively-synchronized multi-process
#: simulation, and ``tcp`` the same cluster on real asyncio sockets with
#: wall-clock timers.
TRANSPORT_BACKEND_SIM = "sim"
TRANSPORT_BACKEND_SHARDED = "sharded"
TRANSPORT_BACKEND_TCP = "tcp"
TRANSPORT_BACKEND_NAMES = (TRANSPORT_BACKEND_SIM, TRANSPORT_BACKEND_SHARDED,
                           TRANSPORT_BACKEND_TCP)


def shard_bounds(n_nodes: int, shard_count: int,
                 shard_index: int) -> tuple[int, int]:
    """Contiguous node-id block ``[lo, hi)`` owned by one shard.

    Remainder nodes go to the lowest-indexed shards, so every shard's
    block is computable by every other shard without coordination.
    """
    base, rem = divmod(n_nodes, shard_count)
    lo = shard_index * base + min(shard_index, rem)
    hi = lo + base + (1 if shard_index < rem else 0)
    return lo, hi


def shard_owner_map(n_nodes: int, shard_count: int) -> dict[int, int]:
    """``node_id -> owning shard`` for every node, computed once.

    Shared by the sharded runner's routing table and
    :meth:`~repro.transport.sharded.ShardContext.owner_shard`, which
    used to re-derive it with a linear scan over the shard bounds on
    every call.
    """
    owner: dict[int, int] = {}
    for shard in range(shard_count):
        lo, hi = shard_bounds(n_nodes, shard_count, shard)
        for node_id in range(lo, hi):
            owner[node_id] = shard
    return owner


#: Admission-control shedding policies (overload control, E13).
#: ``drop`` rejects over-watermark posts with §7.2 undeliverable
#: notices; ``degrade`` downgrades non-durable posts from reliable to
#: fire-and-forget (durable posts are deferred instead); ``defer``
#: parks durable posts in the transactional outbox for later flush
#: (non-durable posts are dropped with a notice).
OVERLOAD_DROP = "drop"
OVERLOAD_DEGRADE = "degrade"
OVERLOAD_DEFER = "defer"
OVERLOAD_POLICY_NAMES = (OVERLOAD_DROP, OVERLOAD_DEGRADE, OVERLOAD_DEFER)


@dataclass
class ClusterConfig:
    """Knobs for building a simulated DO/CT cluster.

    Attributes
    ----------
    n_nodes:
        Number of nodes in the cluster.
    seed:
        Seed for all random streams.
    link_latency:
        One-way remote message latency in seconds (fixed model unless a
        custom model is installed on the fabric afterwards).
    locator:
        Thread-location strategy for event posting.
    object_event_mode:
        Whether object-based events are served by a per-node master
        handler thread or by a freshly created thread per event.
    thread_create_cost:
        Virtual seconds to create a thread (charged for spawned threads
        and per-event handler threads).
    page_size:
        Bytes per DSM page.
    dsm_fields_per_page:
        How many object fields share one DSM page (false sharing knob).
    trace_net:
        False starts the cluster with ``tracer.mute("net")`` (no
        per-message trace records) and nothing more.
    """

    n_nodes: int = 4
    seed: int = 0
    link_latency: float = 1e-3
    locator: str = LOCATE_PATH
    object_event_mode: str = OBJ_EVENTS_MASTER
    thread_create_cost: float = 2e-4
    page_size: int = 4096
    dsm_fields_per_page: int = 1
    #: Fail a raise_and_wait raiser after this many virtual seconds if no
    #: resume arrived (None = wait forever). Guards against message loss.
    sync_raise_timeout: float | None = None
    #: Base strategy the ``cached`` locator falls back to when it has no
    #: hint or exhausted its forwarding budget.
    cache_fallback: str = LOCATE_PATH
    #: Post an ABORT event to each object a terminating thread unwinds out
    #: of, so "all of the objects get a chance to perform appropriate
    #: cleanup operations" (§6.3).
    notify_abort_on_unwind: bool = True
    #: Route event posts, locator traffic, RPC and invocation messages
    #: through each node's :class:`~repro.net.reliable.ReliableChannel`
    #: (at-least-once with dedup). Off by default: the fault-free
    #: experiments keep their fire-and-forget message counts.
    reliable_delivery: bool = False
    #: First retransmission timeout (virtual seconds).
    retransmit_base: float = 4e-3
    #: Retransmission budget before a reliable send gives up.
    max_retransmits: int = 10
    #: Per-sender bound on remembered out-of-order sequence numbers;
    #: also sizes each node's memory of recent *degraded* block ids.
    dedup_window: int = 1024
    #: Acknowledgement window (virtual seconds) of both ack layers.
    #: Transport: arrivals from one peer within the window share a
    #: single cumulative ack, which rides any reverse-direction data
    #: message sent inside it; 0 = ack every arrival immediately (still
    #: cumulative). Durable delivery: the ``store.ack``s a node owes one
    #: origin share one message, sent this long after the first became
    #: due; 0 = behind the work already queued for the instant. Keep
    #: well below ``retransmit_base`` minus a round trip or delayed
    #: acks trigger spurious retransmissions.
    ack_delay: float = 1e-3
    #: Default timeout for RPC requests made without an explicit one
    #: (None = wait forever, the seed behaviour).
    rpc_default_timeout: float | None = None
    #: Backstop deadline (virtual seconds) for an asynchronous post: if
    #: neither success nor failure has been reported by then, the raiser
    #: gets an undeliverable notice (None = no backstop).
    post_deadline: float | None = None
    #: Journal every post in the origin node's write-ahead log before the
    #: first send, hold it in the outbox until the handler side acks, and
    #: replay the journal on recovery (:mod:`repro.store`). Implies
    #: ``reliable_delivery`` (redelivery rides the reliable channel).
    durable_delivery: bool = False
    #: Journal appends between automatic checkpoints (snapshot + log
    #: truncation); None = checkpoint only on explicit request.
    checkpoint_interval: int | None = 64
    #: Self-quenching outbox flush period (virtual seconds): parked
    #: entries — reliable sends that gave up — are re-dispatched this
    #: often until acked. None disables the timer (recovery
    #: announcements still redeliver).
    outbox_flush_interval: float | None = 0.25
    #: Virtual seconds charged per journal record replayed at recovery;
    #: redelivery and the recovery announcement wait this long.
    replay_cost: float = 2e-5
    #: Handler supervision (all default off: zero extra simulator events
    #: and byte-identical same-seed runs unless a knob is enabled).
    #: Watchdog deadline (virtual seconds) for a supervised handler
    #: execution; on expiry the surrogate is cancelled, the chain falls
    #: through, and a HANDLER_TIMEOUT system event is raised on the
    #: owning thread. Overridable per attach. None = no watchdog.
    handler_deadline: float | None = None
    #: Retries (with exponential backoff) for a buddy/remote handler
    #: invocation that fails with a crash/give-up error. 0 = no retries.
    handler_retries: int = 0
    #: Base backoff delay (virtual seconds) for handler retries and
    #: poison-chain re-runs; attempt k waits backoff * 2**k.
    handler_backoff: float = 4e-3
    #: Consecutive buddy-invocation failures that open the per-
    #: (buddy-oid, event) circuit breaker. None = breakers disabled.
    breaker_threshold: int | None = None
    #: Virtual seconds an open breaker waits before letting one
    #: half-open probe through.
    breaker_reset: float = 0.25
    #: Times an event's *entire* chain may fail before the block is
    #: moved to the node's dead-letter queue. None = never quarantine.
    poison_threshold: int | None = None
    #: SWIM gossip membership (:mod:`repro.kernel.membership`), the one
    #: failure detector: its suspicion fails buddy posts fast and gates
    #: outbox flushes. Protocol period (virtual seconds): once per
    #: period each node pings one member chosen by randomized
    #: round-robin — O(1) failure detection load per node per period
    #: regardless of cluster size; the ping timeout is a third of it and
    #: the refutation window three times it. None (the default) disables
    #: the layer: no timers, no messages, no state transitions, and
    #: bit-identical same-seed digests.
    swim_interval: float | None = None
    #: Overload control (all default off: zero behaviour change and
    #: bit-identical same-seed runs unless a knob is enabled).
    #: Credit-based flow control: per-peer in-flight window on the
    #: reliable channel. A sender may have at most this many unacked
    #: messages outstanding to one peer; excess sends park until
    #: cumulative acks replenish credits. The window is halved on
    #: retransmission and recovered one credit per productive ack
    #: (AIMD), so a struggling peer sheds incoming pressure. None
    #: disables flow control (unbounded in-flight, the seed behaviour).
    flow_credits: int | None = None
    #: Admission-control high watermark: when a node's outstanding
    #: admitted-post depth reaches this, new posts raised at the node
    #: are shed per ``overload_policy`` until the depth drains to
    #: ``admission_low``. None disables admission control.
    admission_high: int | None = None
    #: Admission-control low watermark (hysteresis): shedding stops once
    #: depth falls back to this. None = half of ``admission_high``.
    admission_low: int | None = None
    #: What to do with a post shed by admission control: ``drop``
    #: (undeliverable notice, §7.2), ``degrade`` (reliable →
    #: fire-and-forget for idempotent non-durable posts) or ``defer``
    #: (park durable posts in the outbox for later flush). Durable
    #: posts are never dropped: under ``drop``/``degrade`` they defer.
    overload_policy: str = OVERLOAD_DROP
    #: Weighted-fair admission while shedding: maps raiser node id to a
    #: relative weight. While the gate is shedding, tenant t keeps
    #: admitting until its share of ``admission_low`` (proportional to
    #: its weight) is outstanding, so one hot tenant cannot starve the
    #: rest. Empty = shed every tenant alike while over the watermark.
    tenant_weights: dict = field(default_factory=dict)
    #: Transport backend carrying every inter-node message
    #: (:mod:`repro.transport`): ``sim`` — deterministic single-process
    #: simulator, bit-identical to the pre-port tree; ``sharded`` — one
    #: shard of a multi-process conservative-time-window simulation
    #: (build whole runs through
    #: :func:`repro.transport.sharded.run_sharded`); ``tcp`` — real
    #: asyncio TCP sockets on loopback with wall-clock timers.
    transport: str = TRANSPORT_BACKEND_SIM
    #: Worker processes a ``sharded`` run partitions the nodes across.
    shard_count: int = 1
    #: Which shard this Cluster instance hosts (set by the sharded
    #: runner inside each worker; None everywhere else).
    shard_index: int | None = None
    #: Bind host for the ``tcp`` backend's per-node listening sockets.
    tcp_host: str = "127.0.0.1"
    #: First listening port for the ``tcp`` backend (node i binds
    #: ``tcp_base_port + i``); 0 = ephemeral ports chosen by the OS.
    tcp_base_port: int = 0
    #: Discrete-event scheduler backend: ``heap`` (the bit-identical
    #: reference, default) or ``wheel`` (timing wheel / calendar queue;
    #: same execution order — the differential tests hold both to
    #: identical traces — different push/pop cost profile).
    scheduler: str = SCHEDULER_HEAP
    trace_net: bool = True

    # -- transport helpers ---------------------------------------------

    def local_node_ids(self) -> range:
        """Global node ids this Cluster instance hosts.

        Everything for the single-process backends; this shard's
        contiguous block for a sharded worker.
        """
        if (self.transport == TRANSPORT_BACKEND_SHARDED
                and self.shard_index is not None):
            lo, hi = shard_bounds(self.n_nodes, self.shard_count,
                                  self.shard_index)
            return range(lo, hi)
        return range(self.n_nodes)

    def __post_init__(self) -> None:
        if self.durable_delivery:
            # Redelivery rides the reliable channel; durable without
            # reliable would redeliver over fire-and-forget links.
            self.reliable_delivery = True
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise KernelError("checkpoint_interval must be >= 1 or None")
        if (self.outbox_flush_interval is not None
                and self.outbox_flush_interval <= 0):
            raise KernelError("outbox_flush_interval must be positive or None")
        if self.replay_cost < 0:
            raise KernelError("replay_cost must be non-negative")
        if self.n_nodes < 1:
            raise KernelError(f"cluster needs at least one node, got {self.n_nodes}")
        if self.locator not in LOCATOR_NAMES:
            raise KernelError(
                f"unknown locator {self.locator!r}; choose from {LOCATOR_NAMES}")
        if self.cache_fallback not in BASE_LOCATOR_NAMES:
            raise KernelError(
                f"unknown cache_fallback {self.cache_fallback!r}; "
                f"choose from {BASE_LOCATOR_NAMES}")
        if self.object_event_mode not in (OBJ_EVENTS_MASTER, OBJ_EVENTS_PER_EVENT):
            raise KernelError(
                f"unknown object_event_mode {self.object_event_mode!r}")
        if self.scheduler not in SCHEDULER_NAMES:
            raise KernelError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {SCHEDULER_NAMES}")
        if self.transport not in TRANSPORT_BACKEND_NAMES:
            raise KernelError(
                f"unknown transport {self.transport!r}; "
                f"choose from {TRANSPORT_BACKEND_NAMES}")
        if self.shard_count < 1:
            raise KernelError("shard_count must be >= 1")
        if self.shard_count > self.n_nodes:
            raise KernelError(
                f"shard_count {self.shard_count} exceeds n_nodes "
                f"{self.n_nodes} (a shard needs at least one node)")
        if self.shard_index is not None and not (
                0 <= self.shard_index < self.shard_count):
            raise KernelError(
                f"shard_index {self.shard_index} out of range for "
                f"shard_count {self.shard_count}")
        if not (0 <= self.tcp_base_port <= 65535):
            raise KernelError("tcp_base_port must be within [0, 65535]")
        for name in ("link_latency", "thread_create_cost", "retransmit_base",
                     "ack_delay"):
            if getattr(self, name) < 0:
                raise KernelError(f"{name} must be non-negative")
        if self.max_retransmits < 0:
            raise KernelError("max_retransmits must be >= 0")
        if self.dedup_window < 1:
            raise KernelError("dedup_window must be >= 1")
        for name in ("rpc_default_timeout", "post_deadline",
                     "handler_deadline", "breaker_reset", "swim_interval"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise KernelError(f"{name} must be positive or None")
        for name in ("breaker_threshold", "poison_threshold"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise KernelError(f"{name} must be >= 1 or None")
        if self.handler_retries < 0:
            raise KernelError("handler_retries must be >= 0")
        if self.handler_backoff < 0:
            raise KernelError("handler_backoff must be non-negative")
        if self.flow_credits is not None and self.flow_credits < 1:
            raise KernelError("flow_credits must be >= 1 or None")
        if self.admission_high is not None:
            if self.admission_high < 1:
                raise KernelError("admission_high must be >= 1 or None")
            if (self.admission_low is not None
                    and not 1 <= self.admission_low <= self.admission_high):
                raise KernelError(
                    "admission_low must satisfy "
                    "1 <= admission_low <= admission_high")
        elif self.admission_low is not None:
            raise KernelError("admission_low requires admission_high")
        if self.overload_policy not in OVERLOAD_POLICY_NAMES:
            raise KernelError(
                f"unknown overload_policy {self.overload_policy!r}; "
                f"choose from {OVERLOAD_POLICY_NAMES}")
        for tenant, weight in self.tenant_weights.items():
            if not isinstance(weight, (int, float)) or weight <= 0:
                raise KernelError(
                    f"tenant_weights[{tenant!r}] must be a positive number")
        if self.page_size < 1 or self.dsm_fields_per_page < 1:
            raise KernelError("page_size and dsm_fields_per_page must be >= 1")
