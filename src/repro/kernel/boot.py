"""Cluster builder: the composition root of the simulated DO/CT system.

A :class:`Cluster` assembles the full stack — simulator, fabric, per-node
kernels, object managers, the invocation engine, the event manager and
the DSM manager — and offers the high-level API applications, tests and
benchmarks use: create objects, spawn threads, raise events, run virtual
time.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from repro.errors import KernelError, UnknownThreadError
from repro.events.admission import AdmissionGate
from repro.events.delivery import EventManager
from repro.events.names import seed_system_events
from repro.kernel.config import ClusterConfig
from repro.kernel.names import NameService
from repro.kernel.node import Kernel
from repro.net.fabric import Fabric
from repro.net.faults import FaultPlan
from repro.net.latency import FixedLatency, LatencyModel
from repro.objects.capability import Capability
from repro.objects.invocation import InvocationEngine
from repro.objects.manager import ObjectManager
from repro.dsm.manager import DsmManager
from repro.sim.primitives import SimFuture
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.transport.base import make_transport
from repro.store.journal import ClusterStore
from repro.threads.attributes import IoChannel, ThreadAttributes
from repro.threads.groups import GroupRegistry
from repro.threads.ids import GroupId, IdAllocator, ThreadId
from repro.threads.thread import DThread


class Cluster:
    """A simulated DO/CT cluster, ready to run applications.

    Example
    -------
    >>> from repro import Cluster, ClusterConfig
    >>> cluster = Cluster(ClusterConfig(n_nodes=2))
    """

    def __init__(self, config: ClusterConfig | None = None,
                 latency: LatencyModel | None = None,
                 faults: FaultPlan | None = None) -> None:
        self.config = config or ClusterConfig()
        #: the message medium (repro.transport): deterministic simulator,
        #: one shard of a multi-process simulation, or real TCP sockets
        self.transport = make_transport(self.config)
        #: the transport's clock; a Simulator on the sim backends, a
        #: wall-clock RealtimeScheduler on tcp — same scheduling surface
        self.sim = self.transport.scheduler
        self.rng = RngRegistry(self.config.seed)
        self.tracer = Tracer(self.sim)
        if not self.config.trace_net:
            self.tracer.mute("net")
        self.fabric = Fabric(
            self.transport,
            latency or FixedLatency(self.config.link_latency),
            faults=faults or FaultPlan(self.rng),
            tracer=self.tracer)
        self.names = NameService()
        seed_system_events(self.names)
        self.groups = GroupRegistry()
        #: all live logical threads, by tid
        self.live_threads: dict[ThreadId, DThread] = {}
        #: global oid -> object map (location transparency for lookups;
        #: message costs are charged by the engines, not by this map)
        self.object_directory: dict[int, Any] = {}
        #: per-cluster oid allocator (keeps runs bit-identical)
        self.oid_counter = itertools.count(1)
        #: per-node write-ahead journals — the simulated durable medium.
        #: Owned by the cluster (not the kernels) so Kernel.crash cannot
        #: reach it; created before the nodes, which attach their
        #: NodeStore to their journal at construction.
        self.store = ClusterStore()
        #: global node ids hosted by *this* Cluster instance — all of
        #: them on the single-process backends, one contiguous shard
        #: block inside a sharded worker
        self.local_node_ids = list(self.config.local_node_ids())
        self.kernels = {i: Kernel(self, i) for i in self.local_node_ids}
        for kernel in self.kernels.values():
            kernel.id_allocator = IdAllocator(kernel.node_id)
            kernel.objects = ObjectManager(kernel)
        self.invoker = InvocationEngine(self)
        self.events = EventManager(self)
        #: ``raise_event`` with no relay frame (patch it on the instance)
        self.raise_event = self.events.raise_external
        self.dsm = DsmManager(self)
        for kernel in self.kernels.values():
            kernel.invoker = self.invoker
            kernel.events = self.events
            kernel.dsm = self.dsm
        # Failure detection (inert unless ``swim_interval`` is set;
        # arming happens after wiring so pings can dispatch).
        for kernel in self.kernels.values():
            kernel.membership.start()
        # Bring the medium up last: endpoints are all registered by now.
        # A no-op for the in-process simulator; binds listening sockets
        # for tcp and declares remote shard peers for sharded workers.
        self.transport.start()

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def _kernel(self, node: int) -> Kernel:
        kernel = self.kernels.get(node)
        if kernel is None:
            raise KernelError(f"no node {node} in this cluster")
        return kernel

    def crash_node(self, node: int) -> None:
        """Fail-stop ``node`` (see :meth:`repro.kernel.node.Kernel.crash`)."""
        self._kernel(node).crash()

    def recover_node(self, node: int) -> None:
        """Bring a crashed ``node`` back with empty volatile state."""
        self._kernel(node).recover()

    def leave_node(self, node: int) -> None:
        """Graceful departure: announce death through gossip membership
        (a no-op without ``swim_interval``), then fail-stop. Views
        converge immediately instead of waiting out a suspicion cycle;
        :meth:`recover_node` later rejoins with a bumped incarnation."""
        kernel = self._kernel(node)
        kernel.membership.leave()
        kernel.crash()

    def node_recovered(self, node: int) -> None:
        """A node finished recovery replay: surviving peers re-dispatch
        every outbox entry addressed to it (anything queued there at the
        crash died with the kernel's memory)."""
        for kernel in self.kernels.values():
            if kernel.node_id != node and not kernel.crashed:
                kernel.store.flush_to(node)

    # ------------------------------------------------------------------
    # handler supervision (dead letters, breakers, failure detection)
    # ------------------------------------------------------------------

    def dead_letters(self, node: int | None = None) -> list[Any]:
        """Quarantined event blocks: one node's, or the whole cluster's
        in (node, dl_id) order."""
        if node is not None:
            return self._kernel(node).dead_letters.entries()
        out: list[Any] = []
        for node_id in sorted(self.kernels):
            out.extend(self.kernels[node_id].dead_letters.entries())
        return out

    def requeue_dead_letter(self, node: int, dl_id: int) -> bool:
        """Take a dead letter off ``node``'s quarantine and re-post it.

        The block is re-routed as a **fresh** asynchronous post (new
        block id, no durable id) so receiver-side dedup — which already
        saw the original — cannot swallow the retry. Returns False when
        the id is unknown.
        """
        kernel = self._kernel(node)
        dead = kernel.dead_letters.take(dl_id)
        if dead is None:
            return False
        self.events.route.requeue(node, dead)
        return True

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, int]:
        """Every counter of this cluster's nodes, summed over the nodes
        and keyed ``layer.module.metric`` (docs/API.md has the table):
        the one place counters are added up across nodes."""
        totals: dict[str, int] = {}
        for layer, stats in self._counters():
            for key, value in stats.items():
                key = layer + key
                totals[key] = totals.get(key, 0) + value
        return totals

    def _counters(self) -> Iterator[tuple[str, dict[str, int]]]:
        """``(layer prefix, counter dict)`` for every component. A
        scheduler's or transport's layer is the module defining its class;
        its backend name and the realtime clock are no counters."""
        for part in (self.sim, self.transport):
            layer = type(part).__module__.removeprefix("repro.") + "."
            yield layer, {key: value for key, value in part.stats().items()
                          if key not in ("backend", "now")}
        yield "net.fabric.", self.fabric.stats.snapshot()
        events = self.events
        yield "events.route.", {"posts": events.route.posts}
        yield "events.post.", {"dead_targets": events.post.dead_targets}
        yield "events.execute.", {
            "delivered": events.execute.delivered,
            "handler_failures": events.execute.handler_failures}
        yield "events.settle.", {"undeliverable": events.settle.undeliverable}
        yield "events.supervise.", events.supervisor.stats()
        # An idle gate stands in while admission is off: its keys read 0.
        for gate in (events.admission.values() if events.admission is not None
                     else (AdmissionGate(0, 0, 0),)):
            yield "events.admission.", gate.stats()
        for stats in events.locator.counters():
            yield "events.locate.", stats
        yield "dsm.manager.", self.dsm.protocol_stats()
        for kernel in self.kernels.values():
            yield "net.reliable.", kernel.reliable.stats()
            if kernel.membership.enabled:
                yield "kernel.membership.", kernel.membership.stats()
            yield "events.supervise.", {"held": len(kernel.dead_letters)}
            store = kernel.store
            yield "store.journal.", store.journal.stats()
            yield "store.outbox.", store.outbox.stats()
            yield "store.manager.", store.stats()

    def _view(self, *layers: str) -> dict[str, int]:
        """The :meth:`metrics` keys under ``layers``, layer name cut off."""
        prefixes = tuple(layer + "." for layer in layers)
        return {key.split(".", 2)[2]: value
                for key, value in self.metrics().items()
                if key.startswith(prefixes)}

    def reliability_stats(self) -> dict[str, int]:
        """Cluster-wide reliable-channel counters (``net.reliable``)."""
        return self._view("net.reliable")

    def durability_stats(self) -> dict[str, int]:
        """Cluster-wide store counters (``store.journal``,
        ``store.outbox`` and ``store.manager`` in one dict)."""
        return self._view("store.journal", "store.outbox", "store.manager")

    def message_stats(self) -> dict[str, int]:
        """Fabric traffic (``net.fabric``): totals and ``type:<mtype>``."""
        return self._view("net.fabric")

    def scheduler_stats(self) -> dict[str, Any]:
        """The scheduler's own :meth:`~repro.sim.scheduler.Simulator.stats`
        (its counters are in :meth:`metrics`, beside its backend name)."""
        return self.sim.stats()

    # ------------------------------------------------------------------
    # running virtual time
    # ------------------------------------------------------------------

    def run(self, until: float | None = None,
            max_events: int | None = 2_000_000) -> None:
        """Advance time until idle (or ``until``).

        Virtual time on the sim backends; wall-clock seconds since the
        cluster was built on the tcp backend (where "idle" means no
        pending timers and no frames in flight).
        """
        self.sim.run(until=until, max_events=max_events)

    def close(self) -> None:
        """Release transport resources (sockets, worker pipes).

        A no-op for the in-process simulator; tcp clusters should close
        when done or loopback sockets linger until interpreter exit.
        """
        self.transport.close()

    def transport_stats(self) -> dict[str, Any]:
        """The transport port's own ``stats()``: frames moved, bytes on
        the wire for tcp, cross-shard traffic for sharded (its counters
        are in :meth:`metrics`, beside its backend name)."""
        return self.transport.stats()

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # objects
    # ------------------------------------------------------------------

    def create_object(self, cls: type, *args: Any, node: int = 0,
                      transport: str | None = None,
                      name: str | None = None, **kwargs: Any) -> Capability:
        """Create an object on ``node``; optionally bind it in the name
        service under ``name``."""
        cap = self._kernel(node).objects.create(
            cls, *args, transport=transport, **kwargs)
        if name is not None:
            self.names.register(name, cap)
        return cap

    def find_object(self, oid: int) -> Any:
        return self.object_directory.get(oid)

    def get_object(self, cap: Capability | int) -> Any:
        """The live instance behind a capability (for test assertions)."""
        oid = cap.oid if isinstance(cap, Capability) else cap
        obj = self.object_directory.get(oid)
        if obj is None:
            raise KernelError(f"no object {oid}")
        return obj

    # ------------------------------------------------------------------
    # threads and groups
    # ------------------------------------------------------------------

    def new_group(self, root: int = 0) -> GroupId:
        gid = self.kernels[root].id_allocator.new_gid()
        self.groups.create(gid)
        return gid

    def spawn(self, cap: Capability, entry: str, *args: Any, at: int = 0,
              group: GroupId | None = None,
              io_channel: IoChannel | None = None,
              attributes: ThreadAttributes | None = None) -> DThread:
        """Start a new application thread rooted at node ``at``.

        The thread invokes ``cap.entry(*args)``; its completion future
        resolves with the entry's return value.
        """
        if attributes is None:
            attributes = ThreadAttributes(creator="user", group=group,
                                          io_channel=io_channel)
        elif group is not None:
            attributes.group = group
        thread = self.invoker.spawn_thread(at, cap, entry, args,
                                           attributes=attributes)
        if attributes.group is not None:
            self.groups.add(attributes.group, thread.tid)
        return thread

    def thread(self, tid: ThreadId) -> DThread:
        thread = self.live_threads.get(tid)
        if thread is None:
            raise UnknownThreadError(f"no live thread {tid}")
        return thread

    # ------------------------------------------------------------------
    # events (external raise, e.g. the user's terminal)
    # ------------------------------------------------------------------

    def raise_event(self, event: str, target: Any, from_node: int = 0,
                    user_data: Any = None) -> SimFuture[Any]:
        """Asynchronous external raise; future resolves with recipient
        count.

        ``__init__`` binds ``events.raise_external`` over this method on
        each cluster, so the raise pays no relay frame; the body is what
        that call does."""
        return self.events.raise_external(event, target, from_node,
                                          user_data, synchronous=False)

    def raise_and_wait(self, event: str, target: Any, from_node: int = 0,
                       user_data: Any = None) -> SimFuture[Any]:
        """Synchronous external raise; future resolves when a handler
        resumes the (virtual) raiser, with the handler's value."""
        return self.events.raise_external(event, target, from_node,
                                          user_data, synchronous=True)

    def register_event(self, name: str) -> None:
        """Register a user event name (§3) from outside any thread."""
        self.names.register_event(name, registrar="external")

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def ps(self, kinds: tuple[str, ...] = ("user",)) -> list[dict]:
        """Snapshot of live threads (like `ps` on the simulated cluster).

        Each row: tid, kind, state, what a blocked thread waits on,
        current node, group, call-stack summary (object class / entry
        per frame). A handler surrogate between notices reads
        ``blocked`` on ``"parked"`` with an empty stack.
        """
        rows = []
        for tid in sorted(self.live_threads):
            thread = self.live_threads[tid]
            if kinds and thread.kind not in kinds:
                continue
            stack = [
                f"{type(f.obj).__name__ if f.obj is not None else '-'}"
                f".{f.entry}@{f.node}" for f in thread.frames]
            rows.append({
                "tid": str(tid),
                "kind": thread.kind,
                "state": thread.state,
                "wait": thread.wait_kind,
                "node": thread.current_node,
                "group": str(thread.attributes.group)
                if thread.attributes.group else None,
                "stack": stack,
                "pending_events": len(thread.pending_notices),
            })
        return rows

    def quiescent(self) -> bool:
        """True when no simulation work is scheduled."""
        return self.sim.pending == 0
