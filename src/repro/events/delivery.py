"""The event manager: raising, routing, delivery and handler execution.

This module implements the paper's contribution proper (§3–§5, §7):

* ``raise(e, tid | gtid | oid)`` and ``raise_and_wait(...)`` with the six
  addressing/blocking combinations of the §5.3 table;
* delivery to **threads**: locate the target (pluggable §7.1 strategy),
  suspend it at its next interruption point, run its LIFO handler chain —
  each handler in its declared context (current object / attaching object
  / buddy) on a *surrogate thread* that takes on the suspended thread's
  attributes — then resume or terminate per the final decision;
* delivery to **passive objects**: an implicit invocation of the object's
  registered handler, executed by the node's master handler thread (§7);
* kernel-raised events: exceptions mapped to system events (§6.1),
  thread-attribute timers re-armed wherever the thread goes (§6.2), and
  §7.2's dead-target notification back to asynchronous raisers.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from repro.errors import (
    BuddyUnavailableError,
    DeadThreadError,
    EventQuarantinedError,
    HandlerTimeout,
    NodeCrashedError,
    RpcTimeout,
    EventError,
    HandlerContextError,
    InvocationAborted,
    NoHandlerError,
    OverloadShedError,
    ThreadTerminated,
    UndeliverableError,
    UnknownObjectError,
)
from repro.events import defaults, names
from repro.events.admission import (
    ADMIT,
    DEFER,
    DEGRADE,
    DROP,
    GATE_COUNTERS,
    AdmissionGate,
)
from repro.events.block import EventBlock
from repro.events.handlers import Decision, HandlerContext, HandlerRegistration
from repro.events.supervise import HandlerSupervisor
from repro.events.locate import (
    MSG_BCAST_POST,
    MSG_BCAST_REPLY,
    MSG_CACHED_POST,
    MSG_MCAST_POST,
    MSG_MCAST_REPLY,
    MSG_PATH_POST,
    BroadcastLocator,
    CachedLocator,
    MulticastLocator,
    PathLocator,
    make_locator,
)
from repro.kernel.config import (
    LOCATE_BROADCAST,
    LOCATE_MULTICAST,
    LOCATE_PATH,
    OVERLOAD_DEGRADE,
)
from repro.net.message import Message
from repro.net.stats import LatencyReservoir
from repro.objects.capability import Capability
from repro.store.outbox import NOTICED, OutboxEntry
from repro.sim.primitives import SimFuture
from repro.threads import syscalls as sc
from repro.threads.attributes import TimerSpec
from repro.threads.ids import GroupId, ThreadId
from repro.threads.thread import (
    DThread,
    KIND_SURROGATE,
    KIND_USER,
    TERMINATING,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.boot import Cluster
    from repro.objects.base import DistObject
    from repro.threads.thread import Activation

MSG_POST_OBJECT = "event.post-object"
MSG_RESUME = "event.resume"

_proc_names = itertools.count(1)

#: buddy-invocation failures worth retrying / feeding the breaker: the
#: handler object's node crashed, the reliable send gave up, an RPC leg
#: timed out, or the failure detector failed the call fast
RETRYABLE_INVOKE_ERRORS = (NodeCrashedError, UndeliverableError, RpcTimeout,
                           BuddyUnavailableError)


def _procedure_frame(ctx, fn, current_obj, block):
    """Surrogate frame: per-thread-memory handler in the current
    object's context."""
    ctx._activation.obj = current_obj
    ctx._activation.event_block = block
    result = yield from fn(ctx, block)
    return result


def _invoke_frame(ctx, cap, fn_name, block):
    """Surrogate frame: attaching-object / buddy handler via
    unscheduled invocation."""
    result = yield sc.Invoke(cap=cap, entry=fn_name, args=(block,),
                             as_handler=True, handler_block=block)
    return result


class EventManager:
    """Cluster-wide event facility (per-node state lives in the kernels)."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.locator = make_locator(cluster.config.locator, self)
        # All strategies answer their own message types, so mixed
        # experiments can instantiate them side by side; the cached
        # locator also borrows one of the three as its fallback.
        self._path = (self.locator if isinstance(self.locator, PathLocator)
                      else PathLocator(self))
        self._bcast = (self.locator
                       if isinstance(self.locator, BroadcastLocator)
                       else BroadcastLocator(self))
        self._mcast = (self.locator
                       if isinstance(self.locator, MulticastLocator)
                       else MulticastLocator(self))
        self._cached = (self.locator
                        if isinstance(self.locator, CachedLocator)
                        else CachedLocator(self))
        for kernel in cluster.kernels.values():
            kernel.register_message_handler(MSG_POST_OBJECT,
                                            self._on_post_object)
            kernel.register_message_handler(MSG_RESUME, self._on_resume)
            kernel.register_message_handler(MSG_PATH_POST,
                                            self._path.on_message)
            kernel.register_message_handler(MSG_BCAST_POST,
                                            self._bcast.on_message)
            kernel.register_message_handler(MSG_BCAST_REPLY,
                                            self._bcast.on_reply)
            kernel.register_message_handler(MSG_MCAST_POST,
                                            self._mcast.on_message)
            kernel.register_message_handler(MSG_MCAST_REPLY,
                                            self._mcast.on_reply)
            kernel.register_message_handler(MSG_CACHED_POST,
                                            self._cached.on_message)
        #: block_id -> pending synchronous-raise record
        self._sync_waits: dict[int, dict] = {}
        #: delivery statistics for the benchmarks
        self.posts = 0
        self.delivered = 0
        self.dead_targets = 0
        #: posts that failed with a give-up/deadline (crash or partition)
        self.undeliverable = 0
        #: handler surrogates that raised (folded into PROPAGATE)
        self.handler_failures = 0
        #: watchdog / breaker / dead-letter policy (inert at defaults)
        self.supervisor = HandlerSupervisor(cluster)
        #: observer hook ``(block, target) -> None`` invoked whenever a
        #: post fails (dead target, give-up, deadline); the chaos harness
        #: uses it to account every raiser notice
        self.on_undeliverable: Any = None
        #: observer hook ``(dead_letter) -> None`` invoked whenever a
        #: block enters a dead-letter queue; quarantine is an observable
        #: outcome even when the (volatile) queue later dies with its
        #: node, so accounting harnesses record it here, not by scanning
        #: queues at end of run
        self.on_quarantine: Any = None
        #: overload control: one admission gate per node when the
        #: ``admission_high`` knob is on, else None (zero bookkeeping)
        config = cluster.config
        if config.admission_high is not None:
            self.admission: dict[int, AdmissionGate] | None = {
                node: AdmissionGate(
                    node, config.admission_high,
                    config.admission_low
                    or max(1, config.admission_high // 2),
                    config.tenant_weights)
                for node in cluster.kernels}
        else:
            self.admission = None
        #: observer hook ``(block, target, action) -> None`` invoked when
        #: the admission gate sheds a post (action: drop/degrade/defer);
        #: the overload bench uses it to account every shed post
        self.on_shed: Any = None
        #: receiver-side dedup for degraded (fire-and-forget) object
        #: posts, per node: without a rel header the channel cannot
        #: suppress fabric duplicates, so the manager remembers recent
        #: degraded block ids instead (bounded by ``dedup_window``)
        self._degraded_seen: dict[int, "OrderedDict[int, None]"] = {}
        #: per-delivery (event, raise->deliver virtual latency) samples —
        #: a bounded reservoir so long runs stop accumulating memory
        self.delivery_latencies = LatencyReservoir()

    def base_locator(self, name: str) -> Any:
        """One of the three paper strategies, by config name (shared
        instances; used as the cached locator's fallback)."""
        return {LOCATE_PATH: self._path, LOCATE_BROADCAST: self._bcast,
                LOCATE_MULTICAST: self._mcast}[name]

    def delivery_latency_summary(self) -> dict[str, float]:
        """count/mean/p50/p99 over the raise->deliver latency samples."""
        return self.delivery_latencies.summary()

    # ==================================================================
    # raising (§5.3)
    # ==================================================================

    def raise_from_thread(self, thread: DThread, syscall: sc.Raise) -> None:
        """A running thread executed ``raise`` / ``raise_and_wait``."""
        try:
            self.cluster.names.require_event(syscall.event)
            target = self._normalize_target(syscall.target)
        except EventError as exc:
            thread.schedule_step(None, exc)
            return
        node = thread.current_node
        block = EventBlock(event=syscall.event, raiser_tid=thread.tid,
                           raiser_node=node, target=target,
                           synchronous=syscall.synchronous,
                           user_data=syscall.user_data,
                           raised_at=self.cluster.sim.now)
        self.cluster.tracer.emit(
            "event", "raise", event=syscall.event, tid=str(thread.tid),
            target=str(target), sync=syscall.synchronous, node=node)
        if syscall.synchronous:
            record = {"kind": "thread", "thread": thread,
                      "epoch": thread.block("raise_and_wait"),
                      "node": node, "remaining": 1, "values": [],
                      "group": isinstance(target, GroupId)}
            self._sync_waits[block.block_id] = record
            count = self._route(node, block, target)
            if count == 0:
                self._sync_waits.pop(block.block_id, None)
                thread.resume_with(None, DeadThreadError(
                    f"no recipients for {syscall.event} -> {target}"),
                    record["epoch"])
                return
            record["remaining"] = count
            self._arm_sync_timeout(block.block_id, syscall.event)
        else:
            count = self._route(node, block, target)
            thread.schedule_step(count, None)

    def raise_external(self, event: str, target: Any, from_node: int = 0,
                       user_data: Any = None,
                       synchronous: bool = False) -> SimFuture[Any]:
        """Raise an event from outside any thread (the user's terminal,
        a test harness, a device): the paper's ^C enters the system this
        way. Returns a future: recipient count (async) or the handler
        value (sync)."""
        self.cluster.names.require_event(event)
        target = self._normalize_target(target)
        future: SimFuture[Any] = SimFuture(self.cluster.sim)
        block = EventBlock(event=event, raiser_tid=None,
                           raiser_node=from_node, target=target,
                           synchronous=synchronous, user_data=user_data,
                           raised_at=self.cluster.sim.now)
        self.cluster.tracer.emit("event", "raise", event=event, tid="<ext>",
                                 target=str(target), sync=synchronous,
                                 node=from_node)
        if synchronous:
            record = {"kind": "external", "future": future,
                      "node": from_node, "remaining": 1, "values": [],
                      "group": isinstance(target, GroupId)}
            self._sync_waits[block.block_id] = record
            count = self._route(from_node, block, target)
            if count == 0:
                self._sync_waits.pop(block.block_id, None)
                future.fail(DeadThreadError(
                    f"no recipients for {event} -> {target}"))
            else:
                record["remaining"] = count
                self._arm_sync_timeout(block.block_id, event)
        else:
            count = self._route(from_node, block, target)
            future.resolve(count)
        return future

    def _arm_sync_timeout(self, token: int, event: str) -> None:
        """Guard a raise_and_wait against lost resumes (config knob)."""
        timeout = self.cluster.config.sync_raise_timeout
        if timeout is None:
            return

        def expire() -> None:
            record = self._sync_waits.pop(token, None)
            if record is None:
                return
            error = RpcTimeout(
                f"raise_and_wait({event}) saw no resume within {timeout}s")
            self.cluster.tracer.emit("event", "sync-timeout", event=event)
            if record["kind"] == "external":
                if not record["future"].done:
                    record["future"].fail(error)
            else:
                record["thread"].resume_with(None, error, record["epoch"])

        self.cluster.sim.call_after(timeout, expire)

    def _normalize_target(self, target: Any) -> Any:
        if isinstance(target, (ThreadId, GroupId, Capability)):
            return target
        if isinstance(target, DThread):
            return target.tid
        if isinstance(target, int):
            obj = self.cluster.find_object(target)
            if obj is None:
                raise EventError(f"no object with oid {target}")
            return obj.cap
        if hasattr(target, "cap"):
            return target.cap
        raise EventError(
            f"event target must be a ThreadId, GroupId, or object "
            f"capability; got {target!r}")

    def _route(self, from_node: int, block: EventBlock, target: Any) -> int:
        """Start routing; returns the number of recipients targeted."""
        self.posts += 1
        # Write-ahead journaling happens here — at the raise, before the
        # first send — so kernel-internal notices (TARGET_DEAD, ABORT,
        # timers) posted through the lower-level methods stay undurable.
        durable = (self.cluster.config.durable_delivery
                   and from_node in self.cluster.kernels)
        store = self.cluster.kernels[from_node].store if durable else None
        members = (self.cluster.groups.sorted_members(target)
                   if isinstance(target, GroupId) else None)
        if self.admission is not None:
            verdict = self._admission_verdict(from_node, block, target,
                                              members, durable)
            if verdict == DROP:
                return self._shed_drop(from_node, block, target)
            if verdict == DEFER:
                return self._shed_defer(from_node, store, block, target,
                                        members)
            if verdict == DEGRADE:
                # Only non-durable object posts degrade: the reliable
                # retransmit loop is replaced by one datagram plus a
                # deadline backstop (armed in _post_object).
                block.degraded = True
        if isinstance(target, Capability):
            self._charge_admission(target.home, block)
            if store is not None:
                store.journal_post(block, "object", target.home)
            self._post_object(from_node, block, target)
            return 1
        if isinstance(target, GroupId):
            # Batched fan-out: the member list is resolved once (cached
            # sorted order), every member block is built up front, the
            # batch is journaled as one group commit, and one enqueue
            # pass posts them — the delivery stack is set up once per
            # multicast, not once per recipient.
            event, raiser_tid = block.event, block.raiser_tid
            raiser_node, synchronous = block.raiser_node, block.synchronous
            user_data, raised_at = block.user_data, block.raised_at
            token = block.block_id
            blocks = []
            for _ in members:
                # Each member gets its own copy of the block (separate
                # snapshots/decisions) tied to the same sync record.
                member_block = EventBlock(
                    event=event, raiser_tid=raiser_tid,
                    raiser_node=raiser_node, target=target,
                    synchronous=synchronous,
                    user_data=user_data, raised_at=raised_at)
                member_block._resume_token = token
                blocks.append(member_block)
            if self.admission is not None:
                for member_block in blocks:
                    self._charge_admission(from_node, member_block)
            if store is not None and blocks:
                # The whole fan-out is known before the first send, so
                # write-ahead it as one group commit.
                store.journal_post_batch(
                    [(b, "thread", None) for b in blocks])
            post = self._post_thread
            for tid, member_block in zip(members, blocks):
                post(from_node, tid, member_block)
            return len(members)
        # single thread
        block._resume_token = block.block_id
        self._charge_admission(from_node, block)
        if store is not None:
            store.journal_post(block, "thread")
        self._post_thread(from_node, block.target, block)
        return 1

    # ------------------------------------------------------------------
    # admission control (overload shedding)
    # ------------------------------------------------------------------

    def _admission_verdict(self, from_node: int, block: EventBlock,
                           target: Any, members: Any,
                           durable: bool) -> str:
        """Gate one raise; called only when admission control is on.

        The gate charged is the *admission node's*: the target object's
        home for object posts (the node whose handler queue the post
        occupies), the raiser's node otherwise. Tenant identity is the
        raiser node, so weighted-fair shares apply across the raisers
        feeding one hot node.
        """
        gate_node = (target.home if isinstance(target, Capability)
                     else from_node)
        gate = self.admission.get(gate_node)
        if gate is None:
            return ADMIT
        tenant = (block.raiser_node if block.raiser_node is not None
                  else from_node)
        n = len(members) if members is not None else 1
        if n == 0 or gate.admit(tenant, n):
            return ADMIT
        if durable:
            # Durable posts are never dropped: the journal already
            # guarantees them, so shedding degrades to deferral.
            gate.counters["shed_deferred"] += n
            return DEFER
        if (self.cluster.config.overload_policy == OVERLOAD_DEGRADE
                and isinstance(target, Capability)):
            gate.counters["shed_degraded"] += n
            return DEGRADE
        # drop policy, defer policy on a non-durable post, or degrade of
        # a thread-targeted post (the locate handshake *is* the delivery
        # guarantee for threads — nothing to degrade to): shed outright.
        gate.counters["shed_dropped"] += n
        return DROP

    def _charge_admission(self, gate_node: int, block: EventBlock) -> None:
        if self.admission is None:
            return
        gate = self.admission.get(gate_node)
        if gate is None:
            return
        tenant = (block.raiser_node if block.raiser_node is not None
                  else gate_node)
        gate.charge(tenant)
        block._admission = (gate_node, tenant)

    def _release_admission(self, block: EventBlock) -> None:
        """Idempotently return the block's admission charge (handling
        concluded: executed, noticed, quarantined, or timed out)."""
        token = block._admission
        if token is None or self.admission is None:
            return
        block._admission = None
        gate = self.admission.get(token[0])
        if gate is not None:
            gate.release(token[1])

    def _shed_drop(self, from_node: int, block: EventBlock,
                   target: Any) -> int:
        """Reject a post at the gate with a §7.2-style notice."""
        self.undeliverable += 1
        block._resume_token = block.block_id
        self.cluster.tracer.emit("event", "shed", event=block.event,
                                 target=str(target), action="drop",
                                 node=from_node)
        if self.on_shed is not None:
            self.on_shed(block, target, "drop")
        if self.on_undeliverable is not None:
            self.on_undeliverable(block, target)
        self._complete_sync(block, None, OverloadShedError(
            f"{block.event} -> {target} shed by admission control"),
            from_node=from_node)
        return 1

    def _shed_defer(self, from_node: int, store: Any, block: EventBlock,
                    target: Any, members: Any) -> int:
        """Journal a durable post and park it straight into the outbox:
        nothing is sent now; the flush timer (or the target's recovery
        announcement) delivers it once the storm passes."""
        self.cluster.tracer.emit("event", "shed", event=block.event,
                                 target=str(target), action="defer",
                                 node=from_node)
        if self.on_shed is not None:
            self.on_shed(block, target, "defer")
        if isinstance(target, Capability):
            entry = store.journal_post(block, "object", target.home)
            store.defer(entry.entry_id)
            return 1
        if isinstance(target, GroupId):
            blocks = []
            for _ in members:
                member_block = EventBlock(
                    event=block.event, raiser_tid=block.raiser_tid,
                    raiser_node=block.raiser_node, target=target,
                    synchronous=block.synchronous,
                    user_data=block.user_data, raised_at=block.raised_at)
                member_block._resume_token = block.block_id
                blocks.append(member_block)
            entries = store.journal_post_batch(
                [(b, "thread", None) for b in blocks])
            for entry in entries:
                store.defer(entry.entry_id)
            return len(members)
        block._resume_token = block.block_id
        entry = store.journal_post(block, "thread")
        store.defer(entry.entry_id)
        return 1

    def admission_stats(self) -> dict[str, int]:
        """Cluster-wide admission counters plus live/high-water depth
        (zeros when the gate is off; aggregated by
        :meth:`Cluster.supervision_stats`)."""
        totals = {name: 0 for name in GATE_COUNTERS}
        totals["gate_depth"] = 0
        totals["gate_depth_hwm"] = 0
        totals["shed_windows"] = 0
        if self.admission is None:
            return totals
        for gate in self.admission.values():
            for name in GATE_COUNTERS:
                totals[name] += gate.counters[name]
            totals["gate_depth"] += gate.depth
            totals["gate_depth_hwm"] += gate.depth_hwm
            totals["shed_windows"] += gate.shed_windows
        return totals

    def _post_thread(self, from_node: int, tid: ThreadId,
                     block: EventBlock) -> None:
        # Local fast path: if the target's innermost activation is on the
        # raising node, the kernel hands the notice over directly — no
        # location protocol, no messages. This also makes raise-to-self
        # land at the raiser's next yield point (breakpoints, the
        # QUIT -> TERMINATE re-raise of the ^C protocol, ...).
        if self.cluster.kernels[from_node].thread_table.innermost_here(tid):
            if self.enqueue_for_thread(from_node, tid, block):
                self.cluster.tracer.emit("event", "routed",
                                         event=block.event, tid=str(tid),
                                         hops=0)
                return

        # Once-guard: under loss and retransmission a locator may report
        # twice (e.g. a retried probe succeeds after the backstop already
        # declared failure); only the first verdict counts.
        state = {"done": False}

        def on_result(delivered: bool, hops: int) -> None:
            if state["done"]:
                return
            state["done"] = True
            self.cluster.tracer.emit(
                "event", "routed" if delivered else "dead-target",
                event=block.event, tid=str(tid), hops=hops)
            if not delivered:
                self._dead_target(block, tid)

        deadline = self.cluster.config.post_deadline
        if deadline is not None:
            def backstop() -> None:
                if not state["done"]:
                    self.undeliverable += 1
                    on_result(False, -1)
            self.cluster.sim.call_after(deadline, backstop)
        self.locator.post(from_node, tid, block, on_result)

    def _dead_target(self, block: EventBlock, tid: Any) -> None:
        """§7.2: the sender of an event to a destroyed thread is notified."""
        self.dead_targets += 1
        self._release_admission(block)
        # Threads are volatile (unlike objects): a durable post to a dead
        # thread resolves through this notice, never by redelivery — a
        # respawned thread is a *different* thread.
        if block.durable_id is not None:
            origin = self.cluster.kernels.get(block.durable_id[0])
            if origin is not None:
                origin.store.resolve(block.durable_id, NOTICED)
        if self.on_undeliverable is not None:
            self.on_undeliverable(block, tid)
        if block.synchronous:
            self._complete_sync(block, None,
                                DeadThreadError(f"thread {tid} is dead"),
                                from_node=block.raiser_node or 0)
            return
        raiser = (self.cluster.live_threads.get(block.raiser_tid)
                  if block.raiser_tid is not None else None)
        if raiser is not None and raiser.attributes.handlers_for(
                names.TARGET_DEAD):
            notice = EventBlock(event=names.TARGET_DEAD, raiser_tid=None,
                                raiser_node=block.raiser_node,
                                target=raiser.tid,
                                user_data={"event": block.event,
                                           "dead_tid": tid},
                                raised_at=self.cluster.sim.now)
            self._post_thread(block.raiser_node or 0, raiser.tid, notice)

    # ==================================================================
    # thread-targeted delivery
    # ==================================================================

    def enqueue_for_thread(self, node: int, tid: ThreadId,
                           block: EventBlock) -> bool:
        """A notice reached the node holding the thread's innermost frame."""
        thread = self.cluster.live_threads.get(tid)
        if thread is None or not thread.alive or thread.state == TERMINATING:
            return False
        if not thread.accept_block(block.block_id):
            # Duplicate arrival (second locate path, late retransmission):
            # report success — the first copy was accepted — but do not
            # queue a second handler run.
            return True
        thread.pending_notices.append(block)
        # Location hints (§7.1 cached locator): the delivering node knows
        # the thread is here, and the raiser learns it from the delivery
        # acknowledgement it already receives — no extra round trips.
        kernels = self.cluster.kernels
        kernels[node].location_hints.install(tid, node)
        origin = block.raiser_node
        if origin is not None and origin != node and origin in kernels:
            kernels[origin].location_hints.install(tid, node)
        self.cluster.tracer.emit("event", "enqueue", event=block.event,
                                 tid=str(tid), node=node)
        thread.notice_arrived()
        return True

    def start_delivery(self, thread: DThread) -> None:
        """Suspend the thread and begin draining its notice queue."""
        if (thread.suspended_by_event or not thread.alive
                or thread.state == TERMINATING):
            return
        thread.suspended_by_event = True
        self.cluster.sim.call_after(self.cluster.config.context_switch_cost,
                                    self._next_notice, thread)

    def _next_notice(self, thread: DThread) -> None:
        if not thread.alive or thread.state == TERMINATING:
            thread.suspended_by_event = False
            return
        if not thread.pending_notices:
            self._end_suspension(thread)
            return
        block = thread.pending_notices.popleft()
        thread.delivering_event = block.event
        thread.delivering_block = block
        block.delivered_at = self.cluster.sim.now
        block.snapshot = thread.snapshot()
        self.delivered += 1
        self.delivery_latencies.record(
            block.event, block.delivered_at - block.raised_at)
        self.cluster.tracer.emit("event", "deliver", event=block.event,
                                 tid=str(thread.tid),
                                 node=thread.current_node)
        chain = thread.attributes.handlers_for(block.event)
        self._run_chain(thread, block, chain, 0)

    def _end_suspension(self, thread: DThread) -> None:
        thread.suspended_by_event = False
        thread.delivering_event = None
        thread.delivering_block = None
        if not thread.alive:
            return
        if thread.pending_notices:
            self.start_delivery(thread)
            return
        stash = thread.take_stash()
        if stash is not None:
            thread.schedule_step(*stash)
        # else: the thread keeps waiting for whatever it was blocked on.

    def _run_chain(self, thread: DThread, block: EventBlock,
                   chain: list[HandlerRegistration], index: int,
                   errors: int = 0,
                   last_error: BaseException | None = None) -> None:
        if not thread.alive:
            self._retire_surrogate(thread)
            self._complete_sync(block, None,
                                DeadThreadError(f"{thread.tid} died"),
                                from_node=thread.current_node)
            return
        if index >= len(chain):
            # Poison policy: an *entire* chain of failures (every
            # handler raised — watchdog timeouts excluded, since a
            # cancelled handler may have half-executed and a re-run
            # would double its side effects) retries with backoff and
            # eventually quarantines. Deliberate PROPAGATE decisions
            # and breaker skips are not failures.
            if chain and errors >= len(chain) and self._chain_run_failed(
                    thread, block, last_error):
                return
            decision = defaults.thread_default(block.event)
            self._apply_decision(thread, block, decision, None)
            return
        registration = chain[index]

        def done(decision: Decision, value: Any,
                 error: BaseException | None) -> None:
            self.cluster.tracer.emit(
                "event", "handler-done", event=block.event,
                tid=str(thread.tid), context=registration.context.value,
                decision=decision.value,
                error=repr(error) if error else None)
            if decision is Decision.PROPAGATE:
                failed = errors + (1 if error is not None and not
                                   isinstance(error, HandlerTimeout) else 0)
                self._run_chain(thread, block, chain, index + 1, failed,
                                error if error is not None else last_error)
            else:
                self._apply_decision(thread, block, decision, value)

        self._execute_registration(thread, registration, block, done)

    def _chain_run_failed(self, thread: DThread, block: EventBlock,
                          error: BaseException | None) -> bool:
        """Every handler in the chain failed; retry or quarantine.

        Returns False when the poison policy is off (the chain falls
        through to the default decision, the pre-supervision behaviour).
        """
        action, count = self.supervisor.chain_failed(block)
        if action is None:
            return False
        if action == "retry":
            self.supervisor.counters["chain_retries"] += 1
            self.cluster.tracer.emit("supervise", "chain-retry",
                                     event=block.event, tid=str(thread.tid),
                                     attempt=count)
            delay = self.cluster.config.handler_backoff * (2 ** (count - 1))
            # No surrogate sits parked through the backoff.
            self._retire_surrogate(thread)
            self.cluster.sim.call_after(delay, self._retry_chain, thread,
                                        block)
            return True
        self._quarantine_thread_block(thread, block, error, count)
        return True

    def _retry_chain(self, thread: DThread, block: EventBlock) -> None:
        if not thread.alive or thread.delivering_block is not block:
            # The thread died while the retry was pending (thread_gone
            # already issued the §7.2 notice) or handling moved on.
            return
        chain = thread.attributes.handlers_for(block.event)
        self._run_chain(thread, block, chain, 0)

    def _quarantine_thread_block(self, thread: DThread, block: EventBlock,
                                 error: BaseException | None,
                                 failures: int) -> None:
        """The block hit ``poison_threshold``: dead-letter it on the
        delivering node and let the thread move on."""
        node = thread.current_node
        kernel = self.cluster.kernels[node]
        self.supervisor.counters["quarantined"] += 1
        kernel.dead_letters.add(block, "poison", error=error,
                                failures=failures)
        if block.durable_id is not None:
            # Resolve the origin's outbox as quarantined (not delivered)
            # and strip the id so _apply_decision does not re-ack.
            kernel.store.post_quarantined(block.durable_id)
            block.durable_id = None
        self._complete_sync(block, None, EventQuarantinedError(
            f"{block.event} quarantined after {failures} chain failures"),
            from_node=node)
        block.synchronous = False  # the raiser has been resumed
        decision = defaults.thread_default(block.event)
        self._apply_decision(thread, block, decision, None)

    def _apply_decision(self, thread: DThread, block: EventBlock,
                        decision: Decision, value: Any) -> None:
        # Handling concluded: the block is no longer at risk of dying
        # with the thread, and its poison tally (if any) is forgiven.
        self.supervisor.clear_failures(block)
        self._retire_surrogate(thread)
        thread.delivering_block = None
        if block.durable_id is not None:
            # The chain ran to a decision: acknowledge to the origin's
            # outbox from the executing node.
            kernel = self.cluster.kernels.get(thread.current_node)
            if kernel is not None:
                kernel.store.post_executed(block.durable_id)
        # The synchronous raiser is resumed when handling concludes,
        # whatever the fate of the target thread.
        self._complete_sync(block, value, None,
                            from_node=thread.current_node)
        if decision is Decision.TERMINATE:
            thread.suspended_by_event = False
            self.cluster.invoker.terminate_thread(
                thread, reason=f"event {block.event}")
            return
        self._continue_after_notice(thread)

    def _continue_after_notice(self, thread: DThread) -> None:
        if thread.pending_notices:
            self._next_notice(thread)
        else:
            self._end_suspension(thread)

    # ------------------------------------------------------------------
    # executing one thread-based handler (§4.1 contexts)
    # ------------------------------------------------------------------

    def _execute_registration(self, thread: DThread,
                              registration: HandlerRegistration,
                              block: EventBlock, done) -> None:
        cfg = self.cluster.config
        node = thread.current_node
        if registration.context is HandlerContext.CURRENT:
            try:
                fn = thread.attributes.per_thread_memory.procedure(
                    registration.procedure)
            except HandlerContextError as exc:
                done(Decision.PROPAGATE, None, exc)
                return
            self.cluster.sim.call_after(
                cfg.surrogate_cost, self._run_on_surrogate, thread, block,
                node, done, self.supervisor.effective_deadline(registration),
                _procedure_frame, fn, thread.current_object, block)
            return
        # ATTACHING / BUDDY: unscheduled invocation of a handler method,
        # supervised (breaker admission, fast-fail, retry with backoff).
        self._execute_invoke(thread, registration, block, node, done, 0)

    def _execute_invoke(self, thread: DThread,
                        registration: HandlerRegistration,
                        block: EventBlock, node: int, done,
                        attempt: int) -> None:
        cfg = self.cluster.config
        tracer = self.cluster.tracer
        oid = registration.target_oid
        if not self.supervisor.breaker_allows(tracer, oid, block.event,
                                              self.cluster.sim.now):
            # Open breaker: skip this registration, fall down the chain.
            done(Decision.PROPAGATE, None, None)
            return
        obj = self.cluster.find_object(oid)
        if obj is None:
            done(Decision.PROPAGATE, None, UnknownObjectError(
                f"handler object {oid} is gone"))
            return
        try:
            obj.handler_fn(registration.fn_name)
        except BaseException as exc:  # noqa: BLE001 - bad registration
            done(Decision.PROPAGATE, None, exc)
            return
        kernel = self.cluster.kernels.get(node)
        if (kernel is not None and obj.cap.home != node
                and kernel.membership.is_failed(obj.cap.home)):
            # Suspected buddy node: fail fast instead of waiting out the
            # reliable channel's give-up; feeds the retry/breaker policy.
            self.supervisor.counters["fast_fails"] += 1
            tracer.emit("supervise", "fast-fail", oid=oid,
                        event=block.event, home=obj.cap.home)
            self._invoke_failed(thread, registration, block, node, done,
                                attempt, BuddyUnavailableError(
                                    f"node {obj.cap.home} is suspected"))
            return

        def on_done(decision: Decision, value: Any,
                    error: BaseException | None) -> None:
            if error is not None and isinstance(error,
                                                RETRYABLE_INVOKE_ERRORS):
                self._invoke_failed(thread, registration, block, node,
                                    done, attempt, error)
                return
            if error is None:
                self.supervisor.invoke_succeeded(tracer, oid, block.event)
            done(decision, value, error)

        self.cluster.sim.call_after(
            cfg.surrogate_cost, self._run_on_surrogate, thread, block, node,
            on_done, self.supervisor.effective_deadline(registration),
            _invoke_frame, obj.cap, registration.fn_name, block)

    def _invoke_failed(self, thread: DThread,
                       registration: HandlerRegistration, block: EventBlock,
                       node: int, done, attempt: int,
                       error: BaseException) -> None:
        """A buddy invocation failed with a retryable error."""
        cfg = self.cluster.config
        self.supervisor.invoke_failed(self.cluster.tracer,
                                      registration.target_oid, block.event,
                                      self.cluster.sim.now)
        if attempt < cfg.handler_retries:
            self.supervisor.counters["handler_retries"] += 1
            self.cluster.tracer.emit("supervise", "handler-retry",
                                     oid=registration.target_oid,
                                     event=block.event, attempt=attempt + 1,
                                     error=repr(error))
            delay = cfg.handler_backoff * (2 ** attempt)
            self.cluster.sim.call_after(delay, self._execute_invoke, thread,
                                        registration, block, node, done,
                                        attempt + 1)
            return
        done(Decision.PROPAGATE, None, error)

    def _run_on_surrogate(self, thread: DThread, block: EventBlock,
                          node: int, done, deadline: float | None,
                          frame_fn, *frame_args: Any) -> None:
        """Run one handler as the next frame of the notice's surrogate.

        One surrogate serves the whole chain of a delivered notice (§7's
        argument for the master handler thread — do not pay a thread
        creation per handler run — applied to §6.1); it is created when
        the first handler is due and replaced only if it died (watchdog,
        crash). ``surrogate_cost`` is charged per handler by the caller.
        """
        invoker = self.cluster.invoker
        name = f"handler:{block.event}"
        surrogate = thread.chain_surrogate
        if surrogate is None or not surrogate.alive:
            surrogate = thread.chain_surrogate = invoker.create_loop_thread(
                node, name, KIND_SURROGATE, attributes=thread.attributes,
                impersonate=thread.tid)
        watchdog = self._watch_surrogate(surrogate, thread, block, deadline)

        def exited(value: Any, error: BaseException | None) -> None:
            # A watchdog outliving its run could destroy the surrogate
            # under a later handler of the chain.
            if watchdog is not None:
                watchdog.cancel()
            self._handler_exited(value, error, done, thread, block)

        invoker.run_frame(surrogate, frame_fn, name, *frame_args,
                          on_exit=exited)

    def _retire_surrogate(self, thread: DThread) -> None:
        """The chain is over (or pausing for a backoff): end its surrogate."""
        surrogate, thread.chain_surrogate = thread.chain_surrogate, None
        if surrogate is not None:
            self.cluster.invoker.retire_loop_thread(surrogate)

    def _watch_surrogate(self, surrogate: DThread, thread: DThread,
                         block: EventBlock, deadline: float | None):
        """Arm the watchdog on one surrogate handler run; the caller
        cancels the returned handle (None: unsupervised) when it ends."""
        if deadline is None:
            return None

        def expire() -> None:
            self.supervisor.counters["handler_timeouts"] += 1
            self.cluster.tracer.emit("supervise", "handler-timeout",
                                     event=block.event,
                                     tid=str(thread.tid), deadline=deadline)
            # Queue the notice first: destroying the surrogate exits its
            # frame with the timeout, which _handler_exited turns into
            # PROPAGATE, and the chain falls through (LIFO order
            # preserved) before this returns.
            self._raise_handler_timeout(thread, block, deadline)
            self.cluster.invoker.destroy_thread_abrupt(
                surrogate, HandlerTimeout(
                    f"handler for {block.event} exceeded {deadline}s"))

        return self.cluster.sim.call_after(deadline, expire)

    def _raise_handler_timeout(self, thread: DThread, block: EventBlock,
                               deadline: float) -> None:
        """Raise the HANDLER_TIMEOUT system event on the owning thread
        (only when it subscribed — mirrors the TARGET_DEAD gating, so
        unsupervised runs see zero extra notices)."""
        if not thread.alive or block.event == names.HANDLER_TIMEOUT:
            return
        if not thread.attributes.handlers_for(names.HANDLER_TIMEOUT):
            return
        node = thread.current_node
        notice = EventBlock(event=names.HANDLER_TIMEOUT, raiser_tid=None,
                            raiser_node=node, target=thread.tid,
                            user_data={"event": block.event,
                                       "deadline": deadline},
                            raised_at=self.cluster.sim.now)
        self.enqueue_for_thread(node, thread.tid, notice)

    def _surrogate_done(self, fut: SimFuture[Any], done,
                        thread: DThread | None = None,
                        block: EventBlock | None = None) -> None:
        """:meth:`_handler_exited` for a handler run that settles a
        future (an object's own handler, on the master thread)."""
        if fut.failed or fut.cancelled:
            try:
                fut.result()
            except BaseException as exc:  # noqa: BLE001
                self._handler_exited(None, exc, done, thread, block)
            return
        self._handler_exited(fut.result(), None, done, thread, block)

    def _handler_exited(self, result: Any, error: BaseException | None,
                        done, thread: DThread | None = None,
                        block: EventBlock | None = None) -> None:
        if error is not None:
            if not isinstance(error, HandlerTimeout):
                # Timeouts have their own counter/trace; everything
                # else is a handler failure worth surfacing.
                self.handler_failures += 1
                self.cluster.tracer.emit(
                    "event", "handler-error",
                    event=block.event if block is not None else None,
                    tid=str(thread.tid) if thread is not None else None,
                    error=repr(error))
            done(Decision.PROPAGATE, None, error)
            return
        decision, value = self._parse_decision(result)
        done(decision, value, None)

    @staticmethod
    def _parse_decision(result: Any) -> tuple[Decision, Any]:
        if result is None:
            return Decision.RESUME, None
        if isinstance(result, Decision):
            return result, None
        if (isinstance(result, tuple) and len(result) == 2
                and isinstance(result[0], Decision)):
            return result
        return Decision.RESUME, result

    # ==================================================================
    # object-targeted delivery (§4.3)
    # ==================================================================

    def _post_object(self, from_node: int, block: EventBlock,
                     cap: Capability) -> None:
        if from_node == cap.home:
            self.cluster.sim.call_soon(self._handle_object_post,
                                       cap.home, block, cap.oid)
            return
        if block.degraded:
            # Shed to fire-and-forget: one datagram, no retransmission —
            # overload must not amplify traffic. The deadline backstop
            # below turns a lost datagram into a bounded-time notice
            # instead of a silent loss.
            self.cluster.kernels[from_node].transmit_unreliable(Message(
                src=from_node, dst=cap.home, mtype=MSG_POST_OBJECT,
                size=128, payload={"block": block, "oid": cap.oid}))
            self._arm_degrade_backstop(block, cap)
            return
        self.cluster.transmit(Message(
            src=from_node, dst=cap.home, mtype=MSG_POST_OBJECT, size=128,
            payload={"block": block, "oid": cap.oid}),
            on_give_up=lambda m: self._object_post_failed(block, cap))

    def _arm_degrade_backstop(self, block: EventBlock,
                              cap: Capability) -> None:
        """Bound a degraded post's fate: if neither execution nor any
        other conclusion released its admission charge by the deadline,
        the raiser gets the undeliverable notice."""
        deadline = self.cluster.config.post_deadline
        if deadline is None:
            deadline = self.cluster.config.locate_timeout

        def backstop() -> None:
            if block._admission is None:
                return  # concluded in time
            self._release_admission(block)
            self.undeliverable += 1
            if self.on_undeliverable is not None:
                self.on_undeliverable(block, cap)
            self._complete_sync(block, None, UndeliverableError(
                f"degraded {block.event} to object {cap.oid} unresolved "
                f"after {deadline}s"), from_node=block.raiser_node or 0)

        self.cluster.sim.call_after(deadline, backstop)

    def _object_post_failed(self, block: EventBlock, cap: Capability) -> None:
        """A reliable object post exhausted its retransmission budget."""
        if block.durable_id is not None:
            # Durable posts to persistent objects don't fail — they park
            # in the origin's outbox and the flush timer / the target's
            # recovery announcement redelivers them.
            origin = self.cluster.kernels.get(block.durable_id[0])
            if origin is not None:
                self.cluster.tracer.emit("store", "park", event=block.event,
                                         oid=cap.oid, node=origin.node_id)
                origin.store.on_give_up(block.durable_id)
                return
        self.undeliverable += 1
        # Keep the block inspectable instead of dropping it after the
        # §7.2-style notice: dead-letter it on the raiser's node.
        # journal=False — this path exists in knobs-off configurations
        # too and must not perturb durable runs' journal accounting.
        origin = self.cluster.kernels.get(block.raiser_node or 0)
        if origin is not None:
            self.supervisor.counters["dead_letter_undeliverable"] += 1
            origin.dead_letters.add(
                block, "undeliverable",
                error=f"object {cap.oid} on node {cap.home} unreachable",
                journal=False)
        if self.on_undeliverable is not None:
            self.on_undeliverable(block, cap)
        self._complete_sync(block, None, UndeliverableError(
            f"{block.event} to object {cap.oid} on node {cap.home} "
            f"undeliverable"), from_node=block.raiser_node or 0)

    def _on_post_object(self, message: Message) -> None:
        body = message.payload
        self._handle_object_post(int(message.dst), body["block"],
                                 body["oid"])

    def redeliver_entry(self, node: int, entry: "OutboxEntry") -> None:
        """Re-dispatch a pending outbox entry from its origin ``node``.

        Object posts are re-sent toward the object's home (objects are
        persistent, so the post eventually lands). Thread posts cannot
        be redelivered — the target thread died with whatever crash or
        give-up stranded the entry, and a respawn is a different thread
        — so they resolve through the §7.2 dead-target notice instead.
        """
        block = entry.block
        self.cluster.tracer.emit("store", "redeliver", event=block.event,
                                 kind=entry.kind, node=node,
                                 entry=str(entry.entry_id))
        if entry.kind == "object":
            self._post_object(node, block, block.target)
        else:
            self._dead_target(block, block.target)

    def post_abort_notification(self, obj: "DistObject", thread: DThread,
                                node: int) -> None:
        """Unwind-time ABORT notification to an object (§6.3)."""
        block = EventBlock(event=names.ABORT, raiser_tid=thread.tid,
                           raiser_node=node, target=obj.cap,
                           user_data={"tid": thread.tid},
                           raised_at=self.cluster.sim.now)
        self._post_object(node, block, obj.cap)

    def _handle_object_post(self, node: int, block: EventBlock,
                            oid: int) -> None:
        kernel = self.cluster.kernels[node]
        if kernel.crashed:
            return  # arrived in the delivery window of a crashing node
        if (block.durable_id is not None
                and not kernel.store.accept_post(block.durable_id)):
            # Redelivered duplicate: already executed here (the applied
            # set re-acked it) or already queued for execution.
            return
        if block.degraded and not self._accept_degraded(node, block):
            return  # fabric-duplicated fire-and-forget datagram
        self.cluster.tracer.emit("event", "deliver-object",
                                 event=block.event, oid=oid, node=node)
        self._run_object_post(node, block, oid)

    def _accept_degraded(self, node: int, block: EventBlock) -> bool:
        """Receiver-side dedup for degraded posts: no rel header means
        the reliable channel cannot suppress fabric duplicates, so the
        manager remembers recent degraded block ids per node.

        The window is the channel's ``dedup_window`` (an undersized
        window re-admits a late fabric duplicate as a fresh post)."""
        seen = self._degraded_seen.get(node)
        if seen is None:
            seen = self._degraded_seen[node] = OrderedDict()
        if block.block_id in seen:
            return False
        seen[block.block_id] = None
        window = self.cluster.config.dedup_window
        while len(seen) > window:
            seen.popitem(last=False)
        return True

    def _run_object_post(self, node: int, block: EventBlock,
                         oid: int) -> None:
        """Execute one accepted object post (also the chain-retry entry:
        a poison retry re-runs from here, past dedup)."""
        kernel = self.cluster.kernels[node]
        if kernel.crashed:
            return  # crashed between acceptance and a scheduled retry
        obj = kernel.objects.get(oid)
        if obj is None:
            # The object is gone for good (destroyed): the post is
            # definitively processed — ack so the origin stops retrying.
            if block.durable_id is not None:
                kernel.store.post_executed(block.durable_id)
            self._complete_sync(block, None, UnknownObjectError(
                f"object {oid} no longer exists"), from_node=node)
            return
        fn = kernel.objects.object_handler_fn(obj, block.event)
        if fn is None:
            self._object_default(node, obj, block)
            if block.durable_id is not None:
                kernel.store.post_executed(block.durable_id)
            return
        done: SimFuture[Any] = SimFuture(self.cluster.sim)
        kernel.objects.run_object_handler(obj, fn, block, done)

        def finished(fut: SimFuture[Any]) -> None:
            error: BaseException | None = None
            value: Any = None
            if fut.failed or fut.cancelled:
                try:
                    fut.result()
                except BaseException as exc:  # noqa: BLE001
                    error = exc
            else:
                value = fut.result()
            if error is not None and not isinstance(
                    error, (HandlerTimeout, GeneratorExit)):
                # Poison policy for object handlers. Timeouts excluded:
                # the cancelled handler may have half-executed, so a
                # re-run could double its side effects. GeneratorExit
                # excluded: that is the node crashing mid-run, not a
                # handler bug — recovery redelivery deals with it.
                action, count = self.supervisor.chain_failed(block)
                if action == "retry":
                    self.supervisor.counters["chain_retries"] += 1
                    self.cluster.tracer.emit(
                        "supervise", "chain-retry", event=block.event,
                        oid=oid, attempt=count)
                    if block.durable_id is not None:
                        # Retract the applied marker: if the node dies
                        # during the backoff, the origin's redelivery
                        # must re-run the handler, not be suppressed.
                        kernel.store.unmark_applied(block.durable_id)
                    delay = (self.cluster.config.handler_backoff
                             * (2 ** (count - 1)))
                    self.cluster.sim.call_after(delay, self._run_object_post,
                                                node, block, oid)
                    return  # no ack yet: the post is still in flight
                if action == "quarantine":
                    self._quarantine_object_block(node, block, oid, error,
                                                  count)
                    return
            elif error is None:
                self.supervisor.clear_failures(block)
            if block.event == names.DELETE and error is None:
                kernel.objects.destroy(oid)
            if block.durable_id is not None:
                kernel.store.post_executed(block.durable_id)
            self._complete_sync(block, value, error, from_node=node)

        done.add_done_callback(finished)

    def _quarantine_object_block(self, node: int, block: EventBlock,
                                 oid: int, error: BaseException,
                                 failures: int) -> None:
        """An object post hit ``poison_threshold``: dead-letter it on the
        object's home node."""
        kernel = self.cluster.kernels[node]
        self.supervisor.counters["quarantined"] += 1
        kernel.dead_letters.add(block, "poison", error=error,
                                failures=failures)
        if block.durable_id is not None:
            # Resolve the origin's outbox as quarantined, not delivered.
            kernel.store.post_quarantined(block.durable_id)
            block.durable_id = None
        self._complete_sync(block, None, EventQuarantinedError(
            f"{block.event} to object {oid} quarantined after "
            f"{failures} failures"), from_node=node)
        block.synchronous = False  # the raiser has been resumed

    def requeue(self, node: int, dead: Any) -> EventBlock:
        """Re-post a dead letter as a fresh asynchronous block.

        Fresh identity on purpose: the original block id / durable id
        already sits in dedup windows and applied sets cluster-wide, so
        reusing them would get the retry silently swallowed.
        """
        old = dead.block
        fresh = EventBlock(event=old.event, raiser_tid=None,
                           raiser_node=node, target=old.target,
                           synchronous=False, user_data=old.user_data,
                           raised_at=self.cluster.sim.now)
        self.supervisor.counters["requeued"] += 1
        self.cluster.tracer.emit("supervise", "requeue", event=old.event,
                                 node=node, dl_id=dead.dl_id)
        self._route(node, fresh, self._normalize_target(old.target))
        return fresh

    def _object_default(self, node: int, obj: "DistObject",
                        block: EventBlock) -> None:
        info = self.cluster.names.require_event(block.event)
        action = defaults.object_default(block.event, info["system"])
        kernel = self.cluster.kernels[node]
        if action == defaults.OBJ_DESTROY:
            kernel.objects.destroy(obj.oid)
            self._complete_sync(block, None, None, from_node=node)
        elif action == defaults.OBJ_IGNORE:
            self._complete_sync(block, None, None, from_node=node)
        else:
            self.cluster.tracer.emit("event", "object-reject",
                                     event=block.event, oid=obj.oid)
            self._complete_sync(block, None, NoHandlerError(
                f"object {obj.oid} has no handler for {block.event}"),
                from_node=node)

    # ==================================================================
    # synchronous-raise completion (the resume path)
    # ==================================================================

    def _complete_sync(self, block: EventBlock, value: Any,
                       error: BaseException | None, from_node: int) -> None:
        # Every conclusion path funnels through here (executed, noticed,
        # quarantined, give-up), so the admission charge comes back here
        # for synchronous and asynchronous posts alike.
        self._release_admission(block)
        if not block.synchronous:
            if error is not None:
                self.cluster.tracer.emit("event", "async-error",
                                         event=block.event,
                                         error=repr(error))
            return
        token = block._resume_token or block.block_id
        record = self._sync_waits.get(token)
        if record is None:
            return
        if from_node == record["node"]:
            self.cluster.sim.call_soon(self._arrive_resume, token, value,
                                       error)
            return
        self.cluster.transmit(Message(
            src=from_node, dst=record["node"], mtype=MSG_RESUME, size=96,
            payload={"token": token, "value": value, "error": error}),
            on_give_up=lambda m: self._arrive_resume(
                token, None, UndeliverableError(
                    f"resume for {block.event} undeliverable to "
                    f"node {record['node']}")))

    def _on_resume(self, message: Message) -> None:
        body = message.payload
        self._arrive_resume(body["token"], body["value"], body["error"])

    def _arrive_resume(self, token: int, value: Any,
                       error: BaseException | None) -> None:
        record = self._sync_waits.get(token)
        if record is None:
            return
        record["values"].append(value)
        record["remaining"] -= 1
        if error is not None:
            record["error"] = error
        if record["remaining"] > 0:
            return
        del self._sync_waits[token]
        final_error = record.get("error")
        result = record["values"] if record["group"] else record["values"][0]
        if record["kind"] == "external":
            future: SimFuture[Any] = record["future"]
            if not future.done:
                if final_error is not None:
                    future.fail(final_error)
                else:
                    future.resolve(result)
            return
        thread: DThread = record["thread"]
        thread.resume_with(None if final_error is not None else result,
                           final_error, record["epoch"])

    def resume_raiser(self, block: EventBlock, value: Any) -> None:
        """Handler-initiated early resume of a blocked raiser (§5.3)."""
        # The handler runs somewhere in the cluster; charge the resume
        # from the raise's delivery node when known.
        from_node = (block.snapshot.node if block.snapshot is not None
                     else block.raiser_node or 0)
        self._complete_sync(block, value, None, from_node=from_node)
        # Mark so chain completion does not double-resume.
        block.synchronous = False

    # ==================================================================
    # attach/detach (§5.2)
    # ==================================================================

    def attach_from_thread(self, thread: DThread, frame: "Activation",
                           syscall: sc.AttachHandler) -> None:
        try:
            self.cluster.names.require_event(syscall.event)
            registration = self._build_registration(thread, frame, syscall)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            thread.schedule_step(None, exc)
            return
        thread.attributes.attach(registration)
        self.cluster.tracer.emit(
            "event", "attach", event=syscall.event, tid=str(thread.tid),
            context=registration.context.value, node=frame.node)
        thread.schedule_step_after(self.cluster.config.attach_cost,
                                   registration.reg_id, None)

    def _build_registration(self, thread: DThread, frame: "Activation",
                            syscall: sc.AttachHandler) -> HandlerRegistration:
        context = syscall.context
        if context is HandlerContext.CURRENT:
            procedure = syscall.procedure
            if callable(procedure) and not isinstance(procedure, str):
                name = getattr(procedure, "__name__", "proc")
                key = f"{name}#{next(_proc_names)}"
                thread.attributes.per_thread_memory.install_procedure(
                    key, procedure)
                procedure = key
            return HandlerRegistration(
                event=syscall.event, context=context, procedure=procedure,
                attached_in_oid=(frame.obj.oid if frame.obj else None),
                attached_at_node=frame.node, deadline=syscall.deadline)
        if context is HandlerContext.BUDDY:
            if syscall.target is None:
                raise EventError("buddy handler needs a target capability")
            target_oid = syscall.target.oid
        else:  # ATTACHING
            if frame.obj is None:
                raise EventError(
                    "attaching-context handler requires the thread to be "
                    "executing inside an object")
            target_oid = frame.obj.oid
        obj = self.cluster.find_object(target_oid)
        if obj is None:
            raise UnknownObjectError(f"no object {target_oid}")
        obj.handler_fn(syscall.fn_name)  # validate now, not at delivery
        return HandlerRegistration(
            event=syscall.event, context=context, fn_name=syscall.fn_name,
            target_oid=target_oid,
            attached_in_oid=(frame.obj.oid if frame.obj else None),
            attached_at_node=frame.node, deadline=syscall.deadline)

    # ==================================================================
    # exceptions as events (§3, §6.1)
    # ==================================================================

    def on_frame_exception(self, thread: DThread, frame: "Activation",
                           exc: BaseException) -> None:
        """An activation's generator raised; decide events vs propagation."""
        if isinstance(exc, (ThreadTerminated, InvocationAborted)):
            self.cluster.invoker.frame_failed(thread, exc)
            return
        event = defaults.event_for_exception(exc)
        if event is None or thread.kind != KIND_USER:
            self.cluster.invoker.frame_failed(thread, exc)
            return
        obj_handler = (self.cluster.kernels[frame.node].objects
                       .object_handler_fn(frame.obj, event)
                       if frame.obj is not None else None)
        chain = thread.attributes.handlers_for(event)
        if obj_handler is None and not chain:
            self.cluster.invoker.frame_failed(thread, exc)
            return
        block = EventBlock(event=event, raiser_tid=None,
                           raiser_node=frame.node, target=thread.tid,
                           user_data=exc, raised_at=self.cluster.sim.now)
        block.snapshot = thread.snapshot()
        block.delivered_at = self.cluster.sim.now
        thread.suspended_by_event = True
        self.cluster.tracer.emit("event", "exception", event=event,
                                 tid=str(thread.tid), error=repr(exc),
                                 node=frame.node)

        def finish(decision: Decision, value: Any) -> None:
            self._retire_surrogate(thread)
            thread.suspended_by_event = False
            if decision is Decision.RESUME:
                # Levin-style repair: the faulted invocation returns the
                # handler's recovery value to its caller.
                self.cluster.invoker.frame_returned(thread, value)
            elif decision is Decision.TERMINATE:
                self.cluster.invoker.terminate_thread(
                    thread, reason=f"unhandled {event}")
            else:
                self.cluster.invoker.frame_failed(thread, exc)

        def after_object_handler(decision: Decision, value: Any,
                                 error: BaseException | None) -> None:
            if decision is Decision.PROPAGATE:
                self._run_exception_chain(thread, block, chain, 0, exc,
                                          finish)
            else:
                finish(decision, value)

        if obj_handler is not None:
            # §6.1: the object's handler gets called first, on a surrogate
            # thread that takes on the suspended thread's attributes.
            done_fut: SimFuture[Any] = SimFuture(self.cluster.sim)
            kernel = self.cluster.kernels[frame.node]
            kernel.objects.run_object_handler(frame.obj, obj_handler, block,
                                              done_fut)
            done_fut.add_done_callback(
                lambda fut: self._surrogate_done(fut, after_object_handler,
                                                 thread, block))
        else:
            self._run_exception_chain(thread, block, chain, 0, exc, finish)

    def _run_exception_chain(self, thread: DThread, block: EventBlock,
                             chain: list[HandlerRegistration], index: int,
                             exc: BaseException, finish) -> None:
        if index >= len(chain):
            finish(Decision.PROPAGATE, None)
            return

        def done(decision: Decision, value: Any,
                 error: BaseException | None) -> None:
            if decision is Decision.PROPAGATE:
                self._run_exception_chain(thread, block, chain, index + 1,
                                          exc, finish)
            else:
                finish(decision, value)

        self._execute_registration(thread, chain[index], block, done)

    # ==================================================================
    # thread-attribute timers (§6.2) and migration hooks
    # ==================================================================

    def add_thread_timer(self, thread: DThread, spec: TimerSpec) -> None:
        thread.attributes.add_timer(spec)
        if thread.alive:
            self._arm(thread, spec, thread.current_node)

    def remove_thread_timer(self, thread: DThread, spec_id: int) -> bool:
        armed = thread.armed_timers.pop(spec_id, None)
        if armed is not None:
            node, timer_id = armed
            self.cluster.kernels[node].timers.cancel(timer_id)
        return thread.attributes.remove_timer(spec_id)

    def _arm(self, thread: DThread, spec: TimerSpec, node: int) -> None:
        timer_id = self.cluster.kernels[node].timers.set(
            spec.interval, self._timer_fired, thread, spec, node,
            recurring=spec.recurring)
        thread.armed_timers[spec.spec_id] = (node, timer_id)

    def _timer_fired(self, thread: DThread, spec: TimerSpec,
                     node: int) -> None:
        if not thread.alive or thread.current_node != node:
            return  # stale: the thread moved and was re-armed elsewhere
        if not spec.recurring:
            thread.armed_timers.pop(spec.spec_id, None)
            thread.attributes.remove_timer(spec.spec_id)
        block = EventBlock(event=spec.event, raiser_tid=None,
                           raiser_node=node, target=thread.tid,
                           user_data=spec.user_data,
                           raised_at=self.cluster.sim.now)
        self.cluster.tracer.emit("timer", "fire", event=spec.event,
                                 tid=str(thread.tid), node=node)
        self.enqueue_for_thread(node, thread.tid, block)

    def thread_entered_node(self, thread: DThread, node: int,
                            created: bool = False,
                            returned: bool = False) -> None:
        """Invocation-engine hook: the thread starts executing on a node.

        Re-creates the thread's event registration (§6.2: timers are
        re-armed from the attribute list) and maintains the multicast
        location group (§7.1).
        """
        self.cluster.fabric.multicast_groups.join(
            thread.tid.multicast_group, node)
        self.cluster.kernels[node].location_hints.install(thread.tid, node)
        if thread.kind == KIND_USER:
            for spec in thread.attributes.timers:
                if spec.spec_id not in thread.armed_timers:
                    self._arm(thread, spec, node)

    def thread_leaving_node(self, thread: DThread, node: int,
                            frames_remain: bool) -> None:
        """The thread's innermost frame is departing ``node``."""
        # The node's own "it is here" hint is now stale; the TCB
        # forwarding pointer (set right after this hook) takes over.
        self.cluster.kernels[node].location_hints.invalidate(thread.tid)
        if thread.armed_timers:
            for spec_id in list(thread.armed_timers):
                armed_node, timer_id = thread.armed_timers[spec_id]
                if armed_node == node:
                    self.cluster.kernels[node].timers.cancel(timer_id)
                    del thread.armed_timers[spec_id]

    def thread_left_for_good(self, thread: DThread, node: int) -> None:
        """No frames of the thread remain on ``node``."""
        if node != thread.tid.root:
            self.cluster.fabric.multicast_groups.leave(
                thread.tid.multicast_group, node)
        # The TCB is gone too; leave a forwarding hint so cached posts
        # chasing a stale pointer still make progress toward the thread.
        if thread.alive and thread.current_node != node:
            self.cluster.kernels[node].location_hints.install(
                thread.tid, thread.current_node)

    def thread_gone(self, thread: DThread) -> None:
        """The thread finished or was terminated; final cleanup."""
        kernels = self.cluster.kernels
        if thread.armed_timers:
            for spec_id in list(thread.armed_timers):
                node, timer_id = thread.armed_timers.pop(spec_id)
                kernels[node].timers.cancel(timer_id)
        self.cluster.fabric.multicast_groups.dissolve(
            thread.tid.multicast_group)
        # Dead threads must not linger in any node's location cache: a
        # post must miss everywhere and reach §7.2 dead-target detection.
        holders = self.cluster.hint_holders.get(thread.tid)
        if holders:
            for node in sorted(holders):
                kernels[node].location_hints.invalidate(thread.tid)
        # Notices still queued — or mid-delivery — die with the thread;
        # every raiser, synchronous or not, gets the §7.2 notification
        # instead of silence.
        if thread.delivering_block is not None:
            block = thread.delivering_block
            thread.delivering_block = None
            self._dead_target(block, thread.tid)
        while thread.pending_notices:
            block = thread.pending_notices.popleft()
            self._dead_target(block, thread.tid)
