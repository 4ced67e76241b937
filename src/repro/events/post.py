"""Post: carry one recipient's block to where it is handled.

* **Threads** (§7.1): find the thread — local fast path, else the
  configured location strategy — and queue the notice on it; the
  execute stage takes over at the thread's next interruption point. A
  thread that cannot be found, or dies with notices queued, turns each
  of them into §7.2's dead-target notice.
* **Passive objects** (§4.3, §7): send the block to the object's home
  node, suppress duplicates there, and run the object's handler (or the
  kernel's default action) on the node's master handler thread.
"""

from __future__ import annotations

from copy import copy
from typing import TYPE_CHECKING, Any

from repro.errors import (
    DeadThreadError,
    HandlerTimeout,
    NoHandlerError,
    UnconfirmedError,
    UndeliverableError,
    UnknownObjectError,
)
from repro.events import defaults, names
from repro.events.block import SETTLED, EventBlock
from repro.events.locate import make_locator
from repro.events.settle import EXECUTED, NOTICED, Settler
from repro.events.supervise import HandlerSupervisor
from repro.net.message import Message
from repro.objects.capability import Capability
from repro.threads.ids import ThreadId
from repro.threads.thread import DThread, KIND_USER, TERMINATING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.boot import Cluster
    from repro.objects.base import DistObject
    from repro.store.outbox import OutboxEntry

MSG_POST_OBJECT = "event.post-object"

#: virtual seconds a degraded (fire-and-forget) post may stay unresolved
#: before its raiser gets the §7.2 notice, when no ``post_deadline`` is set
LOCATE_TIMEOUT = 1.0

#: how an object post reaches ``Poster.post_object`` at its home node:
#: inside its own raise there, by message, or already accepted (a
#: poison retry, or the hop of a post that concludes on arrival)
RAISED, ARRIVED, ACCEPTED = 0, 1, 2


class Poster:
    """Thread and object posting for the whole cluster."""

    def __init__(self, cluster: "Cluster", supervisor: HandlerSupervisor,
                 settle: Settler) -> None:
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.kernels = cluster.kernels
        self.live_threads = cluster.live_threads
        self.require_event = cluster.names.require_event
        self.supervisor = supervisor
        self.settle = settle
        config = cluster.config
        self.locator = make_locator(config.locator, cluster,
                                    self.enqueue_for_thread)
        self.post_deadline = config.post_deadline  # positive, or None
        self.degrade_deadline = config.post_deadline or LOCATE_TIMEOUT
        self.dedup_window = config.dedup_window
        #: posts that ended in §7.2's dead-target notice
        self.dead_targets = 0
        #: receiver-side dedup for degraded (fire-and-forget) object
        #: posts, per node: without a rel header the channel cannot
        #: suppress fabric duplicates, so recent degraded block ids are
        #: remembered here instead (bounded by ``dedup_window``)
        self._degraded_seen: dict[int, dict[int, None]] = {
            node: {} for node in cluster.kernels}
        for kernel in cluster.kernels.values():
            kernel.register_message_handler(MSG_POST_OBJECT,
                                            self.post_object)

    # ==================================================================
    # thread-targeted posts
    # ==================================================================

    def post_thread(self, from_node: int, tid: ThreadId,
                    block: EventBlock) -> None:
        # Local fast path: if the target's innermost activation is on the
        # raising node, the kernel hands the notice over directly — no
        # location protocol, no messages. This also makes raise-to-self
        # land at the raiser's next yield point (breakpoints, the
        # QUIT -> TERMINATE re-raise of the ^C protocol, ...).
        tcb = self.kernels[from_node].thread_table.get(tid)
        if tcb is not None and tcb.innermost:
            if self.enqueue_for_thread(from_node, tid, block):
                if "event" not in self.tracer.muted:
                    self.tracer.emit("event", "routed", event=block.event,
                                     tid=str(tid), hops=0)
                return

        # Once-guard: under loss and retransmission a locator may report
        # twice (e.g. a retried probe succeeds after the backstop already
        # declared failure); only the first verdict counts.
        state = {"done": False}

        def on_result(delivered: bool, hops: int,
                      expired: bool = False) -> None:
            if state["done"]:
                return
            state["done"] = True
            if "event" not in self.tracer.muted:
                self.tracer.emit(
                    "event", "routed" if delivered else "dead-target",
                    event=block.event, tid=str(tid), hops=hops)
            if not delivered:
                self.dead_target(block, tid, expired)

        if self.post_deadline is not None:
            # Backstop: no verdict by the deadline counts as a dead
            # target (and as undeliverable).
            self.sim.call_after(self.post_deadline, on_result, False, -1,
                                True)
        self.locator.post(from_node, tid, block, on_result)

    def dead_target(self, block: EventBlock, tid: Any,
                    expired: bool = False) -> None:
        """§7.2: the sender of an event to a destroyed thread is notified."""
        durable_id = block.durable_id
        if durable_id is not None and self.kernels[durable_id[0]].crashed:
            # The origin's crash emptied the outbox that records this
            # notice; the journal's redelivery after recovery gives it.
            return
        self.dead_targets += 1
        node = block.raiser_node or 0
        first = self.settle.conclude(
            block, NOTICED, None, DeadThreadError(f"thread {tid} is dead"),
            node, target=tid, undeliverable=expired)
        if block.synchronous or not first:
            return
        raiser = self.live_threads.get(block.raiser_tid)
        if raiser is not None and raiser.attributes.handlers_for(
                names.TARGET_DEAD):
            notice = EventBlock(names.TARGET_DEAD, None, block.raiser_node,
                                raiser.tid, False,
                                {"event": block.event, "dead_tid": tid},
                                self.sim.now)
            self.post_thread(node, raiser.tid, notice)

    def enqueue_for_thread(self, node: int, tid: ThreadId,
                           block: EventBlock) -> bool:
        """A notice reached the node holding the thread's innermost frame."""
        thread = self.live_threads.get(tid)
        if (thread is None or not thread.alive or thread.state == TERMINATING
                or thread.kind != KIND_USER):
            # dead, dying, or a loop thread (master, per-event thread,
            # surrogate): no event target, so the raiser gets §7.2's notice
            return False
        if not thread.accept_block(block.block_id):
            # Duplicate arrival (second locate path, late retransmission):
            # report success — the first copy was accepted — but do not
            # queue a second handler run.
            return True
        thread.pending_notices.append(block)
        self.locator.notice_accepted(tid, node, block.raiser_node)
        if "event" not in self.tracer.muted:
            self.tracer.emit("event", "enqueue", event=block.event,
                             tid=str(tid), node=node)
        thread.notice_arrived()
        return True

    # ==================================================================
    # object-targeted posts (§4.3)
    # ==================================================================

    def post_object(self, node: "int | Message",
                    block: EventBlock | None = None,
                    stage: int = RAISED) -> None:
        """Post ``block`` to its object from ``node``. Away from the
        object's home this sends it there; at the home node it is
        accepted (crash check, dedup), looked up and queued for the
        master handler thread. ``stage`` says how it got there: inside
        its own raise (``RAISED``), by message (``ARRIVED``), or past
        acceptance already (``ACCEPTED``: the poison retry, the hop
        below). It is also the kernels' handler of the
        ``event.post-object`` message, which passes the message alone:
        the post ``ARRIVED`` at the message's destination."""
        if block is None:
            block = node.payload["block"]
            node = int(node.dst)
            stage = ARRIVED
        cap = block.target
        oid = cap.oid
        if node != cap.home:
            if block.degraded:
                # Shed to fire-and-forget: one datagram, no
                # retransmission — overload must not amplify traffic. It
                # carries a copy, as any wire does; the origin keeps the
                # block and its admission charge until the home node's
                # one best-effort degrade.done confirms it, or the
                # deadline notices it as unconfirmed.
                sent = copy(block)
                sent._admission = None
                self.settle.unconfirmed[block.block_id] = block
                self.kernels[node].transmit_unreliable(Message(
                    node, cap.home, MSG_POST_OBJECT, {"block": sent}, 128))
                self.sim.call_after(self.degrade_deadline,
                                    self._degrade_expired, block)
                return
            message = Message(node, cap.home, MSG_POST_OBJECT,
                              {"block": block}, 128)
            self.kernels[node].transmit(message, self._object_post_failed)
            return
        kernel = self.kernels[node]
        if kernel.crashed:
            # arrived in the delivery window of a crashing node, or it
            # crashed between acceptance and a scheduled retry
            return
        if stage != ACCEPTED:
            if (block.durable_id is not None
                    and not kernel.store.accept_post(block.durable_id)):
                # Redelivered duplicate: already executed here (the
                # applied set re-acked it) or already queued for
                # execution.
                return
            if block.degraded and not self._accept_degraded(node, block):
                return  # fabric-duplicated fire-and-forget datagram
            if "event" not in self.tracer.muted:
                self.tracer.emit("event", "deliver-object",
                                 event=block.event, oid=oid, node=node)
        objects = kernel.objects
        obj = objects._objects.get(oid)
        fn = None
        if obj is not None:
            # the routing table, probed here: a miss resolves and fills it
            fn = objects._handler_cache.get((oid, block.event), obj)
            if fn is obj:
                fn = objects.object_handler_fn(obj, block.event)
        if fn is None and stage == RAISED:
            # A hop, not a call: this post concludes on arrival, and
            # EventManager._raise sets wait.remaining only after route()
            # returns — no post may conclude inside its own raise. The
            # hop re-runs this lookup at the same instant.
            self.sim.call_soon(self.post_object, node, block, ACCEPTED)
            return
        if obj is None:
            # The object is gone for good (destroyed): the post is
            # definitively processed — the ack stops the origin retrying.
            self.settle.conclude(block, EXECUTED, None, UnknownObjectError(
                f"object {oid} no longer exists"), node)
            return
        if fn is None:
            self._object_default(node, obj, block)
            return
        supervisor = self.supervisor

        def finished(value: Any, error: BaseException | None) -> None:
            if error is None:
                if supervisor.chain_failures:
                    supervisor.clear_failures(block)
                if block.event == names.DELETE:
                    objects.destroy(oid)
            elif isinstance(error, GeneratorExit):
                # The node crashed mid-run — not a handler bug, so no
                # poison tally. A durable post concludes executed (the
                # applied marker suppresses its redelivery) and its
                # raiser hears of the crash (Settler._resume).
                if block.durable_id is None:
                    self.lost_in_crash(block)
                    return
            elif not isinstance(error, HandlerTimeout):
                # Poison policy for object handlers. Timeouts excluded:
                # the cancelled handler may have half-executed, so a
                # re-run could double its side effects. Retrying: no ack
                # yet, the post is still in flight.
                if supervisor.poisoned(block, error, node, self.post_object,
                                       node, block, ACCEPTED, oid=oid):
                    return
            self.settle.conclude(block, EXECUTED, value, error, node)

        objects.run_object_handler(obj, fn, block, finished)

    def _degrade_expired(self, block: EventBlock) -> None:
        if self.settle.unconfirmed.pop(block.block_id, None) is None:
            return  # confirmed in time
        if self.settle.conclude(block, NOTICED, None, UnconfirmedError(
                f"degraded {block.event} to object {block.target.oid} "
                f"unconfirmed after {self.degrade_deadline}s"),
                block.raiser_node or 0):
            self.supervisor.counters["degrade_unconfirmed"] += 1

    def _object_post_failed(self, message: Message) -> None:
        """A reliable object post exhausted its retransmission budget:
        the reliable channel's give-up hook, one bound method for every
        post (the message is the one sent, and a block's target is set
        once, at its raise)."""
        block = message.payload["block"]
        cap = block.target
        if block.durable_id is not None:
            # Durable posts to persistent objects don't fail — they park
            # in the origin's outbox and the flush timer / the target's
            # recovery announcement redelivers them.
            origin = self.kernels.get(block.durable_id[0])
            if origin is not None:
                if "store" not in self.tracer.muted:
                    self.tracer.emit("store", "park", event=block.event,
                                     oid=cap.oid, node=origin.node_id)
                origin.store.on_give_up(block.durable_id)
                return
        self.settle.conclude(block, NOTICED, None, UndeliverableError(
            f"{block.event} to object {cap.oid} on node {cap.home} "
            f"undeliverable"), block.raiser_node or 0, dead_letter=True)

    def lost_in_crash(self, block: EventBlock) -> None:
        """Its home node crashed with ``block`` queued for (or inside)
        the object's handler. Durable posts stay silent: the origin's
        outbox redelivers them and that run concludes them. A §6.1
        exception block (thread-targeted) died with its thread. Every
        other post is noticed from the raiser's node."""
        cap = block.target
        if block.degraded and block.raiser_node != cap.home:
            return  # a datagram's copy: the origin's deadline notices it
        if block.durable_id is None and isinstance(cap, Capability):
            self.settle.conclude(block, NOTICED, None, UndeliverableError(
                f"{block.event} to object {cap.oid} lost in the crash of "
                f"node {cap.home}"), block.raiser_node or 0)

    def redeliver_entry(self, node: int, entry: "OutboxEntry") -> None:
        """Re-dispatch a pending outbox entry from its origin ``node``.

        Object posts are re-sent toward the object's home (objects are
        persistent, so the post eventually lands). Thread posts cannot
        be redelivered — the target thread died with whatever crash or
        give-up stranded the entry, and a respawn is a different thread
        — so they resolve through the §7.2 dead-target notice instead.
        """
        block = entry.block
        if "store" not in self.tracer.muted:
            self.tracer.emit("store", "redeliver", event=block.event,
                             kind=entry.kind, node=node,
                             entry=str(entry.entry_id))
        if entry.kind == "object":
            self.post_object(node, block)
            return
        if block._admission is SETTLED:
            # Whatever concluded this copy before never reached the
            # journal (the entry is still pending): conclude it again.
            block._admission = None
        self.dead_target(block, block.target)

    def post_abort_notification(self, obj: "DistObject", thread: DThread,
                                node: int) -> None:
        """Unwind-time ABORT notification to an object (§6.3)."""
        block = EventBlock(names.ABORT, thread.tid, node, obj.cap, False,
                           {"tid": thread.tid}, self.sim.now)
        self.post_object(node, block)

    def _accept_degraded(self, node: int, block: EventBlock) -> bool:
        """Receiver-side dedup for degraded posts: no rel header means
        the reliable channel cannot suppress fabric duplicates, so
        recent degraded posts are remembered per node, by block id (one
        post's name in the whole cluster, sharded runs included).

        The window is the channel's ``dedup_window`` (an undersized
        window re-admits a late fabric duplicate as a fresh post)."""
        seen = self._degraded_seen[node]
        key = block.block_id
        if key in seen:
            return False
        seen[key] = None
        if len(seen) > self.dedup_window:
            del seen[next(iter(seen))]
        return True

    def _object_default(self, node: int, obj: "DistObject",
                        block: EventBlock) -> None:
        """No handler is declared: the kernel-defined default (§7)."""
        info = self.require_event(block.event)
        action = defaults.object_default(block.event, info["system"])
        error = None
        if action == defaults.OBJ_DESTROY:
            self.kernels[node].objects.destroy(obj.oid)
        elif action != defaults.OBJ_IGNORE:
            if "event" not in self.tracer.muted:
                self.tracer.emit("event", "object-reject", event=block.event,
                                 oid=obj.oid)
            error = NoHandlerError(
                f"object {obj.oid} has no handler for {block.event}")
        self.settle.conclude(block, EXECUTED, None, error, node)
