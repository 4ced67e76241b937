"""Settle: every post ends here, exactly once, with one of three outcomes.

* **executed** — a handler chain, an object's handler or the kernel's
  default action ran to a decision;
* **noticed** — it could not be handled and the raiser learns so in
  bounded time (§7.2 dead target, give-up, deadline, shed, crash loss);
* **quarantined** — every handler failed ``poison_threshold`` times and
  the block moved to a dead-letter queue.

:meth:`Settler.conclude` is the one funnel the other stages call: it
alone acks the origin's outbox, returns the admission charge, counts
and reports undeliverable posts, dead-letters, and resumes a
``raise_and_wait`` raiser (whose wait table and resume message live
here too), and confirms a degraded post back to its origin (the
origin's table of posts awaiting that confirmation lives here as well).

The stage also keeps the **open-post table** (``Settler.open``): the
route stage inserts every recipient block it targets, keyed by block
id, and :meth:`Settler.conclude` pops it at the block's first
conclusion. :meth:`Settler.audit` (``Cluster.audit()``) reads what is
left: a durable post concluded with no open entry (a redelivered copy
of a post that had concluded already), and, once the scheduler has
nothing pending, every open post that was never delivered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from repro.errors import (
    EventQuarantinedError,
    NodeCrashedError,
    RpcTimeout,
    UndeliverableError,
)
from repro.events.block import SETTLED, EventBlock
from repro.net.message import Message
from repro.objects.capability import Capability
from repro.store.outbox import NOTICED as ENTRY_NOTICED
from repro.threads.ids import GroupId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.events.delivery import EventManager
    from repro.kernel.boot import Cluster

MSG_RESUME = "event.resume"
MSG_DEGRADE_DONE = "degrade.done"

EXECUTED = "executed"
NOTICED = "noticed"
QUARANTINED = "quarantined"


class Violation(NamedTuple):
    """One breach of the standing invariant, as :meth:`Settler.audit`
    reports it."""

    #: ``"concluded twice"`` or ``"open at idle"``
    kind: str
    block_id: int
    event: str
    target: Any
    #: a double conclusion: its second outcome and node; an open post:
    #: where it was last seen
    stage: str
    #: virtual seconds from the raise to the second conclusion or to the
    #: audit
    age: float

    def __str__(self) -> str:
        return (f"{self.kind}: block {self.block_id} ({self.event} -> "
                f"{self.target}), {self.stage}, {self.age:.6g}s after "
                f"its raise")


class SyncWait:
    """One blocked ``raise_and_wait`` raiser. ``complete(value, error)``
    resumes the thread or settles an external raiser's future: a plain
    callable, since a future's callbacks cost a scheduler event each."""

    __slots__ = ("complete", "node", "group", "remaining", "values",
                 "error")

    def __init__(self, complete: Callable[[Any, Any], None], node: int,
                 group: bool) -> None:
        self.complete = complete
        self.node = node
        #: a group raise resumes with the list of every member's value
        self.group = group
        self.remaining = 1
        self.values: list[Any] = []
        self.error: BaseException | None = None


class Settler:
    """Conclusion funnel plus the synchronous-raise wait table."""

    def __init__(self, cluster: "Cluster", events: "EventManager") -> None:
        #: the coordinator: its observer hooks are read at call time
        self.events = events
        self.cluster = cluster
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.kernels = cluster.kernels
        self.admission = events.admission
        self.sync_raise_timeout = cluster.config.sync_raise_timeout
        #: block id of the raise -> its blocked raiser
        self.waits: dict[int, SyncWait] = {}
        #: block id -> a degraded post sent from here, until its home
        #: node's ``degrade.done`` confirms it or its deadline notices it
        self.unconfirmed: dict[int, EventBlock] = {}
        #: posts that failed with a give-up, deadline, shed or crash loss
        self.undeliverable = 0
        #: the open-post table: block id -> a recipient block the route
        #: stage targeted, until its first conclusion (written by
        #: ``route.py`` and this module only)
        self.open: dict[int, EventBlock] = {}
        #: first conclusions by outcome
        self.outcomes = {EXECUTED: 0, NOTICED: 0, QUARANTINED: 0}
        #: durable blocks concluded with no open entry:
        #: ``(block, outcome, node, when)``
        self.doubles: list[tuple[EventBlock, str, int, float]] = []
        #: the nodes this cluster hosts when that is not all of them (a
        #: sharded worker): a post to another shard concludes there, so
        #: it is never opened here (matching it waits for the barrier)
        local = cluster.local_node_ids
        self.shard = (None if len(local) == cluster.config.n_nodes
                      else frozenset(local))
        for kernel in cluster.kernels.values():
            kernel.register_message_handler(MSG_RESUME, self._on_resume)
            kernel.register_message_handler(MSG_DEGRADE_DONE,
                                            self._on_degrade_done)

    # -- the funnel --

    def conclude(self, block: EventBlock, outcome: str, value: Any = None,
                 error: BaseException | None = None, node: int = 0, *,
                 target: Any = None, undeliverable: bool = True,
                 dead_letter: bool = False) -> bool:
        """Record the fate of ``block``, observed on ``node``; False if
        it had concluded already (the first conclusion wins: a thread
        that died mid-handler is not concluded again when its surrogate
        returns, nor a post by a deadline that fires after execution).

        ``EXECUTED``: the handler's ``value``/``error``. ``QUARANTINED``:
        ``value`` is the failure count, ``error`` the last failure, and
        ``node`` keeps the dead letter. ``NOTICED``: ``error`` is what
        the raiser (on ``node``) is told; ``target`` narrows the hook's
        recipient to one group member, ``undeliverable=False`` is the
        plain §7.2 dead target (the post stage counts those), and
        ``dead_letter`` keeps the block inspectable on ``node``.
        """
        charge = block._admission
        if charge is SETTLED:
            return False
        block._admission = SETTLED
        if charge is not None:
            self.admission.release(charge)
        durable_id = block.durable_id
        shard = self.shard
        # A block raised on another shard was numbered there: its id may
        # be that of a different post opened here.
        if ((shard is None or block.raiser_node in shard)
                and self.open.pop(block.block_id, None) is None
                and durable_id is not None and self.opened_here(block)):
            self.doubles.append((block, outcome, node, self.sim.now))
        self.outcomes[outcome] += 1
        if outcome == EXECUTED:
            if durable_id is not None:
                kernel = self.kernels.get(node)
                if kernel is not None:
                    kernel.store.post_executed(durable_id)
        elif outcome == QUARANTINED:
            kernel = self.kernels[node]
            self.events.supervisor.counters["quarantined"] += 1
            kernel.dead_letters.add(block, "poison", error=error,
                                    failures=value)
            if durable_id is not None:
                # Resolves the origin's outbox as quarantined, not
                # delivered.
                kernel.store.post_quarantined(durable_id)
            value, error = None, EventQuarantinedError(
                f"{block.event} -> {block.target} quarantined after "
                f"{value} failures")
        else:
            if durable_id is not None:
                # Only thread posts get here journaled (threads are
                # volatile: a durable post to a dead thread resolves by
                # this notice, never by redelivery); undeliverable
                # durable object posts park in the outbox instead.
                origin = self.kernels.get(durable_id[0])
                if origin is not None:
                    origin.store.resolve(durable_id, ENTRY_NOTICED)
            if undeliverable:
                self.undeliverable += 1
            kernel = self.kernels.get(node) if dead_letter else None
            if kernel is not None:
                cap = block.target
                self.events.supervisor.counters[
                    "dead_letter_undeliverable"] += 1
                kernel.dead_letters.add(
                    block, "undeliverable", journal=False,
                    error=f"object {cap.oid} on node {cap.home} unreachable")
            hook = self.events.on_undeliverable
            if hook is not None:
                hook(block, block.target if target is None else target)
        if block.degraded and outcome != NOTICED and node != block.raiser_node:
            # The home node's copy of a fire-and-forget post: one
            # best-effort datagram back, unreliable like the post.
            self.kernels[node].transmit_unreliable(Message(
                node, block.raiser_node, MSG_DEGRADE_DONE,
                {"block": block.block_id}, 32))
        if block.synchronous or error is not None:
            self._resume(block, value, error, node)
        return True

    def opened_here(self, block: EventBlock) -> bool:
        """Would the route stage have opened ``block`` in this table? On
        a shard, only if it was raised here to an object homed here or a
        thread rooted here (§7.1: a thread id encodes its root)."""
        shard, target = self.shard, block.target
        if shard is None:
            return True
        node = (target.home if isinstance(target, Capability)
                else target[0] if isinstance(target, tuple) else None)
        return block.raiser_node in shard and node in shard

    def audit(self) -> list[Violation]:
        """The standing invariant's breaches: ``Cluster.audit()``."""
        found = [Violation("concluded twice", block.block_id, block.event,
                           block.target, f"{outcome} again on node {node}",
                           when - block.raised_at)
                 for block, outcome, node, when in self.doubles]
        if self.sim.pending:
            return found
        now = self.sim.now
        for block in self.open.values():
            if block.delivered_at is None:
                found.append(Violation(
                    "open at idle", block.block_id, block.event,
                    block.target, self._stage(block), now - block.raised_at))
        return found

    def _stage(self, block: EventBlock) -> str:
        """Where an undelivered open post was last seen."""
        durable_id = block.durable_id
        if durable_id is not None:
            origin = self.kernels.get(durable_id[0])
            entry = (origin.store.outbox.get(durable_id)
                     if origin is not None else None)
            if entry is not None:
                return f"{entry.status} in node {durable_id[0]}'s outbox"
        target = block.target
        if isinstance(target, Capability):
            home = self.kernels.get(target.home)
            if home is not None and any(
                    queued[2] is block for queued in home.objects._queue):
                return f"queued at node {target.home}"
            return f"in flight to node {target.home}"
        for thread in self.cluster.live_threads.values():
            if block in thread.pending_notices:
                return f"queued for {thread.tid} on node {thread.current_node}"
        return f"locating from node {block.raiser_node}"

    def _on_degrade_done(self, message: Message) -> None:
        """A degraded post was concluded at its home: its deadline will
        not notice it, and the admission charge the origin kept for it
        goes back now."""
        block = self.unconfirmed.pop(message.payload["block"], None)
        if block is not None:
            charge, block._admission = block._admission, SETTLED
            if charge is not None:
                self.admission.release(charge)

    # -- blocked raisers --

    def open_wait(self, block: EventBlock,
                  complete: Callable[[Any, Any], None]) -> SyncWait:
        """Register the raiser of a synchronous ``block`` before it is
        routed; the caller sets ``remaining`` to the recipient count."""
        wait = self.waits[block.block_id] = SyncWait(
            complete, block.raiser_node, isinstance(block.target, GroupId))
        return wait

    def arm_timeout(self, block: EventBlock) -> None:
        """Guard a raise_and_wait against lost resumes (config knob)."""
        if self.sync_raise_timeout is not None:
            self.sim.call_after(self.sync_raise_timeout, self._expire,
                                block.block_id, block.event)

    def _expire(self, token: int, event: str) -> None:
        wait = self.waits.pop(token, None)
        if wait is None:
            return
        if "event" not in self.tracer.muted:
            self.tracer.emit("event", "sync-timeout", event=event)
        wait.complete(None, RpcTimeout(
            f"raise_and_wait({event}) saw no resume within "
            f"{self.sync_raise_timeout}s"))

    def resume_raiser(self, block: EventBlock, value: Any) -> None:
        """Handler-initiated early resume of a blocked raiser (§5.3).

        Not a conclusion: the chain is still running, and its end acks
        the store and returns the admission charge as usual."""
        # The handler runs somewhere in the cluster; charge the resume
        # from the raise's delivery node when known.
        node = (block.snapshot.node if block.snapshot is not None
                else block.raiser_node or 0)
        self._resume(block, value, None, node)
        # Mark so the chain's conclusion does not resume a second time.
        block.synchronous = False

    def _resume(self, block: EventBlock, value: Any,
                error: BaseException | None, node: int) -> None:
        if not block.synchronous:
            if error is not None:
                if "event" not in self.tracer.muted:
                    self.tracer.emit("event", "async-error", event=block.event,
                                     error=repr(error))
            return
        token = block._resume_token or block.block_id
        wait = self.waits.get(token)
        if wait is None:
            return
        if node == wait.node:
            self.sim.call_soon(self._arrive, token, value, error)
            return
        sender = self.cluster.kernels[node]
        if sender.crashed:
            # A handler that died in its node's crash: that node sends
            # nothing, so the raiser's node observes the crash, as an
            # RPC caller's does (Kernel.crash), and the wait fails.
            self.sim.call_soon(self._arrive, token, None, NodeCrashedError(
                f"node {node} crashed under the handler of {block.event}"))
            return
        sender.transmit(Message(
            node, wait.node, MSG_RESUME,
            {"token": token, "value": value, "error": error}, 96),
            on_give_up=lambda m: self._arrive(
                token, None, UndeliverableError(
                    f"resume for {block.event} undeliverable to "
                    f"node {wait.node}")))

    def _on_resume(self, message: Message) -> None:
        self._arrive(**message.payload)

    def _arrive(self, token: int, value: Any,
                error: BaseException | None) -> None:
        wait = self.waits.get(token)
        if wait is None:
            return
        wait.values.append(value)
        wait.remaining -= 1
        if error is not None:
            wait.error = error
        if wait.remaining > 0:
            return
        del self.waits[token]
        if wait.error is not None:
            wait.complete(None, wait.error)
        else:
            wait.complete(wait.values if wait.group else wait.values[0],
                          None)
