"""Per-node durability manager: the store subsystem's kernel-facing API.

One :class:`NodeStore` per kernel wires the write-ahead journal, the
outbox and the checkpoint protocol into the delivery path:

* **origin side** — posts are journaled before the first send
  (:meth:`journal_post`); a ``store.ack`` from the executing node or a
  §7.2 notice resolves them; give-ups park them for the self-quenching
  flush timer; a node recovery re-dispatches everything still pending.
* **receiver side** — durable posts are deduplicated against the
  journaled ``applied`` set (:meth:`accept_post`), marked applied
  atomically with the start of the handler run (:meth:`mark_applied`),
  and acknowledged to the origin after the handler completes: the acks
  a node owes one origin share a single ``store.ack`` per ``ack_delay``
  window, which the origin journals as one commit.
* **recovery** — :meth:`recover` loads the newest checkpoint, replays
  the journal tail (outbox, applied set, object-handler registry,
  missing objects), and reports the replay length so the kernel can
  charge recovery time before re-dispatching.

Everything is inert while ``config.durable_delivery`` is off: no journal
appends, no timers, no extra messages — the fault-free experiments keep
their exact message counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.net.message import Message
from repro.store.checkpoint import (
    CheckpointManager,
    restore_object,
    snapshot_object,
)
from repro.store.journal import (
    NodeJournal,
    REC_ACK,
    REC_APPLIED,
    REC_DEAD,
    REC_DEAD_REQUEUE,
    REC_POST,
    REC_REG,
    REC_UNAPPLIED,
    REC_UNREG,
)
from repro.store.outbox import (
    Ack,
    DELIVERED,
    NOTICED,
    Outbox,
    OutboxEntry,
    QUARANTINED,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.events.block import EventBlock
    from repro.kernel.node import Kernel

MSG_STORE_ACK = "store.ack"


class AppliedSnapshot:
    """Checkpoint-time view of the applied-post dedup set.

    Checkpoints used to freeze the whole set (``frozenset(applied)``).
    The applied set only ever grows over a run, so on a long durable
    run the copy at every checkpoint made checkpointing quadratic in
    total posts — the dominant cost left on the durable path. Each
    snapshot now chains to the previous checkpoint's and records only
    the entries marked (``added``) or retracted (``removed``) since —
    O(delta) per checkpoint. The full set is materialized only on the
    rare path that reads a checkpoint back (recovery replay). Snapshots
    are immutable once taken, so the history-isolation contract of the
    old frozenset copy is preserved.
    """

    __slots__ = ("base", "added", "removed")

    def __init__(self, base: "AppliedSnapshot | None",
                 added: frozenset, removed: frozenset) -> None:
        self.base = base
        self.added = added
        self.removed = removed

    def materialize(self) -> set:
        """Union of the whole chain, oldest delta first."""
        chain = []
        node: AppliedSnapshot | None = self
        while node is not None:
            chain.append(node)
            node = node.base
        result: set = set()
        for node in reversed(chain):
            result.update(node.added)
            if node.removed:
                result.difference_update(node.removed)
        return result

    def __iter__(self):
        # ``set(state["applied"])`` in recovery works unchanged.
        return iter(self.materialize())

    def __len__(self) -> int:
        return len(self.materialize())


class NodeStore:
    """Durability services for one node (see module docstring)."""

    def __init__(self, kernel: "Kernel", journal: NodeJournal) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.journal = journal
        self.outbox = Outbox(journal)
        self.checkpoints = CheckpointManager(  # off while durable is off
            journal, kernel.config.checkpoint_interval if self.enabled
            else None)
        #: receiver-side dedup: durable posts already executed here
        #: (journaled; this set is the in-memory cache of those records)
        self.applied: set[tuple[int, int]] = set()
        #: applied-set churn since the last checkpoint, feeding the
        #: incremental :class:`AppliedSnapshot` chain
        self._applied_base: AppliedSnapshot | None = None
        self._applied_added: set[tuple[int, int]] = set()
        self._applied_removed: set[tuple[int, int]] = set()
        #: receiver-side, volatile: durable posts sitting in the object
        #: event queue right now (suppresses concurrent duplicates)
        self._enqueued: set[tuple[int, int]] = set()
        #: receiver-side, volatile: ``(entry_id, status)`` acks owed to
        #: each origin and not yet handed to the channel. A crash loses
        #: them; the origin redelivers, ``applied`` dedups, and the
        #: duplicate is re-acked.
        self._owed: dict[int, list[Ack]] = {}
        #: origins with an ack window open (its flush is scheduled)
        self._ack_windows: dict[int, list] = {}
        self._flush_timer: int | None = None
        #: one row per recovery replay, reported by bench_durability
        self.recovery_log: list[dict[str, Any]] = []

    @property
    def enabled(self) -> bool:
        return self.kernel.config.durable_delivery

    # ==================================================================
    # origin side (outbox)
    # ==================================================================

    def journal_post(self, block: "EventBlock", kind: str,
                     dst: int | None = None) -> OutboxEntry:
        """Write-ahead: journal the post before its first send."""
        entry = self.outbox.record(block, kind, dst, self.sim.now)
        block.durable_id = entry.entry_id
        if self.journal.appends >= self.checkpoints.due_at:
            self.checkpoint()
        return entry

    def journal_post_batch(
            self, posts: list[tuple["EventBlock", str, int | None]],
    ) -> list[OutboxEntry]:
        """Write-ahead a fan-out of posts as one group commit."""
        entries = self.outbox.record_batch(posts, self.sim.now)
        for (block, _, _), entry in zip(posts, entries):
            block.durable_id = entry.entry_id
        if self.journal.appends >= self.checkpoints.due_at:
            self.checkpoint()
        return entries

    def resolve(self, entry_id: tuple[int, int], status: str) -> bool:
        """Handler-side ack (``delivered``) or §7.2 notice (``noticed``)."""
        return self.resolve_batch(((entry_id, status),)) == 1

    def resolve_batch(self, acks: Iterable[Ack]) -> int:
        """Retire every still-pending ``(entry_id, status)`` of ``acks``
        as one journal commit; returns how many that was."""
        retired = self.outbox.resolve_batch(acks)
        if self.journal.appends >= self.checkpoints.due_at:
            self.checkpoint()
        return retired

    def on_give_up(self, entry_id: tuple[int, int]) -> None:
        """The reliable channel exhausted its budget: park for redelivery."""
        if self.outbox.park(entry_id):
            self._arm_flush()

    def defer(self, entry_id: tuple[int, int]) -> None:
        """Admission control shed a durable post: park it *without* a
        first send. The journal already guarantees it; the flush timer
        (or the target's recovery announcement) delivers it once the
        overload passes."""
        if self.outbox.park(entry_id):
            self.outbox.deferred += 1
            self._arm_flush()

    def on_store_ack(self, message: Message) -> None:
        """Kernel dispatch entry for :data:`MSG_STORE_ACK`."""
        self.resolve_batch(message.payload["acks"])

    # ==================================================================
    # receiver side (applied-set dedup + acknowledgement)
    # ==================================================================

    def accept_post(self, entry_id: tuple[int, int]) -> bool:
        """Should an arriving durable post be executed here?

        False for duplicates: already concluded here (re-ack with the
        outcome this node recorded, in case the first ack was lost: its
        dead-letter queue still holds a quarantined post, until someone
        requeues it) or currently queued for execution.
        """
        if entry_id in self.applied:
            # (an applied entry is never in ``_enqueued``)
            quarantined = self.kernel.dead_letters.holds(entry_id)
            self.post_executed(
                entry_id, QUARANTINED if quarantined else DELIVERED)
            return False
        if entry_id in self._enqueued:
            return False
        self._enqueued.add(entry_id)
        return True

    def mark_applied(self, entry_id: tuple[int, int]) -> None:
        """Journal the execution marker.

        Must be called atomically with the start of the handler run (no
        yield between them): a crash before it means redelivery re-runs
        the handler, a crash after it means redelivery is suppressed —
        either way the run counts exactly once.
        """
        if entry_id in self.applied:
            return
        self.applied.add(entry_id)
        self._applied_added.add(entry_id)
        self._applied_removed.discard(entry_id)
        self._enqueued.discard(entry_id)
        self.journal.append(REC_APPLIED, {"entry_id": entry_id})
        if self.journal.appends >= self.checkpoints.due_at:
            self.checkpoint()

    def unmark_applied(self, entry_id: tuple[int, int]) -> None:
        """Retract the execution marker: the handler run *failed* and the
        supervision policy is about to retry it locally.

        Journaled, so a crash during the retry backoff makes the origin's
        redelivery re-run the handler instead of being suppressed — the
        failed run completed no effects to double. ``_enqueued`` keeps
        suppressing concurrent duplicates while the retry is pending.
        """
        if entry_id not in self.applied:
            return
        self.applied.discard(entry_id)
        self._applied_removed.add(entry_id)
        self._applied_added.discard(entry_id)
        self._enqueued.add(entry_id)
        self.journal.append(REC_UNAPPLIED, {"entry_id": entry_id})
        if self.journal.appends >= self.checkpoints.due_at:
            self.checkpoint()

    def post_executed(self, entry_id: tuple[int, int],
                      status: str = DELIVERED) -> None:
        """The post concluded here (``status``): owe its origin the ack.
        The first of a window schedules the flush ``ack_delay`` later
        (0: this instant)."""
        self._enqueued.discard(entry_id)
        origin = entry_id[0]
        if origin == self.kernel.node_id:
            self.resolve(entry_id, status)
            return
        self._owed.setdefault(origin, []).append((entry_id, status))
        if origin not in self._ack_windows:
            self._ack_windows[origin] = self.sim.call_after(
                self.kernel.config.ack_delay, self._flush_acks, origin)

    def post_quarantined(self, entry_id: tuple[int, int]) -> None:
        """The post was dead-lettered here: ack so the origin stops
        redelivering, resolved as ``quarantined`` rather than
        ``delivered``.

        The applied marker is journaled (if not already, e.g. by the
        failed run's own :meth:`mark_applied`): if this node crashes
        before the origin processes the ack, the recovery redelivery
        must be suppressed — the post's outcome is quarantine, not a
        fresh execution.
        """
        if entry_id not in self.applied:
            self.applied.add(entry_id)
            self._applied_added.add(entry_id)
            self._applied_removed.discard(entry_id)
            self.journal.append(REC_APPLIED, {"entry_id": entry_id})
            if self.journal.appends >= self.checkpoints.due_at:
                self.checkpoint()
        self.post_executed(entry_id, QUARANTINED)

    def _flush_acks(self, origin: int) -> None:
        """Send everything owed to ``origin`` as one ``store.ack``."""
        window = self._ack_windows.pop(origin, None)
        # spent (``window[3] is None``) when the window's own timer runs
        # this, and cancelling a spent handle is a no-op frame
        if window is not None and window[3] is not None:
            self.sim.cancel(window)
        acks = self._owed.pop(origin, None)
        if not acks:
            return
        # A lost batch heals by itself only while the origin still
        # redelivers (applied-set dedup, re-ack); once its posts were
        # transport-acked nothing else would, hence the give-up hook.
        self.kernel.transmit(Message(
            self.kernel.node_id, origin, MSG_STORE_ACK, {"acks": acks},
            32 + 16 * len(acks)),
            on_give_up=self._acks_gave_up)

    def _acks_gave_up(self, message: Message) -> None:
        """The channel spent its budget on a batch: the acks are owed
        again and wait for the flush timer, a recovery announcement from
        the origin, or the next window toward it."""
        self._owed.setdefault(message.dst, [])[:0] = message.payload["acks"]
        self._arm_flush()

    # ==================================================================
    # persistent object-handler registry (journal hooks)
    # ==================================================================

    def journal_registration(self, oid: int, event: str,
                             fn_name: str) -> None:
        self.journal.append(REC_REG, {"oid": oid, "event": event,
                                      "fn_name": fn_name})
        if self.journal.appends >= self.checkpoints.due_at:
            self.checkpoint()

    def journal_unregistration(self, oid: int, event: str) -> None:
        self.journal.append(REC_UNREG, {"oid": oid, "event": event})
        if self.journal.appends >= self.checkpoints.due_at:
            self.checkpoint()

    # ==================================================================
    # dead-letter quarantine (journal hooks)
    # ==================================================================

    def journal_dead_letter(self, dead) -> None:
        """Durably record a block entering the dead-letter queue."""
        self.journal.append(REC_DEAD, {
            "dl_id": dead.dl_id, "block": dead.block, "reason": dead.reason,
            "error": dead.error, "failures": dead.failures, "at": dead.at})
        if self.journal.appends >= self.checkpoints.due_at:
            self.checkpoint()

    def journal_dead_requeue(self, dl_id: int) -> None:
        """Durably record a dead letter leaving the queue (requeued)."""
        self.journal.append(REC_DEAD_REQUEUE, {"dl_id": dl_id})
        if self.journal.appends >= self.checkpoints.due_at:
            self.checkpoint()

    # ==================================================================
    # checkpointing
    # ==================================================================

    def checkpoint(self) -> int:
        """Snapshot durable state, journal it, truncate the prefix."""
        dropped = self.checkpoints.take(self._collect_state())
        if "store" not in self.kernel.tracer.muted:
            self.kernel.tracer.emit("store", "checkpoint",
                                    node=self.kernel.node_id, dropped=dropped)
        return dropped

    def _collect_state(self) -> dict[str, Any]:
        manager = self.kernel.objects
        # Chain a delta snapshot off the previous checkpoint's and reset
        # the trackers: the caller (checkpoint) always journals this
        # state, so the new snapshot becomes the next chain base.
        applied = AppliedSnapshot(self._applied_base,
                                  frozenset(self._applied_added),
                                  frozenset(self._applied_removed))
        self._applied_base = applied
        self._applied_added.clear()
        self._applied_removed.clear()
        return {
            # entries are copied so later mutation cannot rewrite history
            "pending": [entry.clone() for entry in self.outbox.pending()],
            "applied": applied,
            "registrations": manager.handlers.entries(),
            "objects": {oid: snapshot_object(manager.get(oid))
                        for oid in manager.oids()},
            "dead_letters": self.kernel.dead_letters.snapshot(),
        }

    # ==================================================================
    # crash / recovery
    # ==================================================================

    def on_crash(self) -> None:
        """Memory is gone; the journal (the durable medium) survives."""
        if self._flush_timer is not None:
            self.kernel.timers.cancel(self._flush_timer)
            self._flush_timer = None
        self._enqueued.clear()
        self._owed.clear()
        for window in self._ack_windows.values():
            self.sim.cancel(window)
        self._ack_windows.clear()
        self.applied.clear()
        self._applied_base = None
        self._applied_added.clear()
        self._applied_removed.clear()
        self.outbox.restore([])

    def recover(self) -> tuple[int, float]:
        """Replay the journal; returns (records replayed, time to charge).

        Rebuilds the outbox pending index, the applied set, and the
        object-handler registry; objects recorded in the checkpoint but
        missing from memory are reconstructed from their snapshots.
        """
        if not self.enabled:
            return 0, 0.0
        manager = self.kernel.objects
        state, tail = self.journal.replay()
        restored_objects = 0
        if state is not None:
            self.applied = set(state["applied"])
            self.outbox.restore([entry.clone()
                                 for entry in state["pending"]])
            manager.handlers.restore(state["registrations"])
            self.kernel.dead_letters.restore(state.get("dead_letters", ()))
            for oid, snapshot in state["objects"].items():
                if manager.get(oid) is None:
                    manager.adopt(restore_object(snapshot))
                    restored_objects += 1
        for record in tail:
            if record.rtype in (REC_POST, REC_ACK):
                self.outbox.apply_record(record)
            elif record.rtype == REC_APPLIED:
                self.applied.add(record.data["entry_id"])
            elif record.rtype == REC_UNAPPLIED:
                self.applied.discard(record.data["entry_id"])
            elif record.rtype == REC_REG:
                manager.handlers.register(record.data["oid"],
                                          record.data["event"],
                                          record.data["fn_name"])
            elif record.rtype == REC_UNREG:
                manager.handlers.unregister(record.data["oid"],
                                            record.data["event"])
            elif record.rtype == REC_DEAD:
                self.kernel.dead_letters.replay_add(record.data)
            elif record.rtype == REC_DEAD_REQUEUE:
                self.kernel.dead_letters.replay_remove(
                    record.data["dl_id"])
        self.outbox.park_all()
        # Re-baseline the snapshot chain: the tail replay mutated the
        # applied set outside the delta trackers, so the next checkpoint
        # must capture the full recovered set (O(n) once per recovery).
        self._applied_base = None
        self._applied_added = set(self.applied)
        self._applied_removed = set()
        replayed = len(tail) + (1 if state is not None else 0)
        recovery_time = replayed * self.kernel.config.replay_cost
        self.recovery_log.append({
            "at": self.sim.now, "replayed": replayed,
            "recovery_time": recovery_time,
            "restored_objects": restored_objects,
            "pending_redelivery": len(self.outbox),
            "registrations": len(manager.handlers),
        })
        return replayed, recovery_time

    def schedule_redelivery(self, delay: float) -> None:
        """After the charged replay time: re-dispatch everything pending
        from this node and tell the cluster so peers flush entries
        addressed here."""

        def redeliver() -> None:
            if self.kernel.crashed:
                return  # crashed again before replay time elapsed
            for entry in self.outbox.pending():
                self._dispatch(entry)
            self.kernel.cluster.node_recovered(self.kernel.node_id)

        if delay > 0:
            self.sim.call_after(delay, redeliver)
        else:
            self.sim.call_soon(redeliver)

    # ==================================================================
    # redelivery (flush timer + recovery announcements)
    # ==================================================================

    def flush_to(self, dst: int) -> int:
        """A peer recovered: re-dispatch every pending entry bound for it
        (in-flight ones included — anything queued there died with it)
        and send the acks owed to it."""
        entries = self.outbox.pending_for(dst)
        for entry in entries:
            self._dispatch(entry)
        self._flush_acks(dst)
        return len(entries)

    def _dispatch(self, entry: OutboxEntry) -> None:
        self.outbox.mark_dispatched(entry)
        self.kernel.events.post.redeliver_entry(self.kernel.node_id, entry)

    def _arm_flush(self) -> None:
        interval = self.kernel.config.outbox_flush_interval
        if not self.enabled or interval is None or self.kernel.crashed:
            return
        if self._flush_timer is None:
            self._flush_timer = self.kernel.timers.set(
                interval, self._flush_tick)

    def _flush_tick(self) -> None:
        self._flush_timer = None
        if self.kernel.crashed:
            return
        skipped = False
        membership = self.kernel.membership
        for entry in self.outbox.parked():
            # Futile-retransmit guard: re-dispatching toward a peer the
            # failure detector currently suspects would burn the full
            # max_retransmits budget against a dead node every flush
            # period. Skip it and re-arm; the recovery announcement (or
            # the suspicion clearing before the next tick) delivers.
            if entry.dst is not None and membership.is_failed(entry.dst):
                self.outbox.flush_skips += 1
                skipped = True
                continue
            self._dispatch(entry)
        for origin in sorted(self._owed):
            if origin in self._ack_windows:
                continue  # goes out with its window
            if membership.is_failed(origin):
                self.outbox.flush_skips += 1
                skipped = True
                continue
            self._flush_acks(origin)
        if skipped:
            self._arm_flush()
        # Otherwise no immediate re-arm: a later give-up parks and
        # re-arms; this keeps the simulation quiescent once everything
        # resolves.

    # ==================================================================
    # reporting
    # ==================================================================

    def stats(self) -> dict[str, int]:
        """This manager's own counters; its journal's and outbox's are
        their ``stats()`` (``Cluster.durability_stats`` joins all three)."""
        stats = {"checkpoints": self.checkpoints.taken,
                 "applied": len(self.applied),
                 "recoveries": len(self.recovery_log)}
        acks_owed = sum(len(acks) for acks in self._owed.values())
        if acks_owed:
            # Nonzero-gated like the outbox's ``parked``: a run read
            # inside an ack window says why ``pending`` is not 0 yet.
            stats["acks_owed"] = acks_owed
        return stats


__all__ = ["MSG_STORE_ACK", "NodeStore", "DELIVERED", "NOTICED",
           "QUARANTINED"]
