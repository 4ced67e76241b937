"""Transactional outbox: journaled posts pending handler-side ack.

Classic outbox-pattern redelivery adapted to the event fabric: every
durable post is journaled at its origin *before* the first send and
stays pending until the executing side acknowledges handler completion
(``store.ack``) or the raiser receives the §7.2 notice. Pending entries
are re-dispatched through the ReliableChannel when a node recovers (its
in-flight sends died with it, and posts queued on a crashed receiver
were lost from its volatile queues) and by a self-quenching flush timer
after a give-up. Receiver-side dedup (the journaled ``applied`` set plus
the per-thread block window) makes redelivery exactly-once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.store.journal import NodeJournal, REC_ACK, REC_POST

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.events.block import EventBlock

#: Entry lifecycle. IN_FLIGHT entries ride the reliable channel's
#: retransmission; PARKED ones exhausted it (or were voided by a crash)
#: and wait for the flush timer or a recovery announcement.
IN_FLIGHT = "in-flight"
PARKED = "parked"
DELIVERED = "delivered"
NOTICED = "noticed"
QUARANTINED = "quarantined"

#: one acknowledgement: ``(entry_id, resolved status)``
Ack = tuple[tuple[int, int], str]


@dataclass(slots=True)
class OutboxEntry:
    """One journaled post awaiting its handler-side acknowledgement.

    ``slots=True``: every checkpoint copies the whole pending set, so
    the per-instance dict and the generic ``dataclasses.replace`` were
    measurable on the durable path — copies go through :meth:`clone`.
    """

    entry_id: tuple[int, int]       #: (origin node, per-origin sequence)
    block: "EventBlock"
    kind: str                       #: "object" or "thread"
    dst: int | None                 #: home node for object posts
    status: str = IN_FLIGHT
    created_at: float = 0.0
    attempts: int = 1
    redeliveries: int = 0
    lsn: int = field(default=0, repr=False)

    @property
    def resolved(self) -> bool:
        return self.status in (DELIVERED, NOTICED, QUARANTINED)

    def clone(self) -> "OutboxEntry":
        """Field-for-field shallow copy (checkpoint/restore isolation).

        ``dataclasses.replace`` re-runs ``__init__`` through kwargs
        plumbing; this straight-line copy is ~4x cheaper and the
        checkpoint path takes one per pending entry.
        """
        entry = object.__new__(OutboxEntry)
        entry.entry_id = self.entry_id
        entry.block = self.block
        entry.kind = self.kind
        entry.dst = self.dst
        entry.status = self.status
        entry.created_at = self.created_at
        entry.attempts = self.attempts
        entry.redeliveries = self.redeliveries
        entry.lsn = self.lsn
        return entry


class Outbox:
    """Origin-side pending index over one node's journal.

    The journal is the durable truth; this index is the in-memory view a
    real implementation would keep alongside it. It is rebuilt from the
    journal by recovery replay (:meth:`restore` + :meth:`apply_record`).
    """

    def __init__(self, journal: NodeJournal) -> None:
        self.journal = journal
        self._next_seq = 0
        self._pending: dict[tuple[int, int], OutboxEntry] = {}
        self.recorded = 0
        self.delivered = 0
        self.noticed = 0
        self.quarantined = 0
        self.redelivered = 0
        #: posts parked straight from admission control (never sent yet)
        self.deferred = 0
        #: flush-tick re-dispatches skipped because the destination was
        #: suspected by the failure detector (futile-retransmit guard)
        self.flush_skips = 0

    def __len__(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def record(self, block: "EventBlock", kind: str, dst: int | None,
               now: float) -> OutboxEntry:
        """Journal a new post (write-ahead: call before the first send)."""
        self._next_seq += 1
        entry_id = (self.journal.node_id, self._next_seq)
        entry = object.__new__(OutboxEntry)  # as clone(): no __init__
        entry.entry_id, entry.block, entry.kind, entry.dst = (
            entry_id, block, kind, dst)
        entry.status, entry.created_at, entry.attempts = IN_FLIGHT, now, 1
        entry.redeliveries = 0
        entry.lsn = self.journal.append(REC_POST, {
            "entry_id": entry_id, "kind": kind, "dst": dst,
            "event": block.event, "block": block}).lsn
        self._pending[entry_id] = entry
        self.recorded += 1
        return entry

    def record_batch(self, posts: list[tuple["EventBlock", str, int | None]],
                     now: float) -> list[OutboxEntry]:
        """Journal ``(block, kind, dst)`` posts as **one commit unit**.

        Group-commit for fan-out: a group-target post journals one
        ``post`` record per member block, but the whole fan-out is a
        single commit (:meth:`NodeJournal.append_batch`). Entry ids and
        LSNs are assigned exactly as consecutive :meth:`record` calls
        would assign them, so recovery replay is indistinguishable.
        """
        entries = []
        ops = []
        for block, kind, dst in posts:
            self._next_seq += 1
            entry_id = (self.journal.node_id, self._next_seq)
            entries.append(OutboxEntry(entry_id=entry_id, block=block,
                                       kind=kind, dst=dst, created_at=now))
            ops.append((REC_POST, {"entry_id": entry_id, "kind": kind,
                                   "dst": dst, "event": block.event,
                                   "block": block}))
        for entry, record in zip(entries, self.journal.append_batch(ops)):
            entry.lsn = record.lsn
            self._pending[entry.entry_id] = entry
            self.recorded += 1
        return entries

    def resolve_batch(self, acks: Iterable[Ack]) -> int:
        """Journal the ``(entry_id, status)`` acks of entries still
        pending as **one commit unit** and retire them; returns how many.

        Acks of entries already retired (a re-ack that crossed the first
        one, a fabric duplicate) are skipped: each entry's ``ack`` record
        is journaled once.
        """
        ops = []
        for entry_id, status in acks:
            entry = self._pending.pop(entry_id, None)
            if entry is None:
                continue
            entry.status = status
            ops.append((REC_ACK, {"entry_id": entry_id, "status": status}))
            if status == DELIVERED:
                self.delivered += 1
            elif status == QUARANTINED:
                self.quarantined += 1
            else:
                self.noticed += 1
        self.journal.append_batch(ops)
        return len(ops)

    def park(self, entry_id: tuple[int, int]) -> bool:
        """The reliable send gave up; hold the entry for redelivery."""
        entry = self._pending.get(entry_id)
        if entry is None:
            return False
        entry.status = PARKED
        return True

    def mark_dispatched(self, entry: OutboxEntry) -> None:
        """The entry was re-handed to the channel.

        Only redelivery paths call this — the first send happens right
        after :meth:`record` — so every call counts as a redelivery,
        whether the entry was parked (give-up) or still nominally
        in-flight (flushed to a recovering node that lost it).
        """
        entry.redeliveries += 1
        self.redelivered += 1
        entry.status = IN_FLIGHT
        entry.attempts += 1

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def get(self, entry_id: tuple[int, int]) -> OutboxEntry | None:
        return self._pending.get(entry_id)

    def pending(self) -> list[OutboxEntry]:
        """All unresolved entries, in journal order."""
        return [self._pending[k] for k in sorted(self._pending)]

    def parked(self) -> list[OutboxEntry]:
        return [e for e in self.pending() if e.status == PARKED]

    def pending_for(self, dst: int) -> list[OutboxEntry]:
        """Unresolved entries addressed to ``dst`` (crash-voided or not:
        a recovered destination gets everything re-dispatched; dedup on
        the receiver keeps that safe)."""
        return [e for e in self.pending() if e.dst == dst]

    # ------------------------------------------------------------------
    # recovery replay
    # ------------------------------------------------------------------

    def restore(self, entries: list[OutboxEntry]) -> None:
        """Reset the index to a checkpoint's pending set."""
        self._pending = {e.entry_id: e for e in entries}
        for entry in entries:
            self._next_seq = max(self._next_seq, entry.entry_id[1])

    def apply_record(self, record: Any) -> None:
        """Roll one journal record forward during replay."""
        if record.rtype == REC_POST:
            entry_id = record.data["entry_id"]
            entry = OutboxEntry(entry_id=entry_id,
                                block=record.data["block"],
                                kind=record.data["kind"],
                                dst=record.data["dst"], status=PARKED,
                                lsn=record.lsn)
            self._pending[entry_id] = entry
            self._next_seq = max(self._next_seq, entry_id[1])
        elif record.rtype == REC_ACK:
            self._pending.pop(record.data["entry_id"], None)

    def park_all(self) -> None:
        """A crash voided every in-flight send: hold them for recovery."""
        for entry in self._pending.values():
            entry.status = PARKED

    def stats(self) -> dict[str, int]:
        stats = {"recorded": self.recorded, "delivered": self.delivered,
                 "noticed": self.noticed,
                 "redelivered": self.redelivered,
                 "pending": len(self._pending)}
        if self.quarantined:
            # Key present only when quarantines happened: stats dicts
            # (and digests built from them) are unchanged for runs that
            # never hit the dead-letter path.
            stats["quarantined"] = self.quarantined
        # Same nonzero gating for the overload-control counters: runs
        # that never shed/defer/skip keep the exact pre-change shape.
        parked = sum(1 for e in self._pending.values()
                     if e.status == PARKED)
        if parked:
            stats["parked"] = parked
        if self.deferred:
            stats["deferred"] = self.deferred
        if self.flush_skips:
            stats["flush_skips"] = self.flush_skips
        return stats
