"""Per-node append-only write-ahead journals (the durable medium).

The paper's objects are *passive and persistent* (§2) and object-based
handlers stay armed "while the object persists" (§5) — but everything a
kernel holds in memory is volatile and dies with the node. This module
provides the simulated durable medium underneath the
:mod:`repro.store` subsystem: one append-only journal per node, owned by
the cluster-level :class:`ClusterStore` so that
:meth:`repro.kernel.node.Kernel.crash` cannot touch it. Recovery replays
the journal to rebuild the node's durable state (outbox, applied-post
dedup set, object-handler registry, object snapshots).

Record types
------------
``post``
    An event post journaled at its origin before the first send (the
    write-ahead rule); stays pending until an ``ack`` resolves it.
``ack``
    Origin-side resolution of a ``post``: the handler side acknowledged
    execution (``status="delivered"``) or the raiser got the §7.2 notice
    (``status="noticed"``).
``applied``
    Receiver-side execution marker, journaled atomically with the start
    of the handler run so redelivered duplicates are suppressed.
``reg`` / ``unreg``
    Object-based handler (de)registration in the persistent registry.
``dead`` / ``dead-requeue``
    Dead-letter quarantine: a poison or undeliverable block entered the
    node's :class:`~repro.events.supervise.DeadLetterQueue` (``dead``)
    or was taken back out for requeue (``dead-requeue``). Replayed on
    recovery so quarantined blocks survive the node.
``checkpoint``
    A state snapshot (outbox, applied set, registry, object states);
    everything before it is truncated, bounding replay length.
"""

from __future__ import annotations

import sys
from collections import deque
from itertools import islice
from typing import Any, Iterator

from repro.errors import KernelError

REC_POST = "post"
REC_ACK = "ack"
REC_APPLIED = "applied"
REC_UNAPPLIED = "unapplied"
REC_REG = "reg"
REC_UNREG = "unreg"
REC_DEAD = "dead"
REC_DEAD_REQUEUE = "dead-requeue"
REC_CHECKPOINT = "checkpoint"

#: Simulated on-medium record sizes in bytes (fixed per type so byte
#: accounting is deterministic without serialising simulation objects).
RECORD_SIZES = {
    REC_POST: 160,
    REC_ACK: 48,
    REC_APPLIED: 48,
    REC_UNAPPLIED: 48,
    REC_REG: 64,
    REC_UNREG: 48,
    REC_DEAD: 160,
    REC_DEAD_REQUEUE: 48,
    REC_CHECKPOINT: 512,
}

#: ``rtype -> (canonical interned rtype, size)``: one dict probe in the
#: append hot path both validates the type and hands back the interned
#: string to store, so downstream ``record.rtype == REC_POST`` checks
#: hit CPython's pointer-equality fast path.
_RTYPE_INFO = {name: (sys.intern(name), size)
               for name, size in RECORD_SIZES.items()}


class JournalRecord:
    """One appended record: a log sequence number, a type, and data.

    A ``__slots__`` class rather than a frozen dataclass: the durable
    path mints one of these per journaled operation (~3 per post), so
    the dataclass ``__init__`` indirection and per-instance dict were
    measurable churn on the durable path (``NodeJournal.append`` skips
    even this ``__init__``). A record is never reused: one a caller
    still holds after truncation keeps its fields.
    """

    __slots__ = ("lsn", "rtype", "data", "size")

    def __init__(self, lsn: int, rtype: str,
                 data: dict[str, Any] | None = None, size: int = 0) -> None:
        self.lsn = lsn
        self.rtype = rtype
        self.data = {} if data is None else data
        self.size = size

    def __repr__(self) -> str:
        return (f"JournalRecord(lsn={self.lsn!r}, rtype={self.rtype!r}, "
                f"data={self.data!r}, size={self.size!r})")


class NodeJournal:
    """Append-only write-ahead log for one node.

    Appends are totally ordered by LSN. The journal survives
    :meth:`Kernel.crash` by construction (it lives in the cluster-level
    store, not in kernel memory); truncation is only ever performed by
    the checkpoint protocol, which first writes a ``checkpoint`` record
    covering the dropped prefix.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        # Append-only with prefix truncation: a deque gives O(1) appends,
        # and a checkpoint keeps only the short suffix after its own
        # record, so truncation copies little.
        self._records: deque[JournalRecord] = deque()
        #: the newest ``checkpoint`` record, indexed at append time so
        #: recovery never scans for it
        self._checkpoint_rec: JournalRecord | None = None
        #: records appended, and so the newest LSN: LSNs run from 1
        self.appends = 0
        self.bytes_appended = 0
        #: commit units: one per :meth:`append`, one per whole
        #: :meth:`append_batch` — the group-commit win is this counter
        #: growing slower than ``appends``
        self.commits = 0
        self.truncations = 0
        self.records_truncated = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[JournalRecord]:
        return iter(self._records)

    def append(self, rtype: str, data: dict[str, Any], /) -> JournalRecord:
        """Durably append one record as one commit; returns it with its
        LSN assigned. ``data`` is the record's own dict (the caller's
        literal, not a copy). One of the two places a record is stamped,
        with no ``__init__`` frame: a durable post journals about
        three."""
        info = _RTYPE_INFO.get(rtype)
        if info is None:
            raise KernelError(f"unknown journal record type {rtype!r}")
        rtype, size = info
        record = object.__new__(JournalRecord)
        record.lsn = self.appends = self.appends + 1
        record.rtype = rtype
        record.data = data
        record.size = size
        self._records.append(record)
        self.bytes_appended += size
        self.commits += 1
        if rtype is REC_CHECKPOINT:  # the interned name (_RTYPE_INFO)
            self._checkpoint_rec = record
        return record

    def append_batch(
            self, ops: list[tuple[str, dict[str, Any]]]) -> list[JournalRecord]:
        """Append ``(rtype, data)`` records as **one commit unit**.

        Group-commit: the records get consecutive LSNs and identical
        durability (all-or-nothing on the simulated medium), but the
        whole batch costs a single commit — the analogue of one fsync
        for a batch of writes. An empty batch is a no-op, not a commit.
        Each record is stamped here as :meth:`append` stamps one, out of
        reach of a wrapper installed on ``append`` (E17's tracer counts
        single appends), and none is appended unless every type is
        known.
        """
        if not ops:
            return []
        lsn, stamped, records, checkpoint = self.appends, 0, [], None
        for rtype, data in ops:
            info = _RTYPE_INFO.get(rtype)
            if info is None:
                raise KernelError(f"unknown journal record type {rtype!r}")
            rtype, size = info
            record = object.__new__(JournalRecord)
            lsn += 1
            record.lsn = lsn
            record.rtype = rtype
            record.data = data
            record.size = size
            records.append(record)
            stamped += size
            if rtype is REC_CHECKPOINT:
                checkpoint = record
        self.appends = lsn
        self._records.extend(records)
        self.bytes_appended += stamped
        self.commits += 1
        if checkpoint is not None:
            self._checkpoint_rec = checkpoint
        return records

    # ------------------------------------------------------------------
    # recovery scan
    # ------------------------------------------------------------------

    def latest_checkpoint(self) -> JournalRecord | None:
        """The newest ``checkpoint`` record still in the log, or None."""
        return self._checkpoint_rec

    def tail(self) -> list[JournalRecord]:
        """Records after the newest checkpoint (the replay suffix).

        LSNs are consecutive up to ``appends``, so the suffix is exactly
        the newest ``appends - checkpoint.lsn`` records — O(tail), not
        the old O(retained) list comprehension over the whole log.
        """
        checkpoint = self._checkpoint_rec
        if checkpoint is None:
            return list(self._records)
        count = self.appends - checkpoint.lsn
        if not count:
            return []
        suffix = list(islice(reversed(self._records), count))
        suffix.reverse()
        return suffix

    def replay(self) -> tuple[dict[str, Any] | None, list[JournalRecord]]:
        """(latest checkpoint state or None, records to replay after it)."""
        checkpoint = self.latest_checkpoint()
        state = checkpoint.data["state"] if checkpoint is not None else None
        return state, self.tail()

    # ------------------------------------------------------------------
    # truncation (checkpoint protocol only)
    # ------------------------------------------------------------------

    def truncate_before(self, lsn: int) -> int:
        """Drop every record with ``lsn`` strictly below the given one.

        Returns how many records were dropped. Called by the checkpoint
        manager right after it appended the covering checkpoint record.
        LSNs are consecutive, so the drop set is the first
        ``lsn - head.lsn`` records, cut off in one slice.
        """
        records = self._records
        dropped = (max(0, min(len(records), lsn - records[0].lsn))
                   if records else 0)
        if dropped:
            self._records = deque(islice(records, dropped, None))
            self.truncations += 1
            self.records_truncated += dropped
        if (self._checkpoint_rec is not None
                and self._checkpoint_rec.lsn < lsn):
            # Defensive: the protocol never truncates past its own
            # checkpoint record, but don't hand out a dropped one.
            self._checkpoint_rec = None  # pragma: no cover
        return dropped

    def stats(self) -> dict[str, int]:
        return {"appends": self.appends,
                "commits": self.commits,
                "bytes_appended": self.bytes_appended,
                "retained": len(self._records),
                "truncations": self.truncations,
                "records_truncated": self.records_truncated}


class ClusterStore:
    """The cluster's durable media: one :class:`NodeJournal` per node.

    Owned by the :class:`~repro.kernel.boot.Cluster`, never by a kernel,
    so a node crash cannot lose it — exactly like a disk that survives
    the machine rebooting.
    """

    def __init__(self) -> None:
        self._journals: dict[int, NodeJournal] = {}

    def journal(self, node_id: int) -> NodeJournal:
        journal = self._journals.get(node_id)
        if journal is None:
            journal = self._journals[node_id] = NodeJournal(node_id)
        return journal
