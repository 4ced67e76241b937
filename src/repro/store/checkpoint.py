"""Checkpoint/truncation protocol: bound replay length and recovery time.

A checkpoint snapshots the node's durable state — pending outbox
entries, the applied-post dedup set, the persistent object-handler
registry, and per-object state snapshots — into a single journal record,
then truncates the log prefix it covers. Recovery loads the newest
checkpoint and replays only the records after it, so recovery time
scales with the checkpoint interval instead of with history length
(``bench_durability.py`` sweeps exactly that trade-off: tighter
intervals buy shorter replay at the price of more checkpoint bytes).
"""

from __future__ import annotations

import copy
from math import inf
from typing import TYPE_CHECKING, Any

from repro.store.journal import NodeJournal, REC_CHECKPOINT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.objects.base import DistObject


def snapshot_object(obj: "DistObject") -> dict[str, Any]:
    """Copy an object's identity and user-visible state for a checkpoint.

    Private machinery (placement, DSM segment) is reconstructed on
    restore; only public attributes — the object's persistent state in
    the §2 sense — are deep-copied onto the simulated durable medium.
    """
    state = {name: copy.deepcopy(value)
             for name, value in vars(obj).items()
             if not name.startswith("_")}
    return {"cls": type(obj), "oid": obj.oid, "home": obj.home,
            "transport": obj.transport, "state": state}


def restore_object(snapshot: dict[str, Any]) -> "DistObject":
    """Rebuild a :class:`DistObject` instance from a checkpoint snapshot.

    Used when recovery finds an object recorded in the checkpoint but
    missing from memory (simulated media loss); ``__init__`` is bypassed
    because the snapshot already carries the constructed state.
    """
    from repro.objects.base import DistObject

    cls = snapshot["cls"]
    obj = cls.__new__(cls)
    DistObject.__init__(obj)
    obj._oid = snapshot["oid"]
    obj._place(snapshot["home"], snapshot["transport"])
    for name, value in snapshot["state"].items():
        setattr(obj, name, copy.deepcopy(value))
    return obj


class CheckpointManager:
    """Decides when to checkpoint and performs the write + truncation.

    ``interval`` counts journal appends between automatic checkpoints
    (None disables automatic checkpointing; explicit :meth:`take` calls
    still work). Checkpoint records themselves do not count toward the
    interval, so ``interval=N`` means one checkpoint per N payload
    records regardless of how large the state snapshot is. The store
    tests ``journal.appends >= due_at`` inline after each journaled
    operation, so a group-committed batch counts its records.
    """

    def __init__(self, journal: NodeJournal,
                 interval: int | None = None) -> None:
        self.journal = journal
        self.interval = interval
        self.taken = 0
        self._rearm()

    def _rearm(self) -> None:
        """Due ``interval`` payload records after the last checkpoint."""
        self.due_at = (inf if self.interval is None
                       else self.journal.appends + self.interval)

    def take(self, state: dict[str, Any]) -> int:
        """Write a checkpoint covering ``state``; truncate the prefix.

        Returns the number of truncated records.
        """
        record = self.journal.append(REC_CHECKPOINT, {"state": state})
        dropped = self.journal.truncate_before(record.lsn)
        self._rearm()
        self.taken += 1
        return dropped
