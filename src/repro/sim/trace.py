"""Structured trace recording for simulations.

Every interesting action in the simulated cluster (message send/receive,
invocation, event raise/delivery, handler execution, page fault, …) is
recorded as a :class:`TraceRecord`. Traces serve three purposes:

* tests assert on exact sequences (determinism, delivery order);
* experiment E7 compares handler-execution traces across transports;
* benchmarks derive message counts and latencies from them.
"""

from __future__ import annotations

from collections import deque
from itertools import count, islice
from typing import Any, NamedTuple

from repro.sim.scheduler import Simulator

#: records a tracer keeps; older ones fall off the front of the ring
TRACE_CAPACITY = 1 << 15


class TraceRecord(NamedTuple):
    """One timestamped structured event, numbered ``seq`` by its tracer."""

    seq: int
    time: float
    category: str
    name: str
    fields: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def as_dict(self) -> dict[str, Any]:
        return {"seq": self.seq, "time": self.time, "category": self.category,
                "name": self.name, **dict(self.fields)}

    def __str__(self) -> str:  # pragma: no cover - diagnostic only
        kv = " ".join(f"{k}={v!r}" for k, v in self.fields)
        return f"[{self.time:10.6f}] {self.category}/{self.name} {kv}"


class Tracer:
    """Collects :class:`TraceRecord` entries against a simulator clock.

    :attr:`records` is a ring of the last :data:`TRACE_CAPACITY`
    records, numbered by consecutive ``seq`` that :meth:`clear` does not
    reset: a reader resumes with ``select(after=<last seq it saw>)``.

    A category muted with :meth:`mute` is *off*: every emit site in the
    library tests :attr:`muted` before it builds its record's fields, ::

        if "event" not in tracer.muted:
            tracer.emit("event", "deliver", tid=str(thread.tid), ...)

    so a muted category costs one attribute load and one set test per
    site reached — no call, no ``str()``, nothing stored, no sequence
    number taken. The set is read at the site on every pass: muting or
    unmuting mid-run takes effect at the next site reached.
    """

    __slots__ = ("sim", "records", "muted", "_seqs")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.records: deque[TraceRecord] = deque(maxlen=TRACE_CAPACITY)
        #: categories switched off; maintained by :meth:`mute` /
        #: :meth:`unmute`, read (never copied) by the emit sites
        self.muted: set[str] = set()
        self._seqs = count(1)

    def __repr__(self) -> str:
        return (f"<Tracer {len(self.records)} records, "
                f"muted={sorted(self.muted)}>")

    def emit(self, category: str, name: str, **fields: Any) -> None:
        """Record an event at the current virtual time."""
        if category in self.muted:
            return  # a caller that skipped the site guard
        self.records.append(TraceRecord(next(self._seqs), self.sim.now,
                                        category, name,
                                        tuple(sorted(fields.items()))))

    def mute(self, *categories: str) -> None:
        """Switch the given categories off: nothing emitted, nothing
        stored, until :meth:`unmute`."""
        self.muted.update(categories)

    def unmute(self, *categories: str) -> None:
        self.muted.difference_update(categories)

    def select(self, category: str | None = None, name: str | None = None,
               *, after: int | None = None,
               **fields: Any) -> list[TraceRecord]:
        """Return the retained records matching all given criteria, in
        emit order; ``after`` keeps only those whose ``seq`` is greater."""
        records = self.records
        if after is not None and records:
            # the retained seqs are consecutive: skip by position
            records = islice(records, max(0, after + 1 - records[0].seq), None)
        return [record for record in records
                if (category is None or record.category == category)
                and (name is None or record.name == name)
                and all(record.get(k) == v for k, v in fields.items())]

    def clear(self) -> None:
        """Drop the retained records; the sequence numbers go on."""
        self.records.clear()

    def signature(self) -> tuple[tuple[float, str, str, tuple], ...]:
        """A hashable summary of the retained trace, for determinism checks."""
        return tuple((r.time, r.category, r.name, r.fields)
                     for r in self.records)

    def to_jsonl(self, path) -> int:
        """Dump the retained records as JSON lines; returns their count.

        Values that are not JSON-native are stringified, so traces of
        arbitrary simulations always export.
        """
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record.as_dict(), default=str))
                fh.write("\n")
        return len(self.records)
