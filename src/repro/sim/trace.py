"""Structured trace recording for simulations.

Every interesting action in the simulated cluster (message send/receive,
invocation, event raise/delivery, handler execution, page fault, …) is
recorded as a :class:`TraceRecord`. Traces serve three purposes:

* tests assert on exact sequences (determinism, delivery order);
* experiment E7 compares handler-execution traces across transports;
* benchmarks derive message counts and latencies from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped structured event in a simulation run."""

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
        data = {"time": self.time, "category": self.category, "name": self.name}
        data.update(dict(self.fields))
        return data

    def __str__(self) -> str:  # pragma: no cover - diagnostic only
        kv = " ".join(f"{k}={v!r}" for k, v in self.fields)
        return f"[{self.time:10.6f}] {self.category}/{self.name} {kv}"


class Tracer:
    """Collects :class:`TraceRecord` entries against a simulator clock.

    A category muted with :meth:`mute` is *off*: every emit site in the
    library tests :attr:`muted` before it builds its record's fields, ::

        if "event" not in tracer.muted:
            tracer.emit("event", "deliver", tid=str(thread.tid), ...)

    so a muted category costs one attribute load and one set test per
    site reached — no call, no ``str()``, nothing stored, nothing
    counted. The set is read at the site on every pass: muting or
    unmuting mid-run takes effect at the next site reached.
    """

    __slots__ = ("sim", "records", "muted")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.records: list[TraceRecord] = []
        #: categories switched off; maintained by :meth:`mute` /
        #: :meth:`unmute`, read (never copied) by the emit sites
        self.muted: set[str] = set()

    def __repr__(self) -> str:
        return (f"<Tracer {len(self.records)} records, "
                f"muted={sorted(self.muted)}>")

    def emit(self, category: str, name: str, **fields: Any) -> None:
        """Record an event at the current virtual time."""
        if category in self.muted:
            return  # a caller that skipped the site guard
        self.records.append(TraceRecord(self.sim.now, category, name,
                                        tuple(sorted(fields.items()))))

    def mute(self, *categories: str) -> None:
        """Switch the given categories off: nothing emitted, nothing
        stored, until :meth:`unmute`."""
        self.muted.update(categories)

    def unmute(self, *categories: str) -> None:
        self.muted.difference_update(categories)

    def select(self, category: str | None = None,
               name: str | None = None, **fields: Any) -> list[TraceRecord]:
        """Return stored records matching all given criteria."""
        return list(self.iter_select(category=category, name=name, **fields))

    def iter_select(self, category: str | None = None,
                    name: str | None = None,
                    **fields: Any) -> Iterator[TraceRecord]:
        for record in self.records:
            if category is not None and record.category != category:
                continue
            if name is not None and record.name != name:
                continue
            if any(record.get(k) != v for k, v in fields.items()):
                continue
            yield record

    def clear(self) -> None:
        self.records.clear()

    def signature(self) -> tuple[tuple[float, str, str, tuple], ...]:
        """A hashable summary of the stored trace, for determinism checks."""
        return tuple((r.time, r.category, r.name, r.fields)
                     for r in self.records)

    def to_jsonl(self, path) -> int:
        """Dump stored records as JSON lines; returns the record count.

        Values that are not JSON-native are stringified, so traces of
        arbitrary simulations always export.
        """
        import json

        def default(value: Any) -> str:
            return str(value)

        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record.as_dict(), default=default))
                fh.write("\n")
        return len(self.records)
