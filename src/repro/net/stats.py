"""Traffic statistics for the message fabric.

Benchmarks E2 (thread location) and E5 (distributed ^C) report message
counts per type, which is the quantity the paper argues about when it
calls broadcast location "communication intensive and wasteful" (§7.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any


@dataclass
class TrafficStats:
    """Counters over everything a fabric has carried.

    :class:`~repro.net.fabric.Fabric` updates the fields in place on its
    send and delivery paths.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes_sent: int = 0
    by_type: dict[str, int] = field(default_factory=dict)

    def count(self, mtype: str) -> int:
        """Messages sent with the given type tag."""
        return self.by_type.get(mtype, 0)

    def count_prefix(self, prefix: str) -> int:
        """Messages sent whose type starts with ``prefix``."""
        return sum(n for t, n in self.by_type.items() if t.startswith(prefix))

    def snapshot(self) -> dict[str, int]:
        """Immutable summary, convenient for before/after deltas."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "bytes_sent": self.bytes_sent,
            **{f"type:{t}": n for t, n in sorted(self.by_type.items())},
        }

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        now = self.snapshot()
        keys = set(now) | set(snapshot)
        return {k: now.get(k, 0) - snapshot.get(k, 0) for k in sorted(keys)}

    def reset(self) -> None:
        self.sent = self.delivered = self.dropped = self.bytes_sent = 0
        self.by_type.clear()


class LatencyReservoir:
    """Bounded reservoir of labelled latency samples.

    Long benchmark runs record one sample per delivery; an unbounded list
    grows without limit. This keeps running aggregates (count, mean) over
    *everything* ever recorded plus a most-recent window of ``capacity``
    samples for percentiles and per-post inspection. The window policy is
    deterministic (drop-oldest), so identically-seeded runs stay
    bit-identical.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self._window: deque[tuple[Any, float]] = deque(maxlen=capacity)
        self._count = 0
        self._total = 0.0

    def __len__(self) -> int:
        """Samples currently retained (<= capacity)."""
        return len(self._window)

    def __iter__(self):
        return iter(self._window)

    def record(self, label: Any, value: float) -> None:
        self._count += 1
        self._total += value
        self._window.append((label, value))

    def last(self, n: int) -> list[tuple[Any, float]]:
        """The most recent ``min(n, retained)`` samples, oldest first."""
        if n <= 0:
            return []
        window = list(self._window)
        return window[-n:]

    @property
    def count(self) -> int:
        """Total samples ever recorded (not just retained)."""
        return self._count

    @property
    def mean(self) -> float:
        """Running mean over every sample ever recorded."""
        return self._total / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (0..100) over the retained window."""
        if not self._window:
            return 0.0
        values = sorted(v for _, v in self._window)
        rank = max(0, min(len(values) - 1,
                          int(round(q / 100.0 * (len(values) - 1)))))
        return values[rank]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> dict[str, float]:
        return {"count": self.count, "mean": self.mean,
                "p50": self.p50, "p99": self.p99,
                "retained": len(self._window)}
