"""Traffic statistics for the message fabric.

Benchmarks E2 (thread location) and E5 (distributed ^C) report message
counts per type, which is the quantity the paper argues about when it
calls broadcast location "communication intensive and wasteful" (§7.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
