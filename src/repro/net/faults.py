"""Fault injection for the message fabric.

The paper's facility must behave sensibly in the presence of lost messages
and partitioned nodes (the "unexpected occurrences [that] are far more
probable than in centralized systems", section 1). The :class:`FaultPlan`
decides, per message, whether it is delivered, dropped, or duplicated.
"""

from __future__ import annotations

from repro.net.message import Message
from repro.sim.rng import RngRegistry


class FaultPlan:
    """Probabilistic drops/duplicates plus explicit partitions.

    Parameters
    ----------
    rng:
        Registry supplying the ``faults`` stream.
    drop_rate:
        Probability a remote message is silently dropped.
    duplicate_rate:
        Probability a remote message is delivered twice.

    Partitions are directed cuts between node pairs. :meth:`partition`
    cuts both directions by default, or only ``side_a -> side_b`` with
    ``one_way=True`` (an asymmetric failure: requests get through but
    replies are lost, or vice versa). :meth:`heal` removes every cut, or
    just the cuts between two sets when called with arguments.

    Drop and duplicate decisions are counted per message type in
    :attr:`dropped_by_type` / :attr:`duplicated_by_type`, which the chaos
    report uses to show *what* the network was eating.
    """

    def __init__(self, rng: RngRegistry | None = None, drop_rate: float = 0.0,
                 duplicate_rate: float = 0.0) -> None:
        self._stream = (rng or RngRegistry(0)).stream("faults")
        self.drop_rate = float(drop_rate)
        self.duplicate_rate = float(duplicate_rate)
        #: directed ``(src, dst)`` pairs that cannot communicate
        self._cuts: set[tuple[int, int]] = set()
        self.dropped = 0
        self.duplicated = 0
        self.dropped_by_type: dict[str, int] = {}
        self.duplicated_by_type: dict[str, int] = {}

    def partition(self, side_a: set[int] | list[int],
                  side_b: set[int] | list[int],
                  one_way: bool = False) -> None:
        """Cut links between the two node sets.

        With ``one_way=True`` only messages travelling ``side_a ->
        side_b`` are cut; the reverse direction keeps working.
        """
        for a in side_a:
            for b in side_b:
                if a == b:
                    continue
                self._cuts.add((a, b))
                if not one_way:
                    self._cuts.add((b, a))

    def heal(self, side_a: set[int] | list[int] | None = None,
             side_b: set[int] | list[int] | None = None) -> None:
        """Remove partitions.

        With no arguments every cut is removed. With two node sets, only
        the cuts between them (both directions) are removed — other
        partitions stay in force.
        """
        if side_a is None and side_b is None:
            self._cuts.clear()
            return
        if side_a is None or side_b is None:
            raise ValueError("heal() needs both sides or neither")
        for a in side_a:
            for b in side_b:
                self._cuts.discard((a, b))
                self._cuts.discard((b, a))

    def is_cut(self, src: int, dst: int) -> bool:
        return (src, dst) in self._cuts

    def fault_breakdown(self) -> dict[str, dict[str, int]]:
        """Per-message-type drop/duplicate counts (for the chaos report)."""
        return {"dropped": dict(sorted(self.dropped_by_type.items())),
                "duplicated": dict(sorted(self.duplicated_by_type.items()))}

    def _count_drop(self, mtype: str) -> None:
        self.dropped += 1
        self.dropped_by_type[mtype] = self.dropped_by_type.get(mtype, 0) + 1

    def _count_duplicate(self, mtype: str) -> None:
        self.duplicated += 1
        self.duplicated_by_type[mtype] = \
            self.duplicated_by_type.get(mtype, 0) + 1

    def copies(self, message: Message) -> int:
        """How many copies of this message to deliver (0 = dropped).

        Node-local messages are never dropped or duplicated.
        """
        src, dst = message.src, message.dst
        if isinstance(dst, int):
            if src == dst:
                return 1
            cuts = self._cuts
            if cuts and (src, dst) in cuts:
                self._count_drop(message.mtype)
                return 0
        if self.drop_rate and self._stream.random() < self.drop_rate:
            self._count_drop(message.mtype)
            return 0
        if self.duplicate_rate and self._stream.random() < self.duplicate_rate:
            self._count_duplicate(message.mtype)
            return 2
        return 1
