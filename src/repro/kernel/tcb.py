"""Per-node thread-control blocks, and the location-hint table type.

Each node's kernel keeps a :class:`ThreadTable` recording, for every
logical thread that currently has activations on the node, how many frames
reside here, whether the *innermost* frame (the one actually executing) is
here, and — crucially for the path-following locator of section 7.1 —
a forwarding pointer to the node the thread invoked into next.

The chain ``root → next_node → … → innermost`` is exactly the path the
paper describes walking "starting with the root node … using information
in the system's thread-control blocks".

:class:`LocationHintTable` is a bounded LRU cache of ``tid -> node``
*hints* recording where a thread was last observed. Hints are best-effort
(they may be stale the moment a thread migrates); the kernel keeps none.
The ``cached`` locator (:mod:`repro.events.locate`) owns one table per
node, posts directly to the hinted node and chases TCB forwarding
pointers on a miss.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import KernelError


@dataclass
class Tcb:
    """Control block for one logical thread on one node."""

    tid: object
    frames: int = 0
    innermost: bool = False
    next_node: int | None = None
    #: history of nodes this thread invoked into from here (diagnostics)
    departures: list[int] = field(default_factory=list)


class ThreadTable:
    """All TCBs resident on one node."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._tcbs: dict[object, Tcb] = {}

    def __contains__(self, tid: object) -> bool:
        return tid in self._tcbs

    def get(self, tid: object) -> Tcb | None:
        return self._tcbs.get(tid)

    def tids(self) -> list[object]:
        return list(self._tcbs)

    def innermost_here(self, tid: object) -> bool:
        tcb = self._tcbs.get(tid)
        return tcb is not None and tcb.innermost

    # ------------------------------------------------------------------
    # lifecycle transitions, called by the invocation engine
    # ------------------------------------------------------------------

    def thread_arrived(self, tid: object) -> Tcb:
        """A frame of ``tid`` starts executing on this node (push)."""
        tcb = self._tcbs.get(tid)
        if tcb is None:
            tcb = self._tcbs[tid] = Tcb(tid=tid)
        tcb.frames += 1
        tcb.innermost = True
        tcb.next_node = None
        return tcb

    def thread_departed(self, tid: object, to_node: int) -> Tcb:
        """The thread invoked from this node into ``to_node``."""
        tcb = self._require(tid)
        tcb.innermost = False
        tcb.next_node = to_node
        tcb.departures.append(to_node)
        return tcb

    def thread_returned_here(self, tid: object) -> Tcb:
        """A deeper remote invocation returned; this node is innermost again."""
        tcb = self._require(tid)
        tcb.innermost = True
        tcb.next_node = None
        return tcb

    def frame_popped(self, tid: object) -> Tcb | None:
        """A frame on this node completed (return or unwind).

        Removes the TCB once no frames remain. Returns the TCB if it still
        exists, else None.
        """
        tcb = self._require(tid)
        tcb.frames -= 1
        if tcb.frames <= 0:
            del self._tcbs[tid]
            return None
        return tcb

    def purge(self, tid: object) -> bool:
        """Remove all state for a (terminated) thread. True if present."""
        return self._tcbs.pop(tid, None) is not None

    def clear(self) -> None:
        """Forget every TCB (the node crashed; this state was volatile)."""
        self._tcbs.clear()

    def _require(self, tid: object) -> Tcb:
        tcb = self._tcbs.get(tid)
        if tcb is None:
            raise KernelError(
                f"node {self.node_id} has no TCB for thread {tid!r}")
        return tcb


class LocationHintTable:
    """Bounded LRU cache of ``tid -> node`` last-known-location hints.

    Installed and consumed by the ``cached`` locator, on successful
    deliveries, hint chases and the thread's moves. A hint is advisory: a
    lookup that points at a node no longer holding the thread costs one
    wasted message, after which the chase falls back on TCB forwarding
    pointers and ultimately the configured base strategy.

    ``holders`` is the reverse index ``tid -> {nodes holding a hint}``
    the tables of one locator share, so a thread's exit invalidates its
    hints on the nodes that have one instead of asking every node.
    """

    def __init__(self, node_id: int, capacity: int = 1024,
                 holders: dict[object, set[int]] | None = None) -> None:
        self.node_id = node_id
        self.capacity = capacity
        self._hints: OrderedDict[object, int] = OrderedDict()
        self._holders = holders if holders is not None else {}
        #: counters surfaced by :meth:`stats` for benchmarks/diagnostics
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._hints)

    def __contains__(self, tid: object) -> bool:
        return tid in self._hints

    def get(self, tid: object) -> int | None:
        """Consume a hint (counts a hit or a miss, refreshes LRU order)."""
        node = self._hints.get(tid)
        if node is None:
            self.misses += 1
            return None
        self.hits += 1
        self._hints.move_to_end(tid)
        return node

    def peek(self, tid: object) -> int | None:
        """Read a hint without touching hit/miss counters or LRU order."""
        return self._hints.get(tid)

    def install(self, tid: object, node: int) -> None:
        """Record that ``tid`` was last observed executing on ``node``."""
        self.installs += 1
        hints = self._hints
        if tid in hints:
            hints.move_to_end(tid)
        else:
            nodes = self._holders.get(tid)
            if nodes is None:
                self._holders[tid] = {self.node_id}
            else:
                nodes.add(self.node_id)
        hints[tid] = node
        while len(hints) > self.capacity:
            self._release(hints.popitem(last=False)[0])
            self.evictions += 1

    def invalidate(self, tid: object) -> bool:
        """Drop the hint for ``tid``. True if one was present."""
        if self._hints.pop(tid, None) is not None:
            self._release(tid)
            self.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        """Forget every hint (the node crashed; hints were volatile)."""
        for tid in self._hints:
            self._release(tid)
        self._hints.clear()

    def _release(self, tid: object) -> None:
        """This table no longer holds a hint for ``tid``."""
        nodes = self._holders[tid]
        nodes.discard(self.node_id)
        if not nodes:
            del self._holders[tid]

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._hints),
            "hits": self.hits,
            "misses": self.misses,
            "installs": self.installs,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }
