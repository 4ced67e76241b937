"""Per-node thread-control blocks.

Each node's kernel keeps a :class:`ThreadTable` recording, for every
logical thread that currently has activations on the node, how many frames
reside here, whether the *innermost* frame (the one actually executing) is
here, and — crucially for the path-following locator of section 7.1 —
a forwarding pointer to the node the thread invoked into next.

The chain ``root → next_node → … → innermost`` is exactly the path the
paper describes walking "starting with the root node … using information
in the system's thread-control blocks".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError


@dataclass
class Tcb:
    """Control block for one logical thread on one node."""

    tid: object
    frames: int = 0
    innermost: bool = False
    next_node: int | None = None


class ThreadTable:
    """All TCBs resident on one node."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._tcbs: dict[object, Tcb] = {}
        #: ``get(tid)`` -> the TCB or None: the table's own ``dict.get``,
        #: so a locator's probe costs no Python frame
        self.get = self._tcbs.get

    def __contains__(self, tid: object) -> bool:
        return tid in self._tcbs

    def tids(self) -> list[object]:
        return list(self._tcbs)

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

