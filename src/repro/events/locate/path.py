"""Path following (§7.1): the notice walks TCB forwarding pointers."""

from __future__ import annotations

from repro.events.block import EventBlock
from repro.events.locate.base import (
    LOCATE_RETRIES,
    LOCATE_RETRY_DELAY,
    MSG_PATH_POST,
    BaseLocator,
    PostResult,
)
from repro.kernel.config import LOCATE_PATH
from repro.threads.ids import ThreadId


class PathLocator(BaseLocator):
    """Walk TCB forwarding pointers from the thread's root node.

    An unreachable next node (crashed) is treated like a stale pointer:
    every hop's ``lost`` restarts from the root, and if the thread died
    with that node the liveness check fails and the raiser gets its
    §7.2 notice.
    """

    name = LOCATE_PATH
    POST = MSG_PATH_POST

    def post(self, from_node: int, tid: ThreadId, block: EventBlock,
             on_result: PostResult) -> None:
        state = {"hops": 0, "retries": LOCATE_RETRIES}
        self._forward(from_node, tid.root, tid, block, state, on_result,
                      lambda m: self._restart(from_node, tid, block, state,
                                              on_result))

    def _hop(self, from_node: int, to_node: int, tid: ThreadId,
             block: EventBlock, state: dict, on_result: PostResult) -> None:
        """A restart's walk from the root."""
        self._forward(from_node, to_node, tid, block, state, on_result,
                      lambda m: self._restart(from_node, tid, block, state,
                                              on_result))

    def _arrived(self, node: int, tid: ThreadId, block: EventBlock,
                 state: dict, on_result: PostResult) -> None:
        """One probe of ``node``'s TCB: the innermost frame takes the
        notice, a forwarding pointer passes it on, anything else (no
        TCB, or a thread that would not take it) restarts."""
        tcb = self.cluster.kernels[node].thread_table.get(tid)
        if tcb is not None:
            if tcb.innermost and self.enqueue(node, tid, block):
                on_result(True, state["hops"])
                return
            if tcb.next_node is not None:
                self._forward(node, tcb.next_node, tid, block, state,
                              on_result, lambda m: self._restart(
                                  node, tid, block, state, on_result))
                return
        self._restart(node, tid, block, state, on_result)

    def _restart(self, node: int, tid: ThreadId, block: EventBlock,
                 state: dict, on_result: PostResult) -> None:
        """Stale pointer or mid-flight thread: restart from the root a
        bounded number of times before giving up."""
        if state["retries"] > 0 and tid in self.cluster.live_threads:
            state["retries"] -= 1
            self.cluster.sim.call_after(
                LOCATE_RETRY_DELAY, self._hop, node, tid.root, tid, block,
                state, on_result)
            return
        on_result(False, state["hops"])
