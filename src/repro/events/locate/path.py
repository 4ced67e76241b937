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
    """Walk TCB forwarding pointers from the thread's root node."""

    name = LOCATE_PATH
    POST = MSG_PATH_POST

    def post(self, from_node: int, tid: ThreadId, block: EventBlock,
             on_result: PostResult) -> None:
        state = {"hops": 0, "retries": LOCATE_RETRIES}
        self._hop(from_node, tid.root, tid, block, state, on_result)

    def _hop(self, from_node: int, to_node: int, tid: ThreadId,
             block: EventBlock, state: dict, on_result: PostResult) -> None:
        # An unreachable next node (crashed) is treated like a stale
        # pointer. If the thread died with that node the liveness check
        # fails and the raiser gets its §7.2 notice.
        self._forward(from_node, to_node, tid, block, state, on_result,
                      lambda m: self._restart(from_node, tid, block, state,
                                              on_result))

    def _arrived(self, node: int, tid: ThreadId, block: EventBlock,
                 state: dict, on_result: PostResult) -> None:
        if self._accept(node, tid, block):
            on_result(True, state["hops"])
            return
        tcb = self.cluster.kernels[node].thread_table.get(tid)
        if tcb is not None and tcb.next_node is not None:
            self._hop(node, tcb.next_node, tid, block, state, on_result)
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
