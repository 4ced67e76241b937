"""The §7.1 locator interface, its bookkeeping hooks and the notice hop."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.events.block import EventBlock
from repro.net.message import Message
from repro.threads.ids import ThreadId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.threads.thread import DThread

MSG_PATH_POST = "locate.path"
MSG_BCAST_POST = "locate.bcast"
MSG_BCAST_REPLY = "locate.bcast-reply"
MSG_MCAST_POST = "locate.mcast"
MSG_MCAST_REPLY = "locate.mcast-reply"
MSG_CACHED_POST = "locate.cached"

#: re-locate attempts (and cached-hint forwards) before a thread that
#: keeps moving is declared dead, and the virtual pause between them
LOCATE_RETRIES = 8
LOCATE_RETRY_DELAY = 2e-3

#: Result callback: (delivered, hops) — hops is the count of routing
#: messages this post consumed (broadcast counts fan-out copies).
PostResult = Callable[[bool, int], None]


class BaseLocator:
    """Shared plumbing for the three strategies."""

    name = "?"
    #: message types this strategy answers (``on_message``/``on_reply``)
    POST: str = "?"
    REPLY: str | None = None

    def __init__(self, cluster: Any,
                 enqueue: Callable[[int, ThreadId, EventBlock], bool]) -> None:
        self.cluster = cluster
        #: the post stage's hand-over: ``enqueue(node, tid, block)``
        self.enqueue = enqueue
        #: block id -> the origin's side of a locate that has a message
        #: out: ``(state, on_result)`` while a forwarded notice travels,
        #: ``(state, pending, on_result, tid, block)`` for a probe round
        self._open: dict[int, tuple] = {}
        for kernel in cluster.kernels.values():
            kernel.register_message_handler(self.POST, self.on_message)
            if self.REPLY is not None:
                kernel.register_message_handler(self.REPLY, self.on_reply)

    def post(self, from_node: int, tid: ThreadId, block: EventBlock,
             on_result: PostResult) -> None:
        """Route ``block`` to wherever ``tid`` currently executes.

        ``on_result(delivered, hops)`` fires exactly once: with
        ``delivered=False`` only when the thread cannot be found (dead).
        """
        raise NotImplementedError

    # -- bookkeeping hooks: no-ops for a strategy that keeps no state --

    def thread_entered(self, thread: DThread, node: int) -> None:
        """``thread`` starts executing on ``node``."""

    def thread_leaving(self, thread: DThread, node: int) -> None:
        """``thread``'s innermost frame is departing ``node``."""

    def thread_left_for_good(self, thread: DThread, node: int) -> None:
        """No frames of ``thread`` remain on ``node``."""

    def thread_gone(self, thread: DThread) -> None:
        """``thread`` finished or was terminated."""

    def notice_accepted(self, tid: ThreadId, node: int,
                        origin: int | None) -> None:
        """A notice from ``origin`` was queued on ``tid`` at ``node``."""

    def node_crashed(self, node: int) -> None:
        """``node`` crashed: what it knew about locations was volatile."""

    def counters(self) -> tuple[dict[str, int], ...]:
        """One counter dict per table this strategy keeps, which
        ``Cluster.metrics`` sums under ``events.locate``."""
        return ()

    # -- helpers ---------------------------------------------------------

    def _membership(self, node: int):
        """``node``'s gossip membership view, or None when the layer is
        off (or the origin is an external pseudo-node)."""
        kernel = self.cluster.kernels.get(node)
        if kernel is not None and kernel.membership.enabled:
            return kernel.membership
        return None

    def _drop_dead(self, from_node: int, nodes: list[int]) -> list[int]:
        """Filter confirmed-dead nodes out of a candidate list.

        Only *confirmed* deaths are skipped: a suspect may yet refute
        the suspicion (and may still hold the thread), so it keeps
        receiving probes — the unreliable-detector safety rule. With
        membership off this is the identity function.
        """
        membership = self._membership(from_node)
        if membership is None:
            return nodes
        return [n for n in nodes if not membership.is_dead(n)]

    def _accept(self, node: int, tid: ThreadId, block: EventBlock) -> bool:
        """Hand the notice to the thread if its innermost frame is here."""
        tcb = self.cluster.kernels[node].thread_table.get(tid)
        if tcb is None or not tcb.innermost:
            return False
        return self.enqueue(node, tid, block)

    def _forward(self, from_node: int, to_node: int, tid: ThreadId,
                 block: EventBlock, state: dict, on_result: PostResult,
                 lost: Callable[[Message | None], None]) -> None:
        """Send the notice itself one hop on (the pointer-chasing
        strategies); ``lost`` runs if ``to_node`` is unreachable."""
        if from_node == to_node:
            self._arrived(to_node, tid, block, state, on_result)
            return
        kernels = self.cluster.kernels
        kernel = kernels[from_node]
        if (to_node not in kernels
                or kernel.config.swim_interval is not None  # gossip is on
                and kernel.membership.is_dead(to_node)):
            # Another shard's node — threads, and the origin's side of
            # this locate, live in one process — or confirmed dead by
            # gossip: do not spend a message the verdict cannot follow.
            lost(None)
            return
        state["hops"] += 1
        self._open[block.block_id] = (state, on_result)
        kernel.transmit(Message(from_node, to_node, self.POST,
                                {"tid": tid, "block": block}, 128), lost)

    def on_message(self, message: Message) -> None:
        """A forwarded notice arrived (once: a network duplicate finds
        the walk has moved on)."""
        body = message.payload
        block = body["block"]
        walk = self._open.pop(block.block_id, None)
        if walk is not None:
            self._arrived(int(message.dst), body["tid"], block, *walk)
