"""Hint-cached location, the optimisation §7.1 leaves on the table: a post
goes straight to the hinted node, and falls back to a base strategy."""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from repro.events.block import EventBlock
from repro.events.locate.base import (
    LOCATE_RETRIES,
    MSG_CACHED_POST,
    BaseLocator,
    PostResult,
)
from repro.kernel.config import LOCATE_CACHED
from repro.threads.ids import ThreadId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.threads.thread import DThread


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


class CachedLocator(BaseLocator):
    """Post to the hinted node directly; chase TCB pointers on a miss.

    The bookkeeping hooks keep the per-node :attr:`hints` warm with no
    extra round trips, and reach the base strategy too. A post is then:

    1. **hit fast path** — one direct message to the hinted node;
    2. **stale hint** — the receiving kernel forwards the notice along
       its TCB ``next_node`` pointer (or its own fresher hint), bounded
       by :data:`LOCATE_RETRIES` forwards;
    3. **fallback** — no hint, dead pointer chain or exhausted budget:
       the configured base strategy (``cache_fallback``) takes over and
       also performs §7.2 dead-target detection.
    """

    name = LOCATE_CACHED
    POST = MSG_CACHED_POST

    def __init__(self, cluster: Any, enqueue: Any) -> None:
        from repro.events.locate import make_locator
        super().__init__(cluster, enqueue)
        #: the fallback strategy (``cache_fallback``: one of the three)
        self.base = make_locator(cluster.config.cache_fallback, cluster,
                                 enqueue)
        #: tid -> nodes whose table holds a hint for it, so a thread's
        #: exit invalidates its hints without asking every node
        self.holders: dict[ThreadId, set[int]] = {}
        #: node -> its volatile ``tid -> node`` hint cache
        self.hints = {node: LocationHintTable(node, holders=self.holders)
                      for node in cluster.kernels}

    def thread_entered(self, thread: DThread, node: int) -> None:
        self.base.thread_entered(thread, node)
        self.hints[node].install(thread.tid, node)

    def thread_leaving(self, thread: DThread, node: int) -> None:
        self.base.thread_leaving(thread, node)
        # stale now: the TCB forwarding pointer set next takes over
        self.hints[node].invalidate(thread.tid)

    def thread_left_for_good(self, thread: DThread, node: int) -> None:
        self.base.thread_left_for_good(thread, node)
        # the TCB is gone too: a forwarding hint keeps a chase moving
        if thread.alive and thread.current_node != node:
            self.hints[node].install(thread.tid, thread.current_node)

    def thread_gone(self, thread: DThread) -> None:
        self.base.thread_gone(thread)
        # a dead thread must miss everywhere: §7.2 detection decides
        for node in sorted(self.holders.get(thread.tid, ())):
            self.hints[node].invalidate(thread.tid)

    def notice_accepted(self, tid: ThreadId, node: int,
                        origin: int | None) -> None:
        self.base.notice_accepted(tid, node, origin)
        self.hints[node].install(tid, node)
        if origin is not None and origin != node and origin in self.hints:
            self.hints[origin].install(tid, node)

    def node_crashed(self, node: int) -> None:
        self.base.node_crashed(node)
        self.hints[node].clear()

    def counters(self) -> tuple[dict[str, int], ...]:
        return (*self.base.counters(),
                *(table.stats() for table in self.hints.values()))

    def post(self, from_node: int, tid: ThreadId, block: EventBlock,
             on_result: PostResult) -> None:
        state = {"hops": 0, "forwards": LOCATE_RETRIES, "from_node": from_node}
        hint = self.hints[from_node].get(tid)
        if hint is None or hint == from_node:
            # Cold cache (or a useless self-hint: the local fast path
            # already failed upstream): straight to the base strategy.
            self._fallback(tid, block, state, on_result)
            return
        self._send(from_node, hint, tid, block, state, on_result)

    def _send(self, from_node: int, to_node: int, tid: ThreadId,
              block: EventBlock, state: dict, on_result: PostResult) -> None:
        # an unreachable hinted node most likely crashed: worse than stale
        self._forward(from_node, to_node, tid, block, state, on_result,
                      lambda m: self._give_up(tid, block, state, on_result))

    def _arrived(self, node: int, tid: ThreadId, block: EventBlock,
                 state: dict, on_result: PostResult) -> None:
        if self._accept(node, tid, block):
            on_result(True, state["hops"])
            return
        # Stale hint: chase the TCB forwarding pointer with the notice.
        tcb = self.cluster.kernels[node].thread_table.get(tid)
        next_node = tcb.next_node if tcb is not None else None
        if next_node is None:
            # no TCB (it returned past here): a hint may know where it went
            fresher = self.hints[node].peek(tid)
            if fresher is not None and fresher != node:
                next_node = fresher
        if (next_node is not None and state["forwards"] > 0
                and tid in self.cluster.live_threads):
            state["forwards"] -= 1
            self.hints[node].install(tid, next_node)
            self._send(node, next_node, tid, block, state, on_result)
            return
        self._give_up(tid, block, state, on_result)

    def _give_up(self, tid: ThreadId, block: EventBlock, state: dict,
                 on_result: PostResult) -> None:
        """The hint led nowhere: drop it at the origin so the next post
        skips the wasted message, and fall back to the base strategy."""
        self.hints[state["from_node"]].invalidate(tid)
        self._fallback(tid, block, state, on_result)

    def _fallback(self, tid: ThreadId, block: EventBlock, state: dict,
                  on_result: PostResult) -> None:
        hops_so_far = state["hops"]

        def relay(delivered: bool, hops: int) -> None:
            on_result(delivered, hops_so_far + hops)

        self.base.post(state["from_node"], tid, block, relay)
