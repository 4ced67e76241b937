"""Thread-location strategies (§7.1).

"When an event is posted to a thread, the system must track down the
thread." The paper proposes three strategies, all implemented here behind
one interface:

* :class:`BroadcastLocator` — "broadcast the event request. When the
  machine that has the thread active gets the request, it can block the
  thread [and] run the handler … However, this is communication intensive
  and wasteful." Every node receives the posted event; non-holders reply
  not-found so the origin can detect dead threads.
* :class:`PathLocator` — "follow the path of the thread starting from its
  root node … using information in the system's thread-control blocks.
  On a distributed system comprising of n nodes, it is possible to find
  the thread in n steps." The notice hops along TCB forwarding pointers.
* :class:`MulticastLocator` — "application's threads can create a
  multicast group. When a thread leaves the current node and starts
  executing in another, the thread-management system can join the
  multicast group" — the notice is multicast to the thread's group and
  only the node holding the innermost activation accepts it.
* :class:`CachedLocator` — the optimisation the paper leaves on the
  table: each node caches ``tid -> node`` hints (installed by every
  successful delivery, piggy-backed on existing replies) and a post goes
  straight to the hinted node with a single message. On a stale hint the
  receiving node chases its TCB ``next_node`` forwarding pointer with
  the notice itself, bounded by :data:`LOCATE_RETRIES` forwards; only on
  exhaustion does the post fall back to the configured base strategy
  (``cache_fallback``: path, broadcast or multicast). Steady-state posts
  to a stationary thread cost one message regardless of cluster size and
  migration depth.

Because threads keep moving while notices are in flight, every strategy
retries a bounded number of times before declaring the thread dead.

Each strategy keeps the location state it reads (thread groups, hint
tables) through the :class:`BaseLocator` bookkeeping hooks; path and
broadcast keep none.

On the wire a locate message is the ``tid`` and the notice, both
registered shapes.  The origin's side of the exchange — the verdict
callback, the hop count and retry budget, a probe round's tally — is
kept by the locator under the notice's block id (``_open``) and the
message names it, because the verdict returns to the raiser by a call,
not by a message the paper's protocols do not have.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import KernelError
from repro.events.block import EventBlock
from repro.kernel.config import (
    LOCATE_BROADCAST,
    LOCATE_CACHED,
    LOCATE_MULTICAST,
    LOCATE_PATH,
)
from repro.kernel.tcb import LocationHintTable
from repro.net.message import Message
from repro.net.multicast import MulticastRegistry
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
        if not self.cluster.kernels[node].thread_table.innermost_here(tid):
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
        membership = self._membership(from_node)
        if (to_node not in self.cluster.kernels
                or membership is not None and membership.is_dead(to_node)):
            # Another shard's node — threads, and the origin's side of
            # this locate, live in one process — or confirmed dead by
            # gossip: do not spend a message the verdict cannot follow.
            lost(None)
            return
        state["hops"] += 1
        self._open[block.block_id] = (state, on_result)
        self.cluster.transmit(Message(
            src=from_node, dst=to_node, mtype=self.POST, size=128,
            payload={"tid": tid, "block": block}), lost)

    def on_message(self, message: Message) -> None:
        """A forwarded notice arrived (once: a network duplicate finds
        the walk has moved on)."""
        body = message.payload
        block = body["block"]
        walk = self._open.pop(block.block_id, None)
        if walk is not None:
            self._arrived(int(message.dst), body["tid"], block, *walk)


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


class _ProbeLocator(BaseLocator):
    """Rounds shared by the two fan-out strategies: probe every
    candidate node, collect its found / not-found reply, and start a
    fresh round while the thread lives and the retry budget lasts."""

    #: with nobody to probe: retry (membership may be mid-change), or
    #: report the thread dead at once
    RETRY_EMPTY_ROUND = True

    def _candidates(self, tid: ThreadId) -> list[int]:
        """Nodes that may hold the thread, in probe order."""
        raise NotImplementedError

    def post(self, from_node: int, tid: ThreadId, block: EventBlock,
             on_result: PostResult) -> None:
        self._round(tid, block, {"hops": 0, "retries": LOCATE_RETRIES,
                                 "from_node": from_node}, on_result)

    def _round(self, tid: ThreadId, block: EventBlock, state: dict,
               on_result: PostResult) -> None:
        from_node = state["from_node"]
        candidates = self._candidates(tid)
        if from_node in candidates and self._accept(from_node, tid, block):
            on_result(True, state["hops"])
            return
        targets = self._drop_dead(
            from_node, [n for n in candidates if n != from_node])
        if not targets:
            if self.RETRY_EMPTY_ROUND:
                self._retry_or_fail(tid, block, state, on_result)
            else:
                on_result(False, state["hops"])
            return
        pending = {"found": False, "replies": 0, "expected": len(targets)}
        state["hops"] += len(targets)
        key, round_ = block.block_id, state["retries"]
        self._open[key] = (state, pending, on_result, tid, block)
        for node in targets:
            # an undeliverable probe counts as a not-found
            self.cluster.transmit(Message(
                src=from_node, dst=node, mtype=self.POST, size=128,
                payload={"tid": tid, "block": block, "round": round_}),
                lambda m: self._tally(key, round_, False))

    def _retry_or_fail(self, tid: ThreadId, block: EventBlock, state: dict,
                       on_result: PostResult) -> None:
        if state["retries"] > 0 and tid in self.cluster.live_threads:
            state["retries"] -= 1
            self.cluster.sim.call_after(LOCATE_RETRY_DELAY, self._round, tid,
                                        block, state, on_result)
            return
        on_result(False, state["hops"])

    def on_message(self, message: Message) -> None:
        body = message.payload
        node = int(message.dst)
        block = body["block"]
        key, round_ = block.block_id, body["round"]
        found = self._accept(node, body["tid"], block)
        # the answer stands even if the reply is undeliverable
        self.cluster.transmit(Message(
            src=node, dst=message.src, mtype=self.REPLY, size=64,
            payload={"id": key, "round": round_, "found": found}),
            lambda m: self._tally(key, round_, found, replied=True))

    def on_reply(self, message: Message) -> None:
        body = message.payload
        self._tally(body["id"], body["round"], body["found"], replied=True)

    def _tally(self, key: int, round_: int, found: bool,
               replied: bool = False) -> None:
        """Count one probe's answer at the origin; the last one of the
        round gives the verdict or starts the next round."""
        probe = self._open.get(key)
        if probe is None or probe[0]["retries"] != round_:
            return  # an answer to a round that is over
        state, pending, on_result, tid, block = probe
        if replied:
            state["hops"] += 1
        pending["replies"] += 1
        if found:
            pending["found"] = True
        if pending["replies"] < pending["expected"]:
            return
        del self._open[key]
        if pending["found"]:
            on_result(True, state["hops"])
            return
        self._retry_or_fail(tid, block, state, on_result)


class BroadcastLocator(_ProbeLocator):
    """Broadcast the event request to every node."""

    name = LOCATE_BROADCAST
    POST, REPLY = MSG_BCAST_POST, MSG_BCAST_REPLY
    RETRY_EMPTY_ROUND = False
    post = _ProbeLocator.post  # E17's tracer wraps vars(cls)["post"]

    def _candidates(self, tid: ThreadId) -> list[int]:
        return list(self.cluster.kernels)


class MulticastLocator(_ProbeLocator):
    """Multicast the notice to the thread's member-maintained group."""

    name = LOCATE_MULTICAST
    POST, REPLY = MSG_MCAST_POST, MSG_MCAST_REPLY
    post = _ProbeLocator.post  # E17's tracer wraps vars(cls)["post"]

    def __init__(self, cluster: Any, enqueue: Any) -> None:
        super().__init__(cluster, enqueue)
        #: one group per thread, keyed by its id
        self.groups = MulticastRegistry()

    def _candidates(self, tid: ThreadId) -> list[int]:
        return sorted(self.groups.members(tid))

    def thread_entered(self, thread: DThread, node: int) -> None:
        self.groups.join(thread.tid, node)

    def thread_left_for_good(self, thread: DThread, node: int) -> None:
        if node != thread.tid.root:
            self.groups.leave(thread.tid, node)

    def thread_gone(self, thread: DThread) -> None:
        self.groups.dissolve(thread.tid)

    def node_crashed(self, node: int) -> None:
        # a dead node is no thread's location, now or after recovery
        for tid in self.groups.groups_of(node):
            self.groups.leave(tid, node)


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


def make_locator(name: str, cluster: Any, enqueue: Any) -> BaseLocator:
    """Instantiate the configured strategy (which registers the message
    types it answers with every kernel)."""
    strategies = {LOCATE_PATH: PathLocator, LOCATE_BROADCAST: BroadcastLocator,
                  LOCATE_MULTICAST: MulticastLocator,
                  LOCATE_CACHED: CachedLocator}
    if name not in strategies:
        raise KernelError(f"unknown locator {name!r}")
    return strategies[name](cluster, enqueue)
