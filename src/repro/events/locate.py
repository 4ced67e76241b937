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
  table: each kernel caches ``tid -> node`` hints (installed by every
  successful delivery, piggy-backed on existing replies) and a post goes
  straight to the hinted node with a single message. On a stale hint the
  receiving kernel chases its TCB ``next_node`` forwarding pointer with
  the notice itself, bounded by :data:`LOCATE_RETRIES` forwards; only on
  exhaustion does the post fall back to the configured base strategy
  (``cache_fallback``: path, broadcast or multicast). Steady-state posts
  to a stationary thread cost one message regardless of cluster size and
  migration depth.

Because threads keep moving while notices are in flight, every strategy
retries a bounded number of times before declaring the thread dead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import KernelError
from repro.events.block import EventBlock
from repro.kernel.config import (
    LOCATE_BROADCAST,
    LOCATE_CACHED,
    LOCATE_MULTICAST,
    LOCATE_PATH,
)
from repro.net.message import Message
from repro.threads.ids import ThreadId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.events.delivery import EventManager

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

    def __init__(self, manager: "EventManager") -> None:
        self.manager = manager
        self.cluster = manager.cluster

    def post(self, from_node: int, tid: ThreadId, block: EventBlock,
             on_result: PostResult) -> None:
        """Route ``block`` to wherever ``tid`` currently executes.

        ``on_result(delivered, hops)`` fires exactly once: with
        ``delivered=False`` only when the thread cannot be found (dead).
        """
        raise NotImplementedError

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

    def _innermost_here(self, node: int, tid: ThreadId) -> bool:
        return self.cluster.kernels[node].thread_table.innermost_here(tid)

    def _accept(self, node: int, tid: ThreadId, block: EventBlock) -> bool:
        """Hand the notice to the thread if its innermost frame is here."""
        if not self._innermost_here(node, tid):
            return False
        return self.manager.enqueue_for_thread(node, tid, block)

    def _retry_later(self, fn: Callable[[], None]) -> None:
        self.cluster.sim.call_after(LOCATE_RETRY_DELAY, fn)

    def _transmit(self, message: Message,
                  on_give_up: Callable[[Message], None] | None = None) -> None:
        """Send via the source kernel's (possibly reliable) channel.

        ``on_give_up`` fires if the reliable channel exhausts its
        retransmission budget — the destination crashed or is partitioned
        away — letting the strategy reroute or report a dead target
        instead of hanging. With reliability off it never fires (the
        seed's fire-and-forget behaviour).
        """
        self.cluster.transmit(message, on_give_up)


class PathLocator(BaseLocator):
    """Walk TCB forwarding pointers from the thread's root node."""

    name = LOCATE_PATH

    def post(self, from_node: int, tid: ThreadId, block: EventBlock,
             on_result: PostResult) -> None:
        state = {"hops": 0, "retries": LOCATE_RETRIES}
        self._hop(from_node, tid.root, tid, block, state, on_result)

    def _hop(self, from_node: int, to_node: int, tid: ThreadId,
             block: EventBlock, state: dict, on_result: PostResult) -> None:
        if from_node == to_node:
            self._arrived(to_node, tid, block, state, on_result)
            return

        def hop_lost(message: Message | None) -> None:
            # The next node in the chain is unreachable (crashed): treat
            # it like a stale pointer and restart from the root. If the
            # thread died with that node the liveness check fails and the
            # raiser gets its §7.2 notice.
            if state["retries"] > 0 and tid in self.cluster.live_threads:
                state["retries"] -= 1
                self._retry_later(
                    lambda: self._hop(from_node, tid.root, tid, block,
                                      state, on_result))
                return
            on_result(False, state["hops"])

        membership = self._membership(from_node)
        if membership is not None and membership.is_dead(to_node):
            # Confirmed dead by gossip: fail the hop without spending a
            # message on a node the whole cluster agrees is gone.
            hop_lost(None)
            return
        state["hops"] += 1
        self._transmit(Message(
            src=from_node, dst=to_node, mtype=MSG_PATH_POST, size=128,
            payload={"tid": tid, "block": block, "state": state,
                     "on_result": on_result}), hop_lost)

    def on_message(self, message: Message) -> None:
        body = message.payload
        self._arrived(int(message.dst), body["tid"], body["block"],
                      body["state"], body["on_result"])

    def _arrived(self, node: int, tid: ThreadId, block: EventBlock,
                 state: dict, on_result: PostResult) -> None:
        if self._accept(node, tid, block):
            on_result(True, state["hops"])
            return
        tcb = self.cluster.kernels[node].thread_table.get(tid)
        if tcb is not None and tcb.next_node is not None:
            self._hop(node, tcb.next_node, tid, block, state, on_result)
            return
        # Stale pointer or mid-flight thread: restart from the root a
        # bounded number of times before giving up.
        if state["retries"] > 0 and tid in self.cluster.live_threads:
            state["retries"] -= 1
            self._retry_later(
                lambda: self._hop(node, tid.root, tid, block, state,
                                  on_result))
            return
        on_result(False, state["hops"])


class BroadcastLocator(BaseLocator):
    """Broadcast the event request to every node."""

    name = LOCATE_BROADCAST

    def post(self, from_node: int, tid: ThreadId, block: EventBlock,
             on_result: PostResult) -> None:
        state = {
            "hops": 0,
            "retries": LOCATE_RETRIES,
            "from_node": from_node,
        }
        self._round(tid, block, state, on_result)

    def _round(self, tid: ThreadId, block: EventBlock, state: dict,
               on_result: PostResult) -> None:
        from_node = state["from_node"]
        others = self._drop_dead(
            from_node, [n for n in self.cluster.kernels if n != from_node])
        if self._accept(from_node, tid, block):
            on_result(True, state["hops"])
            return
        if not others:
            on_result(False, state["hops"])
            return
        pending = {"found": False, "replies": 0, "expected": len(others)}
        state["hops"] += len(others)
        for node in others:
            payload = {"tid": tid, "block": block, "state": state,
                       "pending": pending, "on_result": on_result}
            self._transmit(Message(
                src=from_node, dst=node, mtype=MSG_BCAST_POST, size=128,
                payload=payload),
                lambda m, p=payload: self._probe_lost(p))

    def _probe_lost(self, body: dict) -> None:
        """A probe (or its reply) is undeliverable: count a not-found."""
        self.on_reply(Message(src=-1, dst=-1, mtype=MSG_BCAST_REPLY,
                              payload={**body, "found": False}))

    def on_message(self, message: Message) -> None:
        body = message.payload
        node = int(message.dst)
        found = self._accept(node, body["tid"], body["block"])
        body["state"]["hops"] += 1  # the reply
        payload = {"found": found, "tid": body["tid"],
                   "block": body["block"], "state": body["state"],
                   "pending": body["pending"],
                   "on_result": body["on_result"]}
        self._transmit(Message(
            src=node, dst=body["state"]["from_node"],
            mtype=MSG_BCAST_REPLY, size=64, payload=payload),
            lambda m, p=payload: self.on_reply(
                Message(src=-1, dst=-1, mtype=MSG_BCAST_REPLY, payload=p)))

    def on_reply(self, message: Message) -> None:
        body = message.payload
        pending, state = body["pending"], body["state"]
        pending["replies"] += 1
        if body["found"]:
            pending["found"] = True
        if pending["replies"] < pending["expected"]:
            return
        if pending["found"]:
            body["on_result"](True, state["hops"])
            return
        tid = body["tid"]
        if state["retries"] > 0 and tid in self.cluster.live_threads:
            state["retries"] -= 1
            self._retry_later(
                lambda: self._round(tid, body["block"], state,
                                    body["on_result"]))
            return
        body["on_result"](False, state["hops"])


class MulticastLocator(BaseLocator):
    """Multicast the notice to the thread's member-maintained group."""

    name = LOCATE_MULTICAST

    def post(self, from_node: int, tid: ThreadId, block: EventBlock,
             on_result: PostResult) -> None:
        state = {
            "hops": 0,
            "retries": LOCATE_RETRIES,
            "from_node": from_node,
        }
        self._round(tid, block, state, on_result)

    def _round(self, tid: ThreadId, block: EventBlock, state: dict,
               on_result: PostResult) -> None:
        from_node = state["from_node"]
        groups = self.cluster.fabric.multicast_groups
        members = sorted(groups.members(tid.multicast_group))
        if from_node in members and self._accept(from_node, tid, block):
            on_result(True, state["hops"])
            return
        targets = self._drop_dead(
            from_node, [n for n in members if n != from_node])
        if not targets:
            self._retry_or_fail(tid, block, state, on_result)
            return
        pending = {"found": False, "replies": 0, "expected": len(targets)}
        state["hops"] += len(targets)
        for node in targets:
            payload = {"tid": tid, "block": block, "state": state,
                       "pending": pending, "on_result": on_result}
            self._transmit(Message(
                src=from_node, dst=node, mtype=MSG_MCAST_POST, size=128,
                payload=payload),
                lambda m, p=payload: self._probe_lost(p))

    def _probe_lost(self, body: dict) -> None:
        """A probe (or its reply) is undeliverable: count a not-found."""
        self.on_reply(Message(src=-1, dst=-1, mtype=MSG_MCAST_REPLY,
                              payload={**body, "found": False}))

    def _retry_or_fail(self, tid: ThreadId, block: EventBlock, state: dict,
                       on_result: PostResult) -> None:
        if state["retries"] > 0 and tid in self.cluster.live_threads:
            state["retries"] -= 1
            self._retry_later(
                lambda: self._round(tid, block, state, on_result))
            return
        on_result(False, state["hops"])

    def on_message(self, message: Message) -> None:
        body = message.payload
        node = int(message.dst)
        found = self._accept(node, body["tid"], body["block"])
        body["state"]["hops"] += 1  # the reply
        payload = {"found": found, "tid": body["tid"],
                   "block": body["block"], "state": body["state"],
                   "pending": body["pending"],
                   "on_result": body["on_result"]}
        self._transmit(Message(
            src=node, dst=body["state"]["from_node"],
            mtype=MSG_MCAST_REPLY, size=64, payload=payload),
            lambda m, p=payload: self.on_reply(
                Message(src=-1, dst=-1, mtype=MSG_MCAST_REPLY, payload=p)))

    def on_reply(self, message: Message) -> None:
        body = message.payload
        pending, state = body["pending"], body["state"]
        pending["replies"] += 1
        if body["found"]:
            pending["found"] = True
        if pending["replies"] < pending["expected"]:
            return
        if pending["found"]:
            body["on_result"](True, state["hops"])
            return
        self._retry_or_fail(body["tid"], body["block"], state,
                            body["on_result"])


class CachedLocator(BaseLocator):
    """Post to the hinted node directly; chase TCB pointers on a miss.

    The per-node hint tables live in the kernels
    (:class:`repro.kernel.tcb.LocationHintTable`) and are maintained by
    the event manager's delivery/migration hooks, so hints stay warm
    without any extra round trips. A post is then:

    1. **hit fast path** — one direct message to the hinted node;
    2. **stale hint** — the receiving kernel forwards the notice along
       its TCB ``next_node`` pointer (or its own fresher hint), bounded
       by :data:`LOCATE_RETRIES` forwards;
    3. **fallback** — no hint, dead pointer chain or exhausted budget:
       the configured base strategy (``cache_fallback``) takes over and
       also performs §7.2 dead-target detection.
    """

    name = LOCATE_CACHED

    @property
    def base(self) -> BaseLocator:
        """The fallback strategy instance (shared with the manager)."""
        return self.manager.base_locator(self.cluster.config.cache_fallback)

    def post(self, from_node: int, tid: ThreadId, block: EventBlock,
             on_result: PostResult) -> None:
        state = {"hops": 0,
                 "forwards": LOCATE_RETRIES,
                 "from_node": from_node}
        hint = self.cluster.kernels[from_node].location_hints.get(tid)
        if hint is None or hint == from_node:
            # Cold cache (or a useless self-hint: the local fast path
            # already failed upstream): straight to the base strategy.
            self._fallback(tid, block, state, on_result)
            return
        self._send(from_node, hint, tid, block, state, on_result)

    def _send(self, from_node: int, to_node: int, tid: ThreadId,
              block: EventBlock, state: dict, on_result: PostResult) -> None:
        if from_node == to_node:
            self._arrived(to_node, tid, block, state, on_result)
            return

        def hint_dead(message: Message | None) -> None:
            # The hinted (or forwarded-to) node is unreachable — most
            # likely crashed. The hint is worse than stale: drop it at
            # the origin and let the base strategy find the thread or
            # declare it dead (§7.2).
            self.cluster.kernels[state["from_node"]] \
                .location_hints.invalidate(tid)
            self._fallback(tid, block, state, on_result)

        membership = self._membership(from_node)
        if membership is not None and membership.is_dead(to_node):
            # Confirmed dead by gossip: skip the doomed direct send and
            # go straight to the fallback strategy.
            hint_dead(None)
            return
        state["hops"] += 1
        self._transmit(Message(
            src=from_node, dst=to_node, mtype=MSG_CACHED_POST, size=128,
            payload={"tid": tid, "block": block, "state": state,
                     "on_result": on_result}), hint_dead)

    def on_message(self, message: Message) -> None:
        body = message.payload
        self._arrived(int(message.dst), body["tid"], body["block"],
                      body["state"], body["on_result"])

    def _arrived(self, node: int, tid: ThreadId, block: EventBlock,
                 state: dict, on_result: PostResult) -> None:
        if self._accept(node, tid, block):
            on_result(True, state["hops"])
            return
        # Stale hint: chase the TCB forwarding pointer with the notice
        # itself — the thread invoked onward and this kernel knows where.
        kernel = self.cluster.kernels[node]
        tcb = kernel.thread_table.get(tid)
        next_node = tcb.next_node if tcb is not None else None
        if next_node is None:
            # No TCB (the thread returned past this node): this kernel's
            # own hint table may know where it went.
            fresher = kernel.location_hints.peek(tid)
            if fresher is not None and fresher != node:
                next_node = fresher
        if (next_node is not None and state["forwards"] > 0
                and tid in self.cluster.live_threads):
            state["forwards"] -= 1
            kernel.location_hints.install(tid, next_node)
            self._send(node, next_node, tid, block, state, on_result)
            return
        # Exhausted or dead end: drop the origin's hint so the next post
        # does not repeat the wasted message, then let the base strategy
        # find the thread (or declare it dead, §7.2).
        self.cluster.kernels[state["from_node"]].location_hints.invalidate(
            tid)
        self._fallback(tid, block, state, on_result)

    def _fallback(self, tid: ThreadId, block: EventBlock, state: dict,
                  on_result: PostResult) -> None:
        hops_so_far = state["hops"]

        def relay(delivered: bool, hops: int) -> None:
            on_result(delivered, hops_so_far + hops)

        self.base.post(state["from_node"], tid, block, relay)


def make_locator(name: str, manager: "EventManager") -> BaseLocator:
    """Instantiate the configured strategy."""
    if name == LOCATE_PATH:
        return PathLocator(manager)
    if name == LOCATE_BROADCAST:
        return BroadcastLocator(manager)
    if name == LOCATE_MULTICAST:
        return MulticastLocator(manager)
    if name == LOCATE_CACHED:
        return CachedLocator(manager)
    raise KernelError(f"unknown locator {name!r}")
