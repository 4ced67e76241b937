"""SWIM-style gossip membership with suspicion and refutation.

Every node with ``swim_interval`` set runs the SWIM protocol
(Das/Gupta/Motivala): once per protocol period it pings **one** member
chosen by randomized round-robin, falling back to ``ping-req`` through
:data:`INDIRECT_PROBES` proxies when the direct ack misses a third of
the period. A member that answers neither by the end of the period is
*suspected* and the suspicion is gossiped; unless the accused node
refutes it — by gossiping an ``alive`` update under a **higher
incarnation number** — within three periods, the suspicion is
confirmed and the member is declared *dead* cluster-wide. Updates spread
by piggybacking on existing outbound traffic (the ``Message.gossip``
field, stamped by the fabric's per-source hook) plus SWIM's own probes,
each update carrying an O(log n) retransmit budget — so failure
detection costs O(1) messages per node per period where an all-pairs
heartbeat costs O(n), and dissemination still completes in O(log n)
periods with high probability.

Update ordering (the reason duplicates and stale retransmissions are
harmless):

- ``alive(inc)``  overrides anything with a **lower** incarnation —
  including ``dead``, which is how a recovered node re-enters views.
- ``suspect(inc)`` overrides ``alive(inc)`` of the *same* incarnation
  and anything lower.
- ``dead(inc)`` overrides ``alive``/``suspect`` of the same or lower
  incarnation and is never overridden except by a higher ``alive``.

Only the accused node may bump its own incarnation (it does so when it
hears itself suspected, and on every :meth:`Membership.rejoin`). The
incarnation counter survives :meth:`Kernel.crash` on this object — like
``ReliableChannel.next_seq`` — modelling the stable identity a real
implementation would persist; everything else here is volatile.

With ``swim_interval`` left at None (the default) the whole layer is
inert: no timers, no messages, no RNG streams, no state transitions —
same-seed digests are bit-identical to a build without it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.node import Kernel

MSG_SWIM_PING = "swim.ping"
MSG_SWIM_ACK = "swim.ack"
MSG_SWIM_PING_REQ = "swim.ping-req"
MSG_SWIM_GOSSIP = "swim.gossip"

#: member states carried in updates (wire-stable small ints)
ALIVE = 0
SUSPECT = 1
DEAD = 2
STATE_NAMES = {ALIVE: "alive", SUSPECT: "suspect", DEAD: "dead"}

#: proxies asked to ping an unresponsive target (the SWIM k parameter);
#: also the fan-out of a join/leave announcement
INDIRECT_PROBES = 3
#: most membership updates piggybacked on one outbound message
GOSSIP_MAX = 6


class Membership:
    """Per-node SWIM protocol instance and dynamic membership view.

    The view API consumers use:

    - :meth:`alive` / :meth:`is_alive` — members currently believed up
      (suspects excluded: they are *probably* failing).
    - :meth:`members` / :meth:`is_member` — everyone not confirmed
      dead. Locators target this set: a suspect may still hold the
      thread, only a confirmed-dead node is skipped.
    - :meth:`is_suspected` / :meth:`is_failed` / :meth:`is_dead` —
      suspicion is a *hint* (Chandra-Toueg unreliable detector), death
      is the protocol's settled verdict; both are still only local
      belief, never proof.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        #: my incarnation number; bumped only by me (refutation, rejoin)
        self.incarnation = 0
        #: peer node -> (state, incarnation); never contains me
        self._status: dict[int, tuple[int, int]] = {}
        #: dissemination queue: node -> (state, inc, remaining budget)
        self._updates: dict[int, tuple[int, int, int]] = {}
        #: suspected peer -> armed suspicion timer id
        self._suspect_timers: dict[int, int] = {}
        #: shuffled round-robin probe order (popped from the end)
        self._probe_queue: list[int] = []
        self._probe: tuple[int, int] | None = None
        self._probe_acked = False
        self._seq = 0
        self._timer: int | None = None
        self._rng = None
        self._gossip_budget = 1
        #: (virtual time, peer, state name, incarnation) per local view
        #: transition — how the E16 bench measures detection latency
        self.transitions: list[tuple[float, int, str, int]] = []
        self.pings_sent = 0
        self.acks_sent = 0
        self.ping_reqs_sent = 0
        self.ping_reqs_relayed = 0
        self.gossip_sent = 0
        self.updates_piggybacked = 0
        self.updates_received = 0
        self.suspicions = 0
        self.confirms = 0
        self.refutations = 0
        self.resurrections = 0
        self.rejoins = 0
        self.leaves = 0

    @property
    def enabled(self) -> bool:
        return self.kernel.config.swim_interval is not None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the protocol timer (cluster boot and node rejoin)."""
        if not self.enabled or self.kernel.crashed:
            return
        cfg = self.kernel.config
        me = self.kernel.node_id
        if self._rng is None:
            self._rng = self.kernel.cluster.rng.stream(f"swim.{me}")
        # Retransmit budget per update: lambda * log n spreads an update
        # cluster-wide with high probability (SWIM section 4.1).
        self._gossip_budget = max(
            1, 3 * (int(math.log2(max(2, cfg.n_nodes))) + 1))
        for node in range(cfg.n_nodes):
            if node != me:
                self._status.setdefault(node, (ALIVE, 0))
        if self._timer is None and cfg.n_nodes > 1:
            self._timer = self.kernel.timers.set(
                cfg.swim_interval, self._tick, recurring=True)
        self.kernel.fabric.set_gossip_hook(me, self._piggyback)

    def on_crash(self) -> None:
        """Volatile protocol state dies with the node; the incarnation
        counter survives (the timer itself is cancelled by the kernel's
        ``timers.cancel_all``)."""
        self._timer = None
        self._status.clear()
        self._updates.clear()
        self._suspect_timers.clear()
        self._probe_queue.clear()
        self._probe = None
        self._probe_acked = False

    def rejoin(self) -> None:
        """Re-enter the cluster after :meth:`Kernel.recover`.

        The incarnation bump lets the join's ``alive`` update override
        any ``suspect``/``dead`` verdict peers settled on while we were
        down; the optimistic all-alive reset is corrected by the first
        few gossip exchanges.
        """
        if not self.enabled:
            return
        self.incarnation += 1
        self.rejoins += 1
        self.start()
        self._queue_update(self.kernel.node_id, ALIVE, self.incarnation)
        self._announce()
        if "membership" not in self.kernel.tracer.muted:
            self.kernel.tracer.emit("membership", "rejoin",
                                    node=self.kernel.node_id,
                                    incarnation=self.incarnation)

    def leave(self) -> None:
        """Graceful departure: tell a few peers we are dead *now*, so
        views converge without waiting out a suspicion cycle. Call just
        before :meth:`Kernel.crash`; rejoining later bumps the
        incarnation past this verdict."""
        if not self.enabled or self.kernel.crashed:
            return
        self.leaves += 1
        self._queue_update(self.kernel.node_id, DEAD, self.incarnation)
        self._announce()
        if "membership" not in self.kernel.tracer.muted:
            self.kernel.tracer.emit("membership", "leave",
                                    node=self.kernel.node_id,
                                    incarnation=self.incarnation)

    def _announce(self) -> None:
        """Push the queued self-update directly to a handful of alive
        peers (join and leave shouldn't wait for piggyback traffic)."""
        me = self.kernel.node_id
        state, inc, _budget = self._updates[me]
        update = ((me, state, inc),)
        peers = [n for n in sorted(self._status)
                 if self._status[n][0] == ALIVE]
        if len(peers) > INDIRECT_PROBES:
            peers = self._rng.sample(peers, INDIRECT_PROBES)
        for peer in peers:
            self.gossip_sent += 1
            self.kernel.send(peer, MSG_SWIM_GOSSIP, {"updates": update},
                             size=16)

    # ------------------------------------------------------------------
    # view API
    # ------------------------------------------------------------------

    def alive(self) -> list[int]:
        """Members currently believed up (me included, suspects out)."""
        out = [n for n, (state, _inc) in self._status.items()
               if state == ALIVE]
        if not self.kernel.crashed:
            out.append(self.kernel.node_id)
        return sorted(out)

    def members(self) -> list[int]:
        """Everyone not confirmed dead (me included)."""
        out = [n for n, (state, _inc) in self._status.items()
               if state != DEAD]
        if not self.kernel.crashed:
            out.append(self.kernel.node_id)
        return sorted(out)

    def failed(self) -> list[int]:
        """Peers suspected or confirmed dead (see :meth:`is_failed`)."""
        return sorted(n for n, (state, _inc) in self._status.items()
                      if state != ALIVE)

    def is_alive(self, node: int) -> bool:
        if node == self.kernel.node_id:
            return not self.kernel.crashed
        state, _inc = self._status.get(node, (ALIVE, 0))
        return state == ALIVE

    def is_member(self, node: int) -> bool:
        if node == self.kernel.node_id:
            return not self.kernel.crashed
        state, _inc = self._status.get(node, (ALIVE, 0))
        return state != DEAD

    def is_suspected(self, node: int) -> bool:
        state, _inc = self._status.get(node, (ALIVE, 0))
        return state == SUSPECT

    def is_dead(self, node: int) -> bool:
        state, _inc = self._status.get(node, (ALIVE, 0))
        return state == DEAD

    def is_failed(self, node: int) -> bool:
        """Suspected or confirmed dead — the failure-detector hint the
        buddy retry and outbox flush gate consult."""
        state, _inc = self._status.get(node, (ALIVE, 0))
        return state != ALIVE

    # ------------------------------------------------------------------
    # protocol period
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        if self.kernel.crashed:
            return
        # Settle the previous round first: neither the direct ack nor
        # any proxied ack arrived within a full period -> suspect.
        if self._probe is not None and not self._probe_acked:
            target, _seq = self._probe
            state, inc = self._status.get(target, (ALIVE, 0))
            if state == ALIVE:
                self._apply(target, SUSPECT, inc)
        self._probe = None
        target = self._next_target()
        if target is None:
            return
        self._seq += 1
        self._probe = (target, self._seq)
        self._probe_acked = False
        self.pings_sent += 1
        self.kernel.send(target, MSG_SWIM_PING,
                         {"seq": self._seq, "origin": self.kernel.node_id,
                          "target": target}, size=16)
        self.sim.call_after(self.kernel.config.swim_interval / 3.0,
                            self._ping_timeout, target, self._seq)

    def _next_target(self) -> int | None:
        """Randomized round-robin: shuffle the member list, probe it to
        exhaustion, reshuffle — every member is probed within 2n - 1
        periods of joining the queue (SWIM's time-bounded completeness),
        with no fixed order for an adversary or correlated failure to
        exploit."""
        while True:
            while self._probe_queue:
                node = self._probe_queue.pop()
                state, _inc = self._status.get(node, (DEAD, 0))
                if state != DEAD:
                    return node
            members = [n for n in sorted(self._status)
                       if self._status[n][0] != DEAD]
            if not members:
                return None
            self._rng.shuffle(members)
            self._probe_queue = members

    def _ping_timeout(self, target: int, seq: int) -> None:
        """Direct ack missed: ask a few alive proxies to ping on our behalf
        (disambiguates a dead target from a lossy/slow direct link)."""
        if (self.kernel.crashed or self._probe != (target, seq)
                or self._probe_acked):
            return
        candidates = [n for n in sorted(self._status)
                      if self._status[n][0] == ALIVE and n != target]
        proxies = (self._rng.sample(candidates, INDIRECT_PROBES)
                   if len(candidates) > INDIRECT_PROBES else candidates)
        for proxy in proxies:
            self.ping_reqs_sent += 1
            self.kernel.send(proxy, MSG_SWIM_PING_REQ,
                             {"seq": seq, "origin": self.kernel.node_id,
                              "target": target}, size=24)

    # ------------------------------------------------------------------
    # message handlers (kernel dispatch entries)
    # ------------------------------------------------------------------

    def on_ping(self, message: Message) -> None:
        self.acks_sent += 1
        self.kernel.send(message.src, MSG_SWIM_ACK,
                         dict(message.payload), size=16)

    def on_ping_req(self, message: Message) -> None:
        payload = message.payload
        self.ping_reqs_relayed += 1
        self.kernel.send(payload["target"], MSG_SWIM_PING,
                         dict(payload), size=16)

    def on_ack(self, message: Message) -> None:
        payload = message.payload
        if payload["origin"] == self.kernel.node_id:
            if (self._probe == (payload["target"], payload["seq"])
                    and not self._probe_acked):
                self._probe_acked = True
        else:
            # We proxied this probe; relay the evidence to its origin.
            self.kernel.send(payload["origin"], MSG_SWIM_ACK,
                             dict(payload), size=16)

    def on_gossip_msg(self, message: Message) -> None:
        """Dedicated gossip carrier (joins, leaves, refutations); the
        updates themselves may ride either the payload or the
        envelope's gossip field."""
        payload = message.payload
        if payload and payload.get("updates"):
            self.on_gossip(payload["updates"], message.src)

    def on_gossip(self, updates: tuple, src: int) -> None:
        """Apply piggybacked updates (called for every arriving envelope
        that carries them, before dispatch — duplicates included, which
        incarnation ordering makes idempotent)."""
        if not self.enabled or self.kernel.crashed:
            return
        refuted = False
        for node, state, inc in updates:
            self.updates_received += 1
            if self._apply(node, state, inc) and node == self.kernel.node_id:
                refuted = True
        if refuted and src >= 0:
            # Answer the accuser directly: the refutation must outrun
            # the suspicion timer even when piggyback traffic is thin.
            self.gossip_sent += 1
            self.kernel.send(
                src, MSG_SWIM_GOSSIP,
                {"updates": ((self.kernel.node_id, ALIVE,
                              self.incarnation),)}, size=16)

    # ------------------------------------------------------------------
    # update core
    # ------------------------------------------------------------------

    @staticmethod
    def _supersedes(state: int, inc: int, cur_state: int,
                    cur_inc: int) -> bool:
        if state == ALIVE:
            return inc > cur_inc
        if state == SUSPECT:
            return inc > cur_inc or (inc == cur_inc and cur_state == ALIVE)
        # DEAD: final for its incarnation; only a higher alive revives.
        return cur_state != DEAD and inc >= cur_inc

    def _apply(self, node: int, state: int, inc: int) -> bool:
        """Merge one update into the local view. Returns True when it
        changed something (for me: when it triggered a refutation)."""
        me = self.kernel.node_id
        if node == me:
            # Someone thinks I'm failing. I am demonstrably not: bump my
            # incarnation and gossip the refutation (only I may do this).
            if state != ALIVE and inc >= self.incarnation:
                self.incarnation = inc + 1
                self.refutations += 1
                self._queue_update(me, ALIVE, self.incarnation)
                if "membership" not in self.kernel.tracer.muted:
                    self.kernel.tracer.emit("membership", "refute", node=me,
                                            incarnation=self.incarnation)
                return True
            return False
        cur_state, cur_inc = self._status.get(node, (ALIVE, 0))
        if not self._supersedes(state, inc, cur_state, cur_inc):
            return False
        self._status[node] = (state, inc)
        self._queue_update(node, state, inc)
        if state == SUSPECT:
            self.suspicions += 1
            self._arm_suspect_timer(node)
        else:
            timer_id = self._suspect_timers.pop(node, None)
            if timer_id is not None:
                self.kernel.timers.cancel(timer_id)
            if state == DEAD:
                self.confirms += 1
            elif cur_state == DEAD:
                self.resurrections += 1
        self.transitions.append(
            (self.sim.now, node, STATE_NAMES[state], inc))
        if "membership" not in self.kernel.tracer.muted:
            self.kernel.tracer.emit("membership", STATE_NAMES[state], node=me,
                                    peer=node, incarnation=inc)
        return True

    def _arm_suspect_timer(self, node: int) -> None:
        if node in self._suspect_timers:
            return
        self._suspect_timers[node] = self.kernel.timers.set(
            3.0 * self.kernel.config.swim_interval,
            self._suspect_expired, node)

    def _suspect_expired(self, node: int) -> None:
        self._suspect_timers.pop(node, None)
        if self.kernel.crashed:
            return
        state, inc = self._status.get(node, (ALIVE, 0))
        if state == SUSPECT:
            # No refutation inside the window: the suspicion stands.
            self._apply(node, DEAD, inc)

    def _queue_update(self, node: int, state: int, inc: int) -> None:
        self._updates[node] = (state, inc, self._gossip_budget)

    # ------------------------------------------------------------------
    # piggyback dissemination
    # ------------------------------------------------------------------

    def _piggyback(self, dst: int) -> tuple | None:
        """Fabric per-source hook: updates to ride an outbound envelope.

        Freshest (highest remaining budget) first, node id as the
        deterministic tie-break; each transmission spends one unit of
        the update's budget and a spent update leaves the queue.
        """
        if (dst == self.kernel.node_id or self.kernel.crashed
                or not self._updates):
            return None
        picked = sorted(self._updates.items(),
                        key=lambda kv: (-kv[1][2], kv[0]))[:GOSSIP_MAX]
        out = []
        for node, (state, inc, budget) in picked:
            out.append((node, state, inc))
            if budget <= 1:
                del self._updates[node]
            else:
                self._updates[node] = (state, inc, budget - 1)
        self.updates_piggybacked += len(out)
        return tuple(out)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        states = [state for state, _inc in self._status.values()]
        return {
            "pings_sent": self.pings_sent,
            "acks_sent": self.acks_sent,
            "ping_reqs_sent": self.ping_reqs_sent,
            "ping_reqs_relayed": self.ping_reqs_relayed,
            "gossip_sent": self.gossip_sent,
            "updates_piggybacked": self.updates_piggybacked,
            "updates_received": self.updates_received,
            "suspicions": self.suspicions,
            "confirms": self.confirms,
            "refutations": self.refutations,
            "resurrections": self.resurrections,
            "rejoins": self.rejoins,
            "leaves": self.leaves,
            "view_alive": states.count(ALIVE),
            "view_suspect": states.count(SUSPECT),
            "view_dead": states.count(DEAD),
        }
