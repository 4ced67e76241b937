"""At-least-once transport on top of the lossy fabric.

The fabric models a real datagram network: messages are dropped,
duplicated, and black-holed by crashed nodes. Everything above it in the
seed tree is fire-and-forget, so any ``drop_rate > 0`` silently loses
events and hangs raisers — exactly the failure §7.2 of the paper wants
surfaced as a bounded-time notification instead.

:class:`ReliableChannel` closes that gap with the classic recipe, tuned
with the equally classic fast-path optimisations (delayed/cumulative
acks and piggybacking, as in TCP; one timer per peer, as in every real
transport):

- each node stamps outbound point-to-point messages with a **per-peer**
  sequence number (the :attr:`~repro.net.message.Message.rel` header),
  so a receiver's acknowledgement state per sender is a single integer;
- the receiver acknowledges **cumulatively**: an ack carries the highest
  sequence number below which everything from that sender has arrived,
  plus a bounded selective summary of out-of-order arrivals above it
  (so a receiver that crashed and lost its floor — the prefix below a
  live sender's next seq will never arrive — still retires the sender's
  pending entries instead of forcing give-ups forever). Acks are
  coalesced — an arrival schedules one ack per peer after ``ack_delay``
  virtual seconds, and every further arrival from that peer inside the
  window rides the same ack — and **piggybacked**: when the window holds
  no out-of-order seqs, any reverse-direction data message sent inside
  it carries the cumulative value in its
  :attr:`~repro.net.message.Message.ack` field and cancels the dedicated
  envelope. Duplicate arrivals flush the ack immediately (the earlier
  ack was evidently lost or late, and the sender is retransmitting on a
  timer);
- the sender keeps **one retransmission timer per peer**, driving the
  oldest unacked message with exponential backoff until it is acked or
  ``max_retransmits`` attempts are exhausted, at which point it gives up
  and invokes the caller's ``on_give_up`` hook. One timer per peer —
  rather than one per message — cuts simulator heap traffic from
  O(messages) to O(peers);
- the receiver suppresses duplicates (retransmissions and fault-injected
  copies alike) with the per-sender cumulative floor plus a bounded
  out-of-order window.

Combined with the per-thread event-block dedup window this yields
exactly-once *handler execution* even though the wire is at-least-once.
All scheduling runs on the deterministic simulator clock, so same-seed
runs stay bit-identical.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable

from repro.net.fabric import Fabric
from repro.net.message import Message
from repro.sim.scheduler import Simulator

MSG_REL_ACK = "rel.ack"

#: Bound on the selective summary in one ack envelope; the lowest seqs
#: go first so the sender's oldest pending entries retire soonest.
SEL_ACK_LIMIT = 256

#: Timeout multiplier per retransmission (attempt k waits
#: ``rto_base * RETRANSMIT_BACKOFF ** (k - 1)``).
RETRANSMIT_BACKOFF = 2.0

GiveUpFn = Callable[[Message], None]


class _Pending:
    """Sender-side state for one unacked message (``send`` fills the
    slots of a bare instance: no ``__init__`` frame)."""

    __slots__ = ("message", "dst", "attempts", "on_give_up")


class _Peer:
    """Sender-side per-peer state: a sequence space and one timer.

    ``pending`` is insertion-ordered, and sequence numbers only grow, so
    its first entry is always the oldest unacked message — the one the
    retransmission timer drives.

    With flow control on, ``window`` is the peer's current credit
    allowance (AIMD: halved on retransmission, +1 per productive ack,
    capped at the configured ``flow_credits``) and ``parked`` holds
    sends awaiting a credit, in submission order. ``inflight_hwm``
    tracks the high-water mark of unacked depth either way.
    """

    __slots__ = ("next_seq", "pending", "timer", "window", "parked",
                 "inflight_hwm")

    def __init__(self, window: int | None) -> None:
        self.next_seq = 0
        self.pending: OrderedDict[int, _Pending] = OrderedDict()
        self.timer: list | None = None
        self.window = window
        self.parked: deque[tuple[Message, GiveUpFn | None]] = deque()
        self.inflight_hwm = 0


class ReliableChannel:
    """Per-node reliable send/receive endpoint.

    Parameters
    ----------
    sim, fabric, node_id:
        The node's simulator, fabric, and identity.
    rto_base:
        First retransmission timeout (virtual seconds).
    max_retransmits:
        Retransmission budget before :meth:`send` gives up and calls the
        caller's ``on_give_up`` hook.
    dedup_window:
        Bound on remembered out-of-order sequence numbers per sender.
    ack_delay:
        Coalescing window (virtual seconds): arrivals from one peer
        share a single cumulative ack scheduled this long after the
        first of them. ``0`` acknowledges every arrival immediately
        (still cumulatively). Must stay well below ``rto_base`` plus the
        link round trip or delayed acks cause spurious retransmissions.
    flow_credits:
        Credit-based flow control: at most this many unacked messages
        outstanding per peer. Excess sends park in submission order and
        drain as cumulative acks replenish credits; the per-peer window
        is halved on retransmission and recovered one credit per
        productive ack (AIMD). ``None`` (the default) disables flow
        control — unbounded in-flight, the pre-knob behaviour.
    """

    def __init__(self, sim: Simulator, fabric: Fabric, node_id: int, *,
                 rto_base: float = 4e-3, max_retransmits: int = 10,
                 dedup_window: int = 1024, ack_delay: float = 1e-3,
                 flow_credits: int | None = None) -> None:
        self.sim = sim
        self.fabric = fabric
        self.node_id = node_id
        self.rto_base = float(rto_base)
        self.max_retransmits = int(max_retransmits)
        self.dedup_window = int(dedup_window)
        self.ack_delay = float(ack_delay)
        self.flow_credits = (None if flow_credits is None
                             else int(flow_credits))
        self._peers: dict[int, _Peer] = {}
        # receiver side: per-sender cumulative floor (every seq <= floor
        # already seen) plus the out-of-order seqs above it
        self._floor: dict[int, int] = {}
        self._seen: dict[int, set[int]] = {}
        #: per-sender handle of the scheduled coalesced ack, if any
        self._ack_timer: dict[int, list] = {}
        self.sends = 0
        self.retransmits = 0
        self.gave_up = 0
        self.acks_sent = 0
        self.acks_piggybacked = 0
        #: arrivals whose ack was coalesced into an already-pending one
        self.acks_coalesced = 0
        self.duplicates_suppressed = 0
        #: acks that failed payload validation (non-dict, missing/bad cum)
        self.bad_acks = 0
        #: well-formed acks that acknowledged nothing new
        self.stale_acks = 0
        #: sends parked for lack of credits (flow control only)
        self.flow_parked = 0
        #: AIMD window halvings on retransmission (flow control only)
        self.flow_halvings = 0

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------

    def send(self, message: Message,
             on_give_up: GiveUpFn | None = None) -> None:
        """Send ``message``, retransmitting until acked or budget spent.

        Broadcast/multicast destinations and node-local messages bypass
        the reliability machinery (the local loopback never drops, and
        group delivery has no single acker); they go straight to the
        fabric. With flow control on, a send beyond the peer's credit
        window parks instead of hitting the fabric and drains later as
        acks replenish credits.
        """
        dst = message.dst
        if not isinstance(dst, int) or dst == self.node_id:
            self.fabric.send(message)
            return
        peer = self._peers.get(dst)
        if peer is None:
            peer = self._peers[dst] = _Peer(self.flow_credits)
        if (peer.window is not None
                and (peer.parked or len(peer.pending) >= peer.window)):
            peer.parked.append((message, on_give_up))
            self.flow_parked += 1
            return
        peer.next_seq += 1
        seq = peer.next_seq
        message.rel = (self.node_id, seq)
        pending = object.__new__(_Pending)
        pending.message, pending.dst = message, dst
        pending.attempts, pending.on_give_up = 1, on_give_up
        peer.pending[seq] = pending
        if len(peer.pending) > peer.inflight_hwm:
            peer.inflight_hwm = len(peer.pending)
        self.sends += 1
        if dst in self._ack_timer:
            self._maybe_piggyback(message, dst)
        self.fabric.send(message)
        if peer.timer is None:
            peer.timer = self.sim.call_after(
                self.rto_base, self._peer_timeout, dst)

    #: ``send`` for a parked message, out of reach of a wrapper installed
    #: on ``send`` (E17's tracer counts each message's send once)
    _send = send

    def _dispatch(self, peer: _Peer, message: Message,
                  on_give_up: GiveUpFn | None) -> None:
        """Send a parked message its credit came free for: ``send``'s
        own stamping, with the queue behind it set aside for the call."""
        parked, peer.parked = peer.parked, deque()
        self._send(message, on_give_up)
        peer.parked = parked

    def _unpark(self, peer: _Peer, dst: int) -> None:
        """Drain parked sends into whatever credit window is free."""
        while peer.parked and len(peer.pending) < peer.window:
            message, on_give_up = peer.parked.popleft()
            self._dispatch(peer, message, on_give_up)

    def _maybe_piggyback(self, message: Message, dst: int) -> None:
        """Fold a pending delayed ack into an outbound data message.

        Only pure-cumulative acks ride piggyback: if out-of-order seqs
        are outstanding, the peer needs the selective summary too, and
        that travels in the dedicated envelope only.
        """
        if dst not in self._ack_timer:
            return
        if self._seen.get(dst):
            return
        self.sim.cancel(self._ack_timer.pop(dst))
        message.ack = self._floor.get(dst, 0)
        self.acks_piggybacked += 1

    def _peer_timeout(self, dst: int) -> None:
        """The per-peer timer fired: drive the oldest unacked message."""
        peer = self._peers.get(dst)
        if peer is None:
            return
        peer.timer = None
        while peer.pending:
            seq, pending = next(iter(peer.pending.items()))
            if pending.attempts <= self.max_retransmits:
                break
            # Budget exhausted for the oldest entry: give up on it and
            # fall through to the next-oldest, which inherits the timer.
            del peer.pending[seq]
            self.gave_up += 1
            if pending.on_give_up is not None:
                pending.on_give_up(pending.message)
        if not peer.pending:
            if peer.window is not None:
                # Give-ups freed the whole window; parked sends get
                # their chance (each with a fresh retransmit budget).
                self._unpark(peer, dst)
            return
        if peer.window is not None:
            # Multiplicative decrease: the timeout is the loss signal.
            if peer.window > 1:
                peer.window = max(1, peer.window // 2)
                self.flow_halvings += 1
        pending.attempts += 1
        self.retransmits += 1
        # Re-send the same envelope object: the rel header is what the
        # receiver deduplicates on, so reusing it is the whole point. A
        # fresher cumulative ack may ride along (the stale one already on
        # the envelope is harmless either way — acks are monotonic).
        self._maybe_piggyback(pending.message, dst)
        self.fabric.send(pending.message)
        delay = self.rto_base * (RETRANSMIT_BACKOFF ** (pending.attempts - 1))
        peer.timer = self.sim.call_after(delay, self._peer_timeout, dst)

    @staticmethod
    def _valid_seq(value: object) -> bool:
        return (isinstance(value, int) and not isinstance(value, bool)
                and value >= 0)

    def on_ack(self, message: Message) -> None:
        """Kernel dispatch entry for :data:`MSG_REL_ACK`.

        Validates the payload instead of trusting it: a malformed ack
        (fuzzed, corrupted, or from a future protocol revision) is
        counted and dropped, never raised through the kernel dispatch.
        """
        payload = message.payload
        cum = payload.get("cum") if isinstance(payload, dict) else None
        if not self._valid_seq(cum):
            self.bad_acks += 1
            return
        sel = payload.get("sel", ())
        if not isinstance(sel, (list, tuple)):
            self.bad_acks += 1
            return
        for seq in sel:  # ``_valid_seq`` of each, in one loop
            if not (isinstance(seq, int) and not isinstance(seq, bool)
                    and seq >= 0):
                self.bad_acks += 1
                return
        self._apply_ack(message.src, cum, sel)

    def on_cum_ack(self, src: int, cum: int) -> None:
        """Apply a pure cumulative ack from ``src`` covering ``seq <= cum``.

        The entry point for piggybacked acks (the ``ack`` field of any
        arriving data message). Idempotent: duplicate and reordered acks
        acknowledge nothing new and are counted as stale.
        """
        if not self._valid_seq(cum):
            self.bad_acks += 1
            return
        self._apply_ack(src, cum, ())

    def _apply_ack(self, src: int, cum: int, sel) -> None:
        peer = self._peers.get(src)
        if peer is None or not peer.pending:
            self.stale_acks += 1
            return
        oldest_before = next(iter(peer.pending))
        popped = 0
        while peer.pending:
            seq = next(iter(peer.pending))
            if seq > cum:
                break
            del peer.pending[seq]
            popped += 1
        for seq in sel:
            if seq in peer.pending:
                del peer.pending[seq]
                popped += 1
        if popped == 0:
            self.stale_acks += 1
            return
        if peer.window is not None and peer.window < self.flow_credits:
            # Additive increase: one credit back per productive ack.
            peer.window += 1
        if not peer.pending:
            if peer.timer is not None:
                self.sim.cancel(peer.timer)
                peer.timer = None
        else:
            oldest = next(iter(peer.pending))
            if oldest != oldest_before:
                # The timed entry retired; the new oldest inherits the
                # timer at its own backoff.
                if peer.timer is not None:
                    self.sim.cancel(peer.timer)
                attempts = next(iter(peer.pending.values())).attempts
                delay = self.rto_base * (RETRANSMIT_BACKOFF ** (attempts - 1))
                peer.timer = self.sim.call_after(
                    delay, self._peer_timeout, src)
        if peer.window is not None:
            self._unpark(peer, src)

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------

    def accept(self, message: Message) -> bool:
        """Note a rel-stamped arrival; return False if it is a duplicate.

        Called by the kernel before dispatching any message carrying a
        reliability header. Always arranges an acknowledgement (the
        earlier ack may have been lost): fresh in-order traffic shares
        the coalesced per-peer ack, while duplicates — evidence the
        sender is retransmitting — flush it immediately.
        """
        sender, seq = message.rel  # type: ignore[misc]
        floor = self._floor.get(sender, 0)
        if seq == floor + 1 and not self._seen.get(sender):
            # In order with nothing held above the floor: the floor moves
            # by one and no out-of-order set is built or touched, and
            # the arrival rides the pending ack if there is one.
            self._floor[sender] = seq
            if sender in self._ack_timer:
                self.acks_coalesced += 1
            else:
                self._schedule_ack(sender)
            return True
        seen = self._seen.setdefault(sender, set())
        if seq <= floor or seq in seen:
            self.duplicates_suppressed += 1
            self._flush_ack(sender)
            return False
        seen.add(seq)
        # advance the cumulative floor over any now-contiguous prefix
        while floor + 1 in seen:
            floor += 1
            seen.discard(floor)
        self._floor[sender] = floor
        # bound memory: with a full window, forget the oldest seqs — at
        # worst a very late duplicate gets re-dispatched, and the
        # per-thread block dedup still suppresses re-execution
        if len(seen) > self.dedup_window:
            trim = sorted(seen)[:len(seen) - self.dedup_window]
            for stale in trim:
                seen.discard(stale)
            # Gaps below the trimmed seqs can only be filled by sends
            # their sender has long since given up on (or that predate a
            # crash that wiped this floor); jump the floor forward so
            # cumulative acks resume covering new traffic. At worst an
            # extremely late first arrival is suppressed as a duplicate,
            # the same tradeoff the trim itself already makes.
            if trim[-1] > floor:
                floor = trim[-1]
                while floor + 1 in seen:
                    floor += 1
                    seen.discard(floor)
                self._floor[sender] = floor
        self._schedule_ack(sender)
        return True

    def _schedule_ack(self, sender: int) -> None:
        if sender in self._ack_timer:
            self.acks_coalesced += 1
            return
        if self.ack_delay <= 0:
            self._send_ack(sender)
            return
        self._ack_timer[sender] = self.sim.call_after(
            self.ack_delay, self._ack_timer_fired, sender)

    def _ack_timer_fired(self, sender: int) -> None:
        self._ack_timer.pop(sender, None)
        self._send_ack(sender)

    def _flush_ack(self, sender: int) -> None:
        """Send the cumulative ack now, collapsing any pending window."""
        timer = self._ack_timer.pop(sender, None)
        if timer is not None:
            self.sim.cancel(timer)
        self._send_ack(sender)

    def _send_ack(self, sender: int) -> None:
        self.acks_sent += 1
        payload: dict = {"cum": self._floor.get(sender, 0)}
        size = 32
        seen = self._seen.get(sender)
        if seen:
            sel = tuple(sorted(seen)[:SEL_ACK_LIMIT])
            payload["sel"] = sel
            size += 8 * len(sel)
        self.fabric.send(Message(self.node_id, sender, MSG_REL_ACK, payload,
                                 size))

    # ------------------------------------------------------------------
    # lifecycle / reporting
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Discard all volatile state (the node crashed)."""
        for peer in self._peers.values():
            if peer.timer is not None:
                self.sim.cancel(peer.timer)
                peer.timer = None
            peer.pending.clear()
            # Parked sends die with the crash too (they were never on
            # the wire; durable ones are re-issued from the journal).
            peer.parked.clear()
            if peer.window is not None:
                peer.window = self.flow_credits
            # Sequence numbers keep counting up across the crash so the
            # recovered node's fresh sends are not mistaken for
            # duplicates (next_seq survives in the peer record).
        for timer in self._ack_timer.values():
            self.sim.cancel(timer)
        self._ack_timer.clear()
        self._floor.clear()
        self._seen.clear()

    def next_seq_for(self, dst: int) -> int:
        """Last sequence number assigned toward ``dst`` (diagnostics)."""
        peer = self._peers.get(dst)
        return peer.next_seq if peer is not None else 0

    def peer_stats(self) -> dict[int, dict[str, int]]:
        """Per-peer in-flight depth, high-water mark, credit window and
        parked-queue length (the depths the overload controller and the
        E13 bench read)."""
        out: dict[int, dict[str, int]] = {}
        for dst, peer in self._peers.items():
            out[dst] = {
                "inflight": len(peer.pending),
                "inflight_hwm": peer.inflight_hwm,
                "window": (peer.window if peer.window is not None
                           else -1),
                "parked": len(peer.parked),
            }
        return out

    def stats(self) -> dict[str, int]:
        stats = {"sends": self.sends, "retransmits": self.retransmits,
                 "gave_up": self.gave_up, "acks_sent": self.acks_sent,
                 "acks_piggybacked": self.acks_piggybacked,
                 "acks_coalesced": self.acks_coalesced,
                 "bad_acks": self.bad_acks, "stale_acks": self.stale_acks,
                 "duplicates_suppressed": self.duplicates_suppressed,
                 "pending": sum(len(p.pending)
                                for p in self._peers.values())}
        if self.flow_credits is not None:
            # Only present with the knob on: knobs-off runs keep the
            # exact pre-flow-control stats shape (digest discipline).
            stats["flow_parked"] = self.flow_parked
            stats["flow_halvings"] = self.flow_halvings
            stats["flow_queued"] = sum(len(p.parked)
                                       for p in self._peers.values())
            stats["inflight_hwm"] = max(
                (p.inflight_hwm for p in self._peers.values()),
                default=0)
        return stats
