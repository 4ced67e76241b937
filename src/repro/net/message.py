"""Message envelope used by the simulated fabric.

All inter-kernel communication — invocation requests, event notices, page
transfers, locate probes — travels as :class:`Message` envelopes. The
``mtype`` string doubles as the key for per-type statistics, so every
subsystem defines its message types as module-level constants (see e.g.
:mod:`repro.kernel.rpc`). An envelope has one destination node: the §7.1
broadcast and multicast locators send one probe per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class Message:
    """An envelope in flight between two nodes.

    ``slots=True``: envelopes are the highest-volume allocation in a
    run (every post, ack and probe is one), so the per-instance dict
    was pure hot-path overhead. The library builds it positionally,
    ``Message(src, dst, mtype, payload, size)``: a keyword call's
    kwargs dict cost more than the ``__init__`` itself.

    Attributes
    ----------
    src, dst:
        Node ids: every envelope is point to point.
    mtype:
        Message type tag (e.g. ``"rpc.request"``, ``"event.post"``).
    payload:
        Arbitrary structured content. The fabric never inspects it.
    size:
        Nominal size in bytes; used by bandwidth-aware latency models and
        traffic statistics. Defaults to 64 (a small control message).
    msg_id:
        Assigned by the fabric as the envelope goes out (0 until then):
        unique per fabric, for trace matching.
    rel:
        Reliability header, or ``None`` for fire-and-forget traffic. Set
        by :class:`~repro.net.reliable.ReliableChannel` to the
        ``(sender node, link sequence number)`` pair that receivers ack
        and deduplicate on. Retransmissions and fault-injected duplicates
        carry the same header, so exactly one copy is dispatched.
    ack:
        Piggybacked cumulative acknowledgement, or ``None``. Set by the
        sending node's :class:`~repro.net.reliable.ReliableChannel` when
        a delayed ack to ``dst`` is outstanding: the value acknowledges
        every sequence number the sender has received *in order* from
        ``dst``, saving the dedicated ``rel.ack`` envelope. Cumulative
        acks are monotonic and idempotent, so a stale value riding a
        retransmitted envelope is harmless.
    gossip:
        Piggybacked SWIM membership updates, or ``None`` (always
        ``None`` unless ``ClusterConfig.swim_interval`` is set). A
        tuple of ``(node, state, incarnation)`` triples stamped by the
        fabric's per-source gossip hook on the way out
        (:meth:`~repro.net.fabric.Fabric.set_gossip_hook`) and applied
        by the receiving kernel before dispatch. Updates are ordered by
        incarnation number, so duplicates and stale values riding
        retransmitted envelopes are harmless.
    """

    src: int
    dst: int | str
    mtype: str
    payload: Any = None
    size: int = 64
    msg_id: int = 0
    rel: tuple[int, int] | None = None
    ack: int | None = None
    gossip: tuple | None = None

    def reply_envelope(self, mtype: str, payload: Any = None,
                       size: int = 64) -> "Message":
        """Build a response envelope going back to the sender."""
        if not isinstance(self.src, int):
            raise ValueError(f"cannot reply to non-node source {self.src!r}")
        return Message(int(self.dst) if isinstance(self.dst, int) else -1,
                       self.src, mtype, payload, size)
