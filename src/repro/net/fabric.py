"""The message fabric connecting simulated nodes.

The fabric is the cluster's network: nodes register a delivery callback,
and anything in the system sends :class:`~repro.net.message.Message`
envelopes point to point through :meth:`Fabric.send`. Delivery is
asynchronous, with the delay chosen by a pluggable latency model and
delivery fate decided by a fault plan. All traffic is counted and traced.

Since the transport port extraction, the fabric no longer owns the
medium: endpoint registration and timed message movement live behind a
:class:`~repro.transport.base.Transport` (deterministic simulator,
sharded multi-process simulator, or real TCP).  The fabric keeps
everything semantic — latency charging, fault injection, statistics,
tracing — so those behave identically on every backend.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.errors import UnknownNodeError
from repro.net.faults import FaultPlan
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import Message
from repro.net.stats import TrafficStats
from repro.sim.trace import Tracer
from repro.transport.base import Transport

DeliveryFn = Callable[[Message], None]


class Fabric:
    """A network of point-to-point links.

    Parameters
    ----------
    transport:
        The medium: a :class:`~repro.transport.base.Transport`.
    latency:
        Latency model (defaults to 1 ms fixed).
    faults:
        Fault plan (defaults to no faults).
    tracer:
        Structured tracer for the ``net`` send/deliver/drop records; by
        default a private one with ``net`` muted.
    """

    def __init__(self, transport: Transport,
                 latency: LatencyModel | None = None,
                 faults: FaultPlan | None = None,
                 tracer: Tracer | None = None) -> None:
        self.transport = transport
        #: the transport's clock — the same object every kernel
        #: schedules on (a Simulator on the sim backends)
        self.sim = transport.scheduler
        self.latency = latency or FixedLatency()
        self.faults = faults or FaultPlan()
        if tracer is None:
            tracer = Tracer(self.sim)
            tracer.mute("net")
        self.tracer = tracer
        self.stats = TrafficStats()
        # the transport's endpoint registry itself: one dict probe per
        # arrival, no accessor frame
        self._endpoints = transport._endpoints
        transport.set_delivery_hook(self._deliver)
        # per-fabric message ids keep traces deterministic across runs
        self._msg_ids = itertools.count(1)
        # per-source SWIM piggyback hooks (node id -> hook(dst) -> tuple
        # of updates or None); empty unless gossip membership is enabled,
        # so knobs-off runs never take the extra branch work.
        self._gossip_hooks: dict[int, Callable[[int], tuple | None]] = {}

    def set_gossip_hook(self, node_id: int,
                        hook: Callable[[int], tuple | None] | None) -> None:
        """Install (or clear, with ``None``) a node's piggyback hook.

        The hook is consulted once per outbound envelope from
        ``node_id`` and may return a tuple of membership updates to ride
        in :attr:`Message.gossip`.
        """
        if hook is None:
            self._gossip_hooks.pop(node_id, None)
        else:
            self._gossip_hooks[node_id] = hook

    # ------------------------------------------------------------------
    # topology (delegated to the transport's endpoint registry)
    # ------------------------------------------------------------------

    def attach(self, node_id: int, deliver: DeliveryFn) -> None:
        """Register a node's delivery callback."""
        self.transport.attach(node_id, deliver)

    def detach(self, node_id: int) -> None:
        self.transport.detach(node_id)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.transport

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Send a point-to-point message (asynchronously, in virtual time).

        One function from the caller to the wire: every envelope pays
        this path, so it is not split into relays. An attached endpoint
        is routable on every transport, so the registry's own dict is
        probed first and ``transport.routable`` asked only on a miss (a
        crashed node, another shard's node); the default
        :class:`FixedLatency` is read as its two floats, any other model
        is asked for each copy's delay.
        """
        dst = message.dst
        transport = self.transport
        routable = dst in self._endpoints or transport.routable(dst)
        if not routable and not transport.known(dst):
            raise UnknownNodeError(f"no node {dst!r} attached to fabric")
        dst = int(dst)
        message.msg_id = next(self._msg_ids)
        if self._gossip_hooks and message.gossip is None:
            hook = self._gossip_hooks.get(message.src)
            if hook is not None:
                updates = hook(dst)
                if updates:
                    # Ride membership updates on traffic that is going
                    # out anyway; retransmissions keep their original
                    # (possibly stale) gossip, which incarnation
                    # ordering makes harmless.
                    message.gossip = updates
                    message.size += 6 * len(updates)
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += message.size
        by_type = stats.by_type
        by_type[message.mtype] = by_type.get(message.mtype, 0) + 1
        tracer = self.tracer
        if "net" not in tracer.muted:
            tracer.emit("net", "send", src=message.src, dst=dst,
                        mtype=message.mtype, msg_id=message.msg_id)
        if not routable:
            # Known-but-detached destination: the node crashed. The wire
            # swallows the message; reliable channels retransmit until
            # the node recovers or the budget runs out.
            self._drop(message, dst)
            return
        copies = self.faults.copies(message)
        if copies == 0:
            self._drop(message, dst)
            return
        latency = self.latency
        fixed = type(latency) is FixedLatency
        if fixed:
            delay = latency.local if message.src == dst else latency.seconds
        else:
            delay = latency.delay(message.src, dst, message)
        transport.post(message, dst, delay)
        for _ in range(copies - 1):
            # Each duplicated copy is a distinct envelope with its own
            # msg_id and its own top-level payload dict: a receiver that
            # mutates the payload must not corrupt the other copy. The
            # reliability header is shared so dedup still collapses them.
            copy = self._clone(message)
            transport.post(copy, dst, delay if fixed
                           else latency.delay(copy.src, dst, copy))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _clone(self, message: Message) -> Message:
        payload = message.payload
        if isinstance(payload, dict):
            payload = dict(payload)
        return Message(message.src, message.dst, message.mtype, payload,
                       message.size, next(self._msg_ids), message.rel,
                       message.ack, message.gossip)

    def _drop(self, message: Message, dst: int) -> None:
        self.stats.dropped += 1
        if "net" not in self.tracer.muted:
            self.tracer.emit("net", "drop", src=message.src, dst=dst,
                             mtype=message.mtype, msg_id=message.msg_id)

    def _deliver(self, message: Message, dst: int) -> None:
        """The transport's delivery hook: the sim wire schedules it as the
        arrival callback itself."""
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            # Node detached while the message was in flight; the paper's
            # model treats this as a silent loss (fault tolerance is out
            # of scope, section 7.2).
            self.stats.dropped += 1
            return
        self.stats.delivered += 1
        tracer = self.tracer
        if "net" not in tracer.muted:
            tracer.emit("net", "deliver", src=message.src, dst=dst,
                        mtype=message.mtype, msg_id=message.msg_id)
        endpoint(message)
