"""The transport port: the narrow seam between the cluster and its wire.

The paper's event kernel assumes a message fabric but says nothing about
how it is realized (§2 simply posits "a message-based kernel").  This
module pins that assumption down to a small, explicit protocol —
:class:`Transport` — so the same kernel/event/durability stack can run
on different communication media:

* :class:`~repro.transport.simlocal.SimTransport` — the deterministic
  single-process simulator (the reference; bit-identical to the
  pre-port behaviour);
* :class:`~repro.transport.sharded.ShardSimTransport` — one shard of a
  conservatively-synchronized multi-process simulation (scale-out runs
  of 100+ nodes);
* :class:`~repro.transport.tcp.AsyncioTransport` — real TCP sockets on
  an asyncio event loop with wall-clock timers.

The port is deliberately narrow.  A transport owns exactly three
things:

1. **the endpoint registry** — ``attach``/``detach`` a per-node
   delivery callback, look endpoints up, and remember every node id
   ever seen (a known-but-detached node is a crashed machine whose
   traffic the wire swallows; an unknown id is a programming error);
2. **timed message movement** — :meth:`Transport.post` accepts one
   already-routed envelope plus the latency the fabric charged for it
   and delivers it to the destination endpoint that much later (virtual
   time on the simulators, wall-clock on TCP), through a single
   delivery hook the :class:`~repro.net.fabric.Fabric` installs so
   stats/tracing/fault bookkeeping stay in one place (the simulators
   schedule that hook as the arrival callback itself);
3. **the clock** — :attr:`Transport.scheduler` exposes the
   ``Simulator``-shaped surface (``now``/``call_at``/``call_after``/
   ``call_soon``/``run``/``cancel``/``pending``/``stats``, and
   the two fold queries ``nothing_due_now``/``advance_to``) every other
   subsystem schedules against.  On the sim backends this *is* the deterministic
   :class:`~repro.sim.scheduler.Simulator`; on TCP it is a
   :class:`~repro.transport.realtime.RealtimeScheduler` over the
   asyncio loop.

Everything else — latency models, fault injection, multicast groups,
traffic stats, reliability, durability, supervision — stays above the
port and is therefore identical across backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import NetworkError
from repro.kernel.config import (
    TRANSPORT_BACKEND_SHARDED,
    TRANSPORT_BACKEND_SIM,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.message import Message

#: delivery callback a node registers for its endpoint
DeliveryFn = Callable[["Message"], None]
#: hook the fabric installs: ``(message, dst)`` at delivery time
DeliveryHook = Callable[["Message", int], None]


class Transport(ABC):
    """Abstract message medium behind the fabric.

    Concrete transports provide a scheduler (the cluster's clock), an
    endpoint registry, and timed point-to-point delivery.  Fan-out,
    latency choice, fault injection and statistics belong to the
    :class:`~repro.net.fabric.Fabric` sitting above the port.
    """

    #: Simulator-shaped clock/timer surface (set by subclasses)
    scheduler: Any

    def __init__(self) -> None:
        self._endpoints: dict[int, DeliveryFn] = {}
        #: every node id ever attached (or declared via :meth:`add_known`)
        self._known: set[int] = set()
        self._hook: DeliveryHook | None = None

    # -- endpoint registry ---------------------------------------------

    def attach(self, node_id: int, deliver: DeliveryFn) -> None:
        """Register a node's delivery callback."""
        if node_id in self._endpoints:
            raise NetworkError(f"node {node_id} already attached")
        self._endpoints[node_id] = deliver
        self._known.add(node_id)

    def detach(self, node_id: int) -> None:
        self._endpoints.pop(node_id, None)

    def endpoint(self, node_id: int) -> DeliveryFn | None:
        return self._endpoints.get(node_id)

    def add_known(self, node_id: int) -> None:
        """Declare a node id as existing without attaching an endpoint
        (a peer hosted by another shard or process)."""
        self._known.add(node_id)

    def known(self, node_id: int) -> bool:
        return node_id in self._known

    def routable(self, node_id: int) -> bool:
        """Whether a message to ``node_id`` can move right now.

        Locally attached by default.  The sharded backend also routes
        ids owned by other shards — whether the remote node is alive is
        decided at the owning shard, exactly as a real wire cannot know
        the far end crashed.
        """
        return node_id in self._endpoints

    @property
    def node_ids(self) -> list[int]:
        """Locally attached node ids, sorted."""
        return sorted(self._endpoints)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._endpoints

    # -- delivery -------------------------------------------------------

    def set_delivery_hook(self, hook: DeliveryHook) -> None:
        """Install the fabric's delivery entry point.

        Every arriving envelope is handed to ``hook(message, dst)``; the
        hook does the stats/trace bookkeeping and invokes the endpoint
        (or records the drop when the node detached in flight). The sim
        backends schedule the hook directly, so it must be installed
        before the first :meth:`post`.
        """
        self._hook = hook

    @abstractmethod
    def post(self, message: "Message", dst: int, delay: float) -> None:
        """Deliver ``message`` to ``dst``'s endpoint after ``delay``
        seconds (virtual or wall-clock, per backend)."""

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Bring the medium up (bind sockets, spawn workers).  The
        in-process simulator needs nothing, so the default is a no-op."""

    def close(self) -> None:
        """Release external resources.  No-op by default."""

    def stats(self) -> dict[str, Any]:
        """Backend counters, one uniform schema."""
        return {"backend": self.backend_name(), "attached": len(self._endpoints)}

    @classmethod
    def backend_name(cls) -> str:
        return getattr(cls, "BACKEND", cls.__name__)


def make_transport(config: Any) -> Transport:
    """Build the transport named by ``config.transport`` (``sim``,
    ``sharded`` or ``tcp``: ``ClusterConfig`` rejects any other name).

    The import dance is deliberate: the TCP backend pulls in asyncio and
    the sharded backend pulls in multiprocessing, neither of which the
    deterministic test suite should pay for.
    """
    name = config.transport
    if name == TRANSPORT_BACKEND_SIM:
        from repro.sim.scheduler import make_simulator
        from repro.transport.simlocal import SimTransport
        return SimTransport(make_simulator(config.scheduler))
    if name == TRANSPORT_BACKEND_SHARDED:
        from repro.sim.scheduler import make_simulator
        from repro.transport.sharded import ShardSimTransport
        if config.shard_index is None:
            raise NetworkError(
                "transport='sharded' builds one shard of a multi-process "
                "run and needs shard_index; drive whole clusters through "
                "repro.transport.sharded.run_sharded(...)")
        return ShardSimTransport(
            make_simulator(config.scheduler),
            local_nodes=config.local_node_ids(),
            all_nodes=range(config.n_nodes),
            lookahead=config.link_latency)
    from repro.transport.tcp import AsyncioTransport
    return AsyncioTransport(host=config.tcp_host,
                            base_port=config.tcp_base_port)
