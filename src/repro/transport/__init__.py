"""Pluggable transport backends behind the cluster's message fabric.

The :class:`~repro.transport.base.Transport` port separates the event
kernel's semantics from the communication medium (the modularity AMECOS
argues for): the same reliable/durable/supervised stack runs on

* :class:`~repro.transport.simlocal.SimTransport` — the deterministic
  single-process simulator (reference; bit-identical same-seed digests);
* :class:`~repro.transport.sharded.ShardSimTransport` plus
  :func:`~repro.transport.sharded.run_sharded` — nodes partitioned
  across worker processes under conservative time-window
  synchronization (lookahead = min link latency);
* :class:`~repro.transport.tcp.AsyncioTransport` — real TCP sockets,
  length-prefixed frames, wall-clock timers.

Select with ``ClusterConfig(transport="sim" | "sharded" | "tcp")``.
The sharded and tcp modules are imported lazily by the factory so the
deterministic test path never pays for asyncio or multiprocessing.
"""

from repro.kernel.config import TRANSPORT_BACKEND_NAMES
from repro.transport.base import Transport, make_transport
from repro.transport.simlocal import SimTransport

__all__ = [
    "TRANSPORT_BACKEND_NAMES",
    "SimTransport",
    "Transport",
    "make_transport",
]
