"""Simulated message fabric: point-to-point links, latency, faults, stats.

:class:`MulticastRegistry` is the group-membership table the §7.1
multicast locator keeps; nothing here sends to a group.
"""

from repro.net.fabric import Fabric
from repro.net.faults import FaultPlan
from repro.net.latency import (
    BandwidthLatency,
    FixedLatency,
    LatencyModel,
    LognormalLatency,
    MatrixLatency,
    UniformLatency,
)
from repro.net.message import Message
from repro.net.multicast import MulticastRegistry
from repro.net.stats import TrafficStats

__all__ = [
    "BandwidthLatency",
    "Fabric",
    "FaultPlan",
    "FixedLatency",
    "LatencyModel",
    "LognormalLatency",
    "MatrixLatency",
    "Message",
    "MulticastRegistry",
    "TrafficStats",
    "UniformLatency",
]
