"""Simulated message fabric: point-to-point links, latency, faults, stats."""

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
    "TrafficStats",
    "UniformLatency",
]
