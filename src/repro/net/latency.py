"""Latency models for the message fabric.

A latency model maps a (src, dst, message) triple to a one-way delay in
virtual seconds. Models draw from named RNG streams so that runs are
reproducible and adding a model does not perturb other random consumers.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import NetworkError
from repro.net.message import Message
from repro.sim.rng import RngRegistry


class LatencyModel(Protocol):
    """Anything that can price a message's one-way delay."""

    def delay(self, src: int, dst: int, message: Message) -> float:
        """One-way delay in virtual seconds for this message."""
        ...


class FixedLatency:
    """Every message takes exactly ``seconds``; local delivery may differ.

    :meth:`repro.net.fabric.Fabric.send` reads ``local`` and ``seconds``
    itself rather than calling :meth:`delay` (a subclass's is called).

    Parameters
    ----------
    seconds:
        Delay for remote (src != dst) messages.
    local:
        Delay for node-local messages (default: 1/100 of remote, modelling
        the kernel-internal fast path).
    """

    def __init__(self, seconds: float = 1e-3, local: float | None = None) -> None:
        if seconds < 0:
            raise NetworkError(f"negative latency {seconds!r}")
        self.seconds = float(seconds)
        self.local = self.seconds / 100.0 if local is None else float(local)

    def delay(self, src: int, dst: int, message: Message) -> float:
        return self.local if src == dst else self.seconds


class UniformLatency:
    """Remote delay drawn uniformly from [low, high]."""

    def __init__(self, rng: RngRegistry, low: float, high: float,
                 local: float = 1e-5) -> None:
        if not 0 <= low <= high:
            raise NetworkError(f"invalid latency range [{low}, {high}]")
        self._stream = rng.stream("latency.uniform")
        self.low = float(low)
        self.high = float(high)
        self.local = float(local)

    def delay(self, src: int, dst: int, message: Message) -> float:
        if src == dst:
            return self.local
        return self._stream.uniform(self.low, self.high)


class LognormalLatency:
    """Heavy-tailed remote delay typical of shared LANs.

    ``median`` is the median one-way delay; ``sigma`` controls tail weight.
    """

    def __init__(self, rng: RngRegistry, median: float = 1e-3,
                 sigma: float = 0.5, local: float = 1e-5) -> None:
        if median <= 0:
            raise NetworkError(f"median must be positive, got {median!r}")
        import math

        self._stream = rng.stream("latency.lognormal")
        self.mu = math.log(median)
        self.sigma = float(sigma)
        self.local = float(local)

    def delay(self, src: int, dst: int, message: Message) -> float:
        if src == dst:
            return self.local
        return self._stream.lognormvariate(self.mu, self.sigma)


class MatrixLatency:
    """Per-link latencies from an explicit matrix (racks, WANs).

    ``base[src][dst]`` gives the one-way delay; missing entries fall back
    to ``default``. Useful for topologies where the paper's "span a large
    domain of machines" matters — e.g. two racks with a slow uplink.
    """

    def __init__(self, base: dict[int, dict[int, float]] | None = None,
                 default: float = 1e-3, local: float = 1e-5) -> None:
        if default < 0 or local < 0:
            raise NetworkError("latencies must be non-negative")
        self.base = base or {}
        self.default = float(default)
        self.local = float(local)
        for row in self.base.values():
            for value in row.values():
                if value < 0:
                    raise NetworkError(f"negative latency {value!r}")

    def set_link(self, src: int, dst: int, seconds: float,
                 symmetric: bool = True) -> None:
        if seconds < 0:
            raise NetworkError(f"negative latency {seconds!r}")
        self.base.setdefault(src, {})[dst] = float(seconds)
        if symmetric:
            self.base.setdefault(dst, {})[src] = float(seconds)

    def delay(self, src: int, dst: int, message: Message) -> float:
        if src == dst:
            return self.local
        return self.base.get(src, {}).get(dst, self.default)


class BandwidthLatency:
    """Fixed propagation delay plus a size-proportional serialisation term.

    Models a link of ``bandwidth`` bytes/second with ``propagation``
    seconds of base delay; large payloads (DSM pages) cost more than
    small control messages.
    """

    def __init__(self, propagation: float = 5e-4,
                 bandwidth: float = 10e6 / 8, local: float = 1e-5) -> None:
        if bandwidth <= 0:
            raise NetworkError(f"bandwidth must be positive, got {bandwidth!r}")
        self.propagation = float(propagation)
        self.bandwidth = float(bandwidth)
        self.local = float(local)

    def delay(self, src: int, dst: int, message: Message) -> float:
        if src == dst:
            return self.local
        return self.propagation + message.size / self.bandwidth
