"""Deterministic discrete-event simulation substrate.

This package provides the virtual-time execution environment that every
other subsystem of the library runs on: a scheduler
(:class:`~repro.sim.scheduler.Simulator`, heap or wheel), a one-shot
future and a FIFO channel, seeded random streams, and structured tracing.
The one generator driver is the logical thread's,
:class:`repro.threads.thread.DThread`.
"""

from repro.sim.primitives import Channel, SimFuture
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import (
    Simulator,
    WheelSimulator,
    make_simulator,
)
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Channel",
    "RngRegistry",
    "SimFuture",
    "Simulator",
    "TraceRecord",
    "Tracer",
    "WheelSimulator",
    "make_simulator",
]
