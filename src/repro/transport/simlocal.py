"""Deterministic single-process transport (the reference backend).

:class:`SimTransport` realizes the :class:`~repro.transport.base.Transport`
port over the in-process discrete-event :class:`~repro.sim.scheduler.
Simulator`: delivery after ``delay`` is exactly one ``call_at`` on the
shared virtual clock, and the callback it schedules is the fabric's
delivery hook itself — the wire adds no frame of its own on either end.
Same-seed runs are bit-identical to the pre-port tree
(``tests/test_transport.py::REFERENCE_DIGESTS`` holds the
chaos/durable/fastpath digests to the frozen reference values).
"""

from __future__ import annotations

from typing import Any

from repro.transport.base import Transport

if False:  # pragma: no cover - typing only
    from repro.net.message import Message
    from repro.sim.scheduler import Simulator


class SimTransport(Transport):
    """In-process virtual-time transport over one deterministic simulator.

    Parameters
    ----------
    scheduler:
        The :class:`~repro.sim.scheduler.Simulator` (heap or wheel
        backend) providing virtual time.  The cluster, the kernels and
        the transport all share this one instance, exactly as before the
        port existed.
    """

    BACKEND = "sim"

    def __init__(self, scheduler: "Simulator") -> None:
        super().__init__()
        self.scheduler = scheduler
        self._posted = 0

    def post(self, message: "Message", dst: int, delay: float) -> None:
        # The hook (Fabric._deliver) owns stats/tracing and handles the
        # detached-in-flight case; a hook is always installed by the
        # time messages move. ``now + delay`` is the float ``call_after``
        # would compute.
        self._posted += 1
        scheduler = self.scheduler
        scheduler.call_at(scheduler.now + delay, self._hook, message, dst)

    def stats(self) -> dict[str, Any]:
        data = super().stats()
        data["posted"] = self._posted
        return data
