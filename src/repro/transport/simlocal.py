"""Deterministic single-process transport (the reference backend).

:class:`SimTransport` realizes the :class:`~repro.transport.base.Transport`
port over the in-process discrete-event :class:`~repro.sim.scheduler.
Simulator`: delivery after ``delay`` is exactly one ``call_after`` on the
shared virtual clock, so the port refactor costs nothing — same-seed runs
are bit-identical to the pre-port tree (``benchmarks/smoke.py transport``
holds the chaos/durable/fastpath digests to the frozen reference values).
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
        self._posted += 1
        self.scheduler.call_after(delay, self._dispatch, message, dst)

    def _dispatch(self, message: "Message", dst: int) -> None:
        # The hook (Fabric._deliver) owns stats/tracing and handles the
        # detached-in-flight case; a hook is always installed by the
        # time messages move.
        self._hook(message, dst)

    def stats(self) -> dict[str, Any]:
        data = super().stats()
        data["posted"] = self._posted
        return data
