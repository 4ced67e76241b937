"""Deterministic single-process transport (the reference backend).

:class:`SimTransport` realizes the :class:`~repro.transport.base.Transport`
port over the in-process discrete-event :class:`~repro.sim.scheduler.
Simulator`: a message is delivered ``delay`` later on the shared virtual
clock by the fabric's delivery hook itself — the wire adds no frame of
its own on either end.

Messages due at one instant share a scheduler entry. A message whose
arrival is due when the entry the transport scheduled last is due,
while that entry is still pending and nothing else has been scheduled
since, *rides* on it (:meth:`~repro.sim.scheduler.Simulator.ride`)
instead of taking a ``call_at`` of its own: a burst of posts to one
node, a fault-duplicated copy, the acks of one batch. The messages of
one entry have consecutive sequence numbers, so they run in the order
separate entries would, and every handler history, virtual latency and
message count is what one ``call_at`` per message gives; only the
scheduler's ``scheduled`` and ``executed`` counts fall. A lone message
still schedules the delivery hook itself. Same-seed runs are
bit-identical to the pre-port tree
(``tests/test_transport.py::REFERENCE_DIGESTS`` holds the
chaos/durable/fastpath digests to the frozen reference values).
"""

from __future__ import annotations

from typing import Any

from repro.transport.base import Transport

if False:  # pragma: no cover - typing only
    from repro.net.message import Message
    from repro.sim.scheduler import Simulator

#: a spent entry: what the transport holds before its first post
_SPENT = [0.0, -1, (), None]


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
        #: the entry the last ``call_at`` of :meth:`post` returned; once
        #: it has fired the scheduler has emptied its arguments, so it
        #: keeps no message alive
        self._last = _SPENT

    def post(self, message: "Message", dst: int, delay: float) -> None:
        # The hook (Fabric._deliver) owns stats/tracing and handles the
        # detached-in-flight case; a hook is always installed by the
        # time messages move. ``now + delay`` is the float ``call_after``
        # would compute.
        self._posted += 1
        scheduler = self.scheduler
        when = scheduler.now + delay
        last = self._last
        if (last[3] is not None and last[0] == when
                and last[1] == scheduler._scheduled - 1):
            scheduler.ride(last, self._hook, message, dst)
        else:
            self._last = scheduler.call_at(when, self._hook, message, dst)

    def stats(self) -> dict[str, Any]:
        data = super().stats()
        data["posted"] = self._posted
        return data
