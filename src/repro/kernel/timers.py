"""Per-node timer service.

Timers are the system's alarm facility: the kernel raises a TIMER event
(or runs an arbitrary callback) after an interval, optionally recurring.
Thread-attribute timers (§6.2 of the paper: a monitor attaches a TIMER to
a thread and the registration is *recreated on every node the thread
visits*) are re-armed through this service by the invocation engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import KernelError
from repro.sim.scheduler import Simulator


@dataclass
class TimerEntry:
    """One armed timer on a node."""

    timer_id: int
    interval: float
    callback: Callable[..., Any]
    args: tuple
    recurring: bool
    handle: list
    fired: int = 0
    cancelled: bool = False


class TimerService:
    """Arms, fires, re-arms and cancels timers against virtual time."""

    def __init__(self, sim: Simulator, node_id: int) -> None:
        self.sim = sim
        self.node_id = node_id
        self._timers: dict[int, TimerEntry] = {}
        self._ids = itertools.count(1)

    def set(self, interval: float, callback: Callable[..., Any], *args: Any,
            recurring: bool = False) -> int:
        """Arm a timer; returns its id for cancellation."""
        if interval <= 0:
            raise KernelError(f"timer interval must be positive, got {interval!r}")
        timer_id = next(self._ids)
        handle = self.sim.call_after(interval, self._fire, timer_id)
        self._timers[timer_id] = TimerEntry(
            timer_id=timer_id, interval=float(interval), callback=callback,
            args=args, recurring=recurring, handle=handle)
        return timer_id

    def cancel(self, timer_id: int) -> bool:
        """Disarm a timer. Returns False if unknown or already done."""
        entry = self._timers.pop(timer_id, None)
        if entry is None or entry.cancelled:
            return False
        entry.cancelled = True
        self.sim.cancel(entry.handle)
        return True

    def cancel_all(self) -> int:
        """Disarm every timer on this node; returns how many."""
        ids = list(self._timers)
        return sum(1 for timer_id in ids if self.cancel(timer_id))

    def active(self) -> list[int]:
        return sorted(self._timers)

    def _fire(self, timer_id: int) -> None:
        entry = self._timers.get(timer_id)
        if entry is None or entry.cancelled:
            return
        entry.fired += 1
        if entry.recurring:
            entry.handle = self.sim.call_after(entry.interval, self._fire,
                                               timer_id)
        else:
            del self._timers[timer_id]
        entry.callback(*entry.args)
