"""Wall-clock scheduler over an asyncio loop (the tcp backend's clock).

Every subsystem in the library schedules against the ``Simulator``
surface — ``now`` / ``call_at`` / ``call_after`` / ``call_soon`` /
``run`` / ``cancel`` / ``pending`` / ``stats`` / ``nothing_due_now`` /
``advance_to``.
:class:`RealtimeScheduler` implements that surface with real time:
``now`` is seconds of
wall-clock since the scheduler was built, and :meth:`run` actually
*blocks* the calling thread while the asyncio loop turns.

The scheduler owns its queues; asyncio is only the clock and the
selector.  Future callbacks sit in a ``(when, seq)`` heap, due ones in a
FIFO ready list, both as the simulator's ``[when, seq, args, fn]``
entries, and a ``call_*`` returns its entry as the handle
:meth:`~RealtimeScheduler.cancel` takes.
The loop sees one ``call_soon(self._turn)`` per **turn** and one
``call_at`` wake-up for the earliest future timer, however many
callbacks are queued.  A turn moves the timers that came due ahead of
younger ready entries and runs exactly the entries present when it
started; whatever they schedule waits for the next turn, so the selector
is polled in between and a self-rescheduling chain cannot starve a
socket read.

Semantics kept from the simulator:

* ``run(until=t)`` returns once ``now`` reaches ``t`` (so existing
  drive loops like ``cluster.run(until=cluster.now + 0.25)`` behave as
  "run for a quarter second");
* ``run()`` with no deadline returns when the scheduler is **idle** —
  no live callbacks and every registered idle hook (the transport's
  "no frames in flight" check) agrees;
* callbacks fire in non-decreasing time, ties in scheduling order (a
  ``call_at`` in the past counts as scheduled for now);
* a callback exception stops the turn — the callbacks behind it stay
  queued — and re-raises from :meth:`run`, like the simulator's
  synchronous propagation, instead of vanishing into the loop's
  exception handler;
* ``run(max_events=n)`` raises :class:`SimulationError` once *that*
  call has run ``n`` callbacks (checked every ``poll``, so a livelock
  is caught a few milliseconds late, not exactly at ``n``).

What is *not* kept — determinism.  Wall-clock runs are not seed
reproducible; that is the whole point of having the sim backends.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.scheduler import Simulator

SCHEDULER_REALTIME = "realtime"


class RealtimeScheduler:
    """The ``Simulator`` surface on wall-clock time.

    Parameters
    ----------
    poll:
        Idle/deadline check period in seconds while :meth:`run` drives
        the loop.  Callbacks do not wait for a poll tick; only run-loop
        *exit* is polled.
    """

    backend = SCHEDULER_REALTIME

    def __init__(self, poll: float = 0.005) -> None:
        self._loop = asyncio.new_event_loop()
        self._time = self._loop.time
        self._t0 = self._time()
        #: future callbacks, a heap of ``[when, seq, args, fn]`` entries
        self._timers: list[list] = []
        #: due callbacks in (when, seq) order, run by the next turn
        self._ready: list[list] = []
        #: a turn is queued on the loop or running: pushes arm nothing
        self._armed = False
        #: the loop's one timer, aimed at the earliest entry of _timers
        self._wake: asyncio.TimerHandle | None = None
        self._scheduled = 0
        self._events = 0
        self._cancels = 0
        #: cancelled entries not yet popped (the compaction trigger)
        self._dead = 0
        self._compactions = 0
        self._error: BaseException | None = None
        self._poll = poll
        #: zero-arg callables that must all return True for ``run()``
        #: (no deadline) to consider the system idle
        self._idle_hooks: list[Callable[[], bool]] = []
        self._closed = False

    # -- Simulator surface ---------------------------------------------

    @property
    def now(self) -> float:
        """Seconds of wall-clock since the scheduler was created."""
        return self._time() - self._t0

    @property
    def events_processed(self) -> int:
        return self._events

    @property
    def pending(self) -> int:
        return self._scheduled - self._events - self._cancels

    @property
    def compactions(self) -> int:
        return self._compactions

    def stats(self) -> dict[str, Any]:
        """:meth:`Simulator.stats` keys, plus ``now`` and
        ``events_processed`` (= ``executed``)."""
        return {
            "backend": self.backend,
            "now": self.now,
            "pending": self.pending,
            "scheduled": self._scheduled,
            "executed": self._events,
            "events_processed": self._events,
            "cancellations": self._cancels,
            "compactions": self._compactions,
            "wheel_spills": 0,
            "wheel_migrations": 0,
            "overflow_pending": 0,
        }

    # Three independent entry points: E17's traced run wraps each, so a
    # delegation between them would be counted twice.

    def call_at(self, when: float, fn: Callable[..., Any],
                *args: Any) -> list:
        return self._push(when, self._time() - self._t0, fn, args)

    def call_after(self, delay: float, fn: Callable[..., Any],
                   *args: Any) -> list:
        now = self._time() - self._t0
        return self._push(now + delay, now, fn, args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> list:
        now = self._time() - self._t0
        return self._push(now, now, fn, args)

    def _push(self, when: float, now: float, fn: Callable[..., Any],
              args: tuple) -> list:
        if self._closed:
            raise SimulationError("scheduler is closed")
        self._scheduled = seq = self._scheduled + 1
        if when > now:
            entry = [when, seq, args, fn]
            heapq.heappush(self._timers, entry)
        else:  # due already: scheduled for now, behind what is queued
            entry = [now, seq, args, fn]
            self._ready.append(entry)
        if not self._armed:
            self._rearm()
        return entry

    def nothing_due_now(self) -> bool:
        """Always False: a frame may arrive at any wall instant, so no
        hop can be known to be the next callback."""
        return False

    def advance_to(self, when: float) -> bool:
        """Always False: wall time is not the scheduler's to move, so a
        wake-up is always scheduled."""
        return False

    def cancel(self, handle: list) -> None:
        """:meth:`Simulator.cancel`: null the entry's callback and
        arguments (it stays queued; a fired one is a no-op), and rebuild
        the heap once dead entries dominate."""
        if handle[3] is None:
            return
        handle[3] = None
        handle[2] = ()
        self._cancels += 1
        self._dead += 1
        timers = self._timers
        if len(timers) > Simulator.COMPACT_MIN and self._dead * 2 > len(timers):
            live = [entry for entry in timers if entry[3] is not None]
            self._dead -= len(timers) - len(live)
            heapq.heapify(live)
            timers[:] = live
            self._compactions += 1

    # -- turns ----------------------------------------------------------

    def _rearm(self) -> None:
        """Queue the next turn, or with nothing ready aim the loop's one
        timer at the earliest live entry.  An earlier wake-up already
        set is left alone: it finds nothing due and re-aims."""
        if self._ready:
            self._armed = True
            self._loop.call_soon(self._turn)
            return
        self._armed = False
        timers = self._timers
        while timers and timers[0][3] is None:
            heapq.heappop(timers)
            self._dead -= 1
        if not timers:
            return
        when = self._t0 + timers[0][0]
        if self._wake is None or when < self._wake.when():
            if self._wake is not None:
                self._wake.cancel()
            self._wake = self._loop.call_at(when, self._on_wake)

    def _on_wake(self) -> None:
        self._wake = None
        if not self._armed:  # else the queued turn collects the timer
            self._armed = True
            self._turn()

    def _turn(self) -> None:
        """Run the callbacks that are due now, in (when, seq) order."""
        if self._error is not None:  # run() re-arms after raising it
            self._armed = False
            return
        batch, self._ready = self._ready, []
        timers = self._timers
        now = self._time() - self._t0
        if timers and timers[0][0] <= now:
            while timers and timers[0][0] <= now:
                batch.append(heapq.heappop(timers))
            batch.sort()  # two sorted runs; seq is unique, args never compare
        index = 0
        try:
            for index, entry in enumerate(batch):
                fn = entry[3]
                if fn is None:
                    self._dead -= 1
                    continue
                args = entry[2]
                entry[2] = ()
                entry[3] = None  # a late cancel() is a no-op
                self._events += 1
                fn(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised in run
            self._error = exc
            self._ready[:0] = batch[index + 1:]
            self._armed = False
            return
        self._rearm()

    def run(self, until: float | None = None,
            max_events: int | None = 2_000_000) -> None:
        """Drive the loop until ``until`` wall-seconds of scheduler time,
        or (with no deadline) until callbacks and idle hooks drain."""
        if self._closed:
            raise SimulationError("scheduler is closed")
        start = self._events

        async def drive() -> None:
            while self._error is None:
                if max_events is not None and self._events - start >= max_events:
                    raise SimulationError(
                        f"run() exceeded max_events={max_events} (livelock?)")
                if until is not None:
                    remaining = until - self.now
                    if remaining <= 0:
                        return
                    await asyncio.sleep(min(self._poll, remaining))
                    continue
                if self.pending == 0 and all(
                        hook() for hook in self._idle_hooks):
                    return
                await asyncio.sleep(self._poll)

        if not self._armed:  # a turn that failed armed nothing
            self._rearm()
        self._loop.run_until_complete(drive())
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    # -- realtime extras ------------------------------------------------

    def add_idle_hook(self, hook: Callable[[], bool]) -> None:
        """Register an extra idleness condition (frames in flight)."""
        self._idle_hooks.append(hook)

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop.close()
