"""Deterministic discrete-event scheduler with a virtual clock.

The :class:`Simulator` is the execution substrate for the whole library:
node kernels, the message fabric, timers, DSM protocol engines and thread
drivers all schedule callbacks here. Virtual time is a float number of
seconds; two runs with identical inputs produce identical schedules, which
the test suite relies on.

Ordering guarantees (both backends):

* callbacks fire in non-decreasing virtual time;
* callbacks scheduled for the same instant fire in scheduling order
  (FIFO), which keeps traces deterministic without relying on object
  identity or hash order.

That is ``(when, seq)`` order, ``seq`` counting every callback ever
scheduled. Each scheduled callback is one ``[when, seq, args, fn]``
list, and that list is also what ``call_at`` returns: the handle
:meth:`Simulator.cancel` takes. Each backend keeps the order with two
lanes of such entries:

* the **instant lane** — a FIFO of the callbacks scheduled for the
  instant they were scheduled in (``call_soon``, ``call_after(0)``,
  ``call_at(now)``: most of what a post costs, since "delivery
  asynchronous, handling synchronous" makes every hand-off a callback
  at the same virtual instant). They never touch the timed structure;
* the **timed lane** — everything later than ``now``:
  :class:`Simulator` keeps one binary heap (the reference, and the
  default), :class:`WheelSimulator` a timing wheel (calendar queue):
  near-future callbacks hash into per-tick buckets drained in tick
  order, each bucket a tiny heap, so the common push/pop touches a
  handful of entries instead of a log of the whole schedule. Entries
  past the wheel horizon *spill* to an overflow heap (far-future
  retransmit/watchdog timers live there) and *migrate* onto the wheel
  once the near window and the instant lane have both drained.

One loop (:meth:`Simulator._drain`, behind ``run`` and ``step`` on both
backends) picks *timed entries due at ``now``, then the lane front to
back, then the next timed entry, which moves the clock*. That is
``(when, seq)`` order exactly: a timed entry with ``when == now`` was
scheduled while the clock was earlier, so its ``seq`` is lower than
anything in the lane; nothing scheduled during the instant can land in
the timed lane at ``now``; and the clock never moves back, so every
lane entry is at ``now``. Whether a timed entry is due at ``now`` is
recorded by the heap's timed pop itself (is the next entry at the
same instant?), so a clock move costs no miss pop; the wheel records
"maybe" and pays the miss. ``now`` is a plain attribute that only the
loop and ``run(until)`` move. The wall-clock ``RealtimeScheduler``
(:mod:`repro.transport.realtime`) has the same shape — timer heap plus
ready list — and the same rule. :meth:`Simulator.nothing_due_now`
reads that rule without popping: when no other live entry is due at
``now``, a same-instant hop the running callback would schedule to
itself is the next callback either way, so the thread driver does its
work inline (the realtime scheduler never says so).

Cancellation — ``scheduler.cancel(handle)`` on every backend — is lazy
in both lanes (the entry stays queued with its callback and arguments
nulled, and both are rebuilt once the dead outnumber the live); the
loop nulls an entry's callback as it pops it, so cancelling a handle
that already fired is a no-op on every backend. A run executes
the same callbacks in the same order at the same virtual times on
either backend — :func:`make_simulator` picks by name,
``tests/test_wheel_scheduler.py`` holds the two to identical traces and
``tests/test_scheduler_model.py`` holds both to a sorted-list model.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import floor, inf
from typing import Any, Callable

from repro.errors import SimulationError

SCHEDULER_HEAP = "heap"
SCHEDULER_WHEEL = "wheel"
SCHEDULER_NAMES = (SCHEDULER_HEAP, SCHEDULER_WHEEL)


class Simulator:
    """A deterministic discrete-event loop over virtual time.

    Parameters
    ----------
    start:
        Initial virtual time (seconds). Defaults to ``0.0``.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.call_after(1.5, fired.append, "a")
    >>> _ = sim.call_after(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    backend = SCHEDULER_HEAP

    #: below this queue size compaction is pointless (the rebuild costs
    #: more than lazily skipping the handful of dead entries)
    COMPACT_MIN = 64

    def __init__(self, start: float = 0.0) -> None:
        #: current virtual time in seconds; only the drain loop and
        #: ``run(until)`` move it
        self.now = float(start)
        #: timed lane: heap of ``[when, seq, args, fn]`` entries later
        #: than the instant they were scheduled in
        self._queue: list[list] = []
        #: instant lane: entries scheduled for the instant they were
        #: scheduled in, FIFO — every one of them is at ``now``
        self._ready: deque[list] = deque()
        self._running = False
        self._events_processed = 0
        #: callbacks ever scheduled; the next entry's sequence number
        self._scheduled = 0
        #: cancelled entries still queued in either lane
        self._cancelled = 0
        self._cancels_total = 0
        self._compactions = 0
        #: set by each timed pop: whether the next timed entry is at the
        #: popped one's instant (the drain reads it instead of popping
        #: to find out; False can be trusted, True may be a miss)
        self._next_due = False

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) callbacks, both lanes."""
        return self._scheduled - self._events_processed - self._cancels_total

    @property
    def compactions(self) -> int:
        """Times the queue was rebuilt to purge cancelled entries."""
        return self._compactions

    def stats(self) -> dict[str, Any]:
        """Scheduler internals, one uniform schema for both backends.

        ``wheel_spills`` / ``wheel_migrations`` / ``overflow_pending``
        are identically zero on the heap backend; benches can aggregate
        the dict without caring which backend is configured.
        """
        return {
            "backend": self.backend,
            "pending": self.pending,
            "scheduled": self._scheduled,
            "executed": self._events_processed,
            "cancellations": self._cancels_total,
            "compactions": self._compactions,
            "wheel_spills": 0,
            "wheel_migrations": 0,
            "overflow_pending": 0,
        }

    def cancel(self, handle: list) -> None:
        """Stop the callback behind ``handle`` — the entry a ``call_*``
        returned — from running. Idempotent.

        Nulls the callback *and its arguments*, so a cancelled entry pins
        no closure or payload while it waits to be popped (a retransmit
        timer's cancelled entry used to keep its whole message alive
        until its virtual deadline drained past). The drain loop marks
        an entry spent as it pops it, so cancelling one whose callback
        already fired — a watchdog cancelled from inside its own expiry,
        say — is a no-op that moves no counter.

        The entry stays queued; a workload that schedules and cancels far
        into the future could grow the queue without bound, so both lanes
        are rebuilt once the dead outnumber the live, which keeps
        compaction O(1) amortised per cancellation.
        """
        if handle[3] is None:
            return
        handle[3] = None
        handle[2] = ()
        self._cancelled += 1
        self._cancels_total += 1
        dead, live = self._cancelled, self.pending
        if dead > live and dead + live > self.COMPACT_MIN:
            # In place: the drain loop holds the lane across callbacks.
            ready = self._ready
            kept = [e for e in ready if e[3] is not None]
            ready.clear()
            ready.extend(kept)
            self._compact_timed()
            self._cancelled = 0
            self._compactions += 1

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` at virtual time ``when``.

        ``when`` must not be in the past. Returns the queued
        ``[when, seq, args, fn]`` entry, the handle :meth:`cancel` takes.
        """
        now = self.now
        if when < now:
            raise SimulationError(
                f"cannot schedule at {when!r}; virtual time is already {now!r}"
            )
        seq = self._scheduled
        self._scheduled = seq + 1
        if when == now:
            entry = [now, seq, args, fn]
            self._ready.append(entry)
        else:
            entry = [float(when), seq, args, fn]
            heapq.heappush(self._queue, entry)
        return entry

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` at the current instant, after queued work."""
        return self.call_at(self.now, fn, *args)

    # -- per-backend view of the timed lane ------------------------------

    def _pop_timed(self, limit: float) -> list | None:
        """Remove and return the earliest timed entry, live or cancelled,
        unless it is later than ``limit`` (then None); record whether the
        next one is at the same instant."""
        queue = self._queue
        if queue and queue[0][0] <= limit:
            entry = heapq.heappop(queue)
            self._next_due = queue[0][0] == entry[0] if queue else False
            return entry
        return None

    def _timed_head(self) -> list | None:
        """The earliest timed entry, live or cancelled, left in place."""
        return self._queue[0] if self._queue else None

    def _timed_due_now(self) -> bool:
        """Whether a live timed entry is due at ``now`` (nothing moves)."""
        return _live_at(self._queue, self.now)

    def _compact_timed(self) -> None:
        """Drop cancelled entries from the timed lane, in place."""
        queue = self._queue
        queue[:] = [e for e in queue if e[3] is not None]
        heapq.heapify(queue)

    def nothing_due_now(self) -> bool:
        """True when no live callback other than the running one is due
        at the current instant.

        A callback about to schedule a same-instant hop to itself asks
        this: when nothing else is due, that hop would be the very next
        callback to run, so doing its work inline runs the same
        callbacks in the same order, minus the hop. A pure query — it
        sheds no cancelled entry and re-bases no wheel, so every counter
        in :meth:`stats` other than the hops saved reads as before.
        """
        ready = self._ready
        if ready and any(entry[3] is not None for entry in ready):
            return False
        return not self._timed_due_now()

    # -- running ---------------------------------------------------------

    def step(self) -> bool:
        """Run the single next callback. Returns False when queue is empty.

        Shares :meth:`run`'s loop, and its re-entrancy guard.
        """
        return self._drain(None, 1)

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run callbacks until the queue drains.

        Parameters
        ----------
        until:
            Stop once virtual time would exceed this bound; the clock is
            then advanced exactly to ``until``. A bound already in the
            past returns at once: the clock never moves back.
        max_events:
            Safety valve — raise :class:`SimulationError` after this many
            callbacks, which catches accidental livelock in tests.
        """
        # a bound below 1 has always meant "raise after the first callback"
        budget = -1 if max_events is None else max(max_events, 1)
        if self._drain(until, budget):
            raise SimulationError(
                f"run() exceeded max_events={max_events} (livelock?)"
            )

    def _drain(self, until: float | None, budget: int) -> bool:
        """The one loop behind :meth:`run` and :meth:`step`.

        Pops in ``(when, seq)`` order: timed entries due at ``now``, then
        the instant lane front to back, then the next timed entry, which
        moves the clock. Returns True when it stopped because ``budget``
        callbacks ran (negative: no bound), False when nothing up to
        ``until`` was left.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until is None:
            limit = inf
        elif until < self.now:
            return False
        else:
            limit = until
        self._running = True
        try:
            ready = self._ready
            pop_timed = self._pop_timed
            now = self.now
            processed = 0
            # Timed entries at `now` were scheduled while the clock was
            # earlier, so they precede the whole lane; none can be added
            # during the instant, so the record the last timed pop left
            # (or one miss, where it says "maybe") settles it until the
            # clock moves.
            due = self._next_due
            while True:
                if due:
                    entry = pop_timed(now)
                    if entry is None:
                        due = False
                        continue
                    due = self._next_due
                elif ready:
                    entry = ready.popleft()
                else:
                    entry = pop_timed(limit)
                    if entry is None:
                        break
                    if entry[3] is not None:
                        now = self.now = entry[0]
                        due = self._next_due
                fn = entry[3]
                if fn is None:
                    self._cancelled -= 1
                    continue
                entry[3] = None  # spent: a late cancel() is a no-op
                self._events_processed += 1
                fn(*entry[2])
                processed += 1
                if processed == budget:
                    return True
            self.peek_next()  # shed cancelled heads past `until` as well
            if until is not None and now < until:
                self.now = float(until)
            return False
        finally:
            self._running = False

    def peek_next(self) -> float | None:
        """Virtual time of the next live callback without running it.

        The sharded runner's quiescent skip-ahead uses this: when no
        cross-shard traffic is in flight, every shard's earliest
        pending time bounds how far the window counter may jump while
        staying conservative. Follows the drain loop's selection rule
        on both backends; cancelled entries it meets on the way are
        purged, so repeated peeks are cheap.
        """
        ready = self._ready
        while True:
            head = self._timed_head()
            from_lane = bool(ready) and (head is None or head[0] > self.now)
            if from_lane:
                head = ready[0]
            if head is None:
                return None
            if head[3] is not None:
                return head[0]
            if from_lane:
                ready.popleft()
            else:
                self._pop_timed(head[0])
            self._cancelled -= 1


class WheelSimulator(Simulator):
    """Timing-wheel / calendar-queue scheduler backend.

    Callbacks later than the current instant go into per-tick buckets
    (``floor(when/tick)``) drained in tick order; each bucket is a small
    heap ordered by the same ``(when, seq)`` key as the reference heap,
    so the global execution order is identical. Callbacks at or past the
    horizon — ``slots`` ticks ahead of the earliest pending work — spill
    to an overflow heap and migrate onto the wheel when the near window
    and the instant lane have both drained down to them.

    Parameters
    ----------
    start:
        Initial virtual time (seconds).
    tick:
        Bucket width in virtual seconds. Callbacks within one tick share
        a bucket; pick it near the workload's natural event spacing.
    slots:
        Width of the near window in ticks; ``slots * tick`` virtual
        seconds ahead of the window base is the overflow horizon.
    """

    backend = SCHEDULER_WHEEL

    def __init__(self, start: float = 0.0, tick: float = 1e-3,
                 slots: int = 4096) -> None:
        super().__init__(start)
        if tick <= 0:
            raise SimulationError(f"wheel tick must be positive, got {tick!r}")
        if slots < 2:
            raise SimulationError(f"wheel needs >= 2 slots, got {slots!r}")
        self._tick = float(tick)
        self._slots = int(slots)
        #: tick index -> heap of entries within that tick
        self._buckets: dict[int, list[list]] = {}
        #: heap of tick indices that currently have a bucket
        self._tick_heap: list[int] = []
        #: entries at/past the horizon, ordered like the reference heap
        self._overflow: list[list] = []
        #: absolute virtual time of the overflow boundary
        self._horizon = (floor(self.now / self._tick)
                         + self._slots) * self._tick
        self._spills = 0
        self._migrations = 0
        #: the wheel never records: every clock move costs one miss pop,
        #: whose re-base of the horizon the spill counters depend on
        self._next_due = True

    # -- observability --------------------------------------------------

    def stats(self) -> dict[str, Any]:
        data = super().stats()
        data["wheel_spills"] = self._spills
        data["wheel_migrations"] = self._migrations
        data["overflow_pending"] = len(self._overflow)
        data["wheel_buckets"] = len(self._buckets)
        return data

    # -- scheduling ------------------------------------------------------

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> list:
        now = self.now
        if when < now:
            raise SimulationError(
                f"cannot schedule at {when!r}; virtual time is already {now!r}"
            )
        seq = self._scheduled
        self._scheduled = seq + 1
        # The horizon test comes first: after run(until=...) has jumped
        # the clock past it, an entry at `now` spills like any other, so
        # whatever is in the lane is earlier than all of the overflow.
        if when >= self._horizon:
            entry = [float(when), seq, args, fn]
            heapq.heappush(self._overflow, entry)
            self._spills += 1
        elif when == now:
            entry = [now, seq, args, fn]
            self._ready.append(entry)
        else:
            entry = [float(when), seq, args, fn]
            self._place(entry)
        return entry

    def _place(self, entry: list) -> None:
        """Push an entry earlier than the horizon into its tick bucket."""
        key = floor(entry[0] / self._tick)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = []
            heapq.heappush(self._tick_heap, key)
        heapq.heappush(bucket, entry)

    def _advance_horizon(self) -> None:
        """The wheel drained to the overflow heap: move the window.

        Re-bases the near window at the earliest overflow entry and
        migrates everything now inside it onto the wheel. Guaranteed to
        make progress: the new horizon sits ``slots`` ticks past the
        earliest entry.
        """
        overflow = self._overflow
        base = floor(overflow[0][0] / self._tick)
        self._horizon = (base + self._slots) * self._tick
        while overflow and overflow[0][0] < self._horizon:
            entry = heapq.heappop(overflow)
            if entry[3] is None:
                self._cancelled -= 1
                continue
            self._place(entry)
            self._migrations += 1

    def _timed_head(self) -> list | None:
        while True:
            if self._tick_heap:
                return self._buckets[self._tick_heap[0]][0]
            overflow = self._overflow
            if self._ready or not overflow:
                return None
            # Wheel and lane are both empty: everything left is at or
            # past the horizon — re-base now, and only now, or a timer a
            # lane callback arms would land on the wheel without spilling.
            if overflow[0][3] is None:
                heapq.heappop(overflow)
                self._cancelled -= 1
            else:
                self._advance_horizon()

    def _pop_timed(self, limit: float) -> list | None:
        tick_heap = self._tick_heap
        # an empty wheel gets its chance to re-base on the overflow first
        if not tick_heap and self._timed_head() is None:
            return None
        key = tick_heap[0]
        bucket = self._buckets[key]
        if bucket[0][0] > limit:
            return None
        entry = heapq.heappop(bucket)
        if not bucket:
            del self._buckets[key]
            heapq.heappop(tick_heap)
        return entry

    def _timed_due_now(self) -> bool:
        # Everything earlier than `now` has been popped, so the first
        # tick bucket holds every wheel entry at `now`; after run(until)
        # jumped the clock past the horizon, entries at `now` spill.
        now = self.now
        tick_heap = self._tick_heap
        if tick_heap and _live_at(self._buckets[tick_heap[0]], now):
            return True
        return _live_at(self._overflow, now)

    def _compact_timed(self) -> None:
        buckets = self._buckets
        for key in list(buckets):
            bucket = buckets[key]
            bucket[:] = [e for e in bucket if e[3] is not None]
            if bucket:
                heapq.heapify(bucket)
            else:
                del buckets[key]
        self._tick_heap[:] = sorted(buckets)
        overflow = self._overflow
        overflow[:] = [e for e in overflow if e[3] is not None]
        heapq.heapify(overflow)


def _live_at(heap: list, now: float) -> bool:
    """Whether a ``(when, seq)`` heap of entries holds a live one due at
    ``now`` — one comparison unless a cancelled entry heads it."""
    if not heap or heap[0][0] > now:
        return False
    return heap[0][3] is not None or any(
        entry[3] is not None for entry in heap if entry[0] <= now)


def make_simulator(scheduler: str = SCHEDULER_HEAP,
                   start: float = 0.0) -> Simulator:
    """Build a scheduler backend by name (``"heap"`` or ``"wheel"``)."""
    if scheduler == SCHEDULER_HEAP:
        return Simulator(start)
    if scheduler == SCHEDULER_WHEEL:
        return WheelSimulator(start)
    raise SimulationError(
        f"unknown scheduler backend {scheduler!r}; "
        f"choose from {SCHEDULER_NAMES}")
