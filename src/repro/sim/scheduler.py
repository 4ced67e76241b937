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
recorded by each backend's timed pop itself (is the next entry at the
same instant?), so a clock move costs no miss pop. The record is exact
on both: the wheel keeps every entry of one instant in one tick bucket,
and the one "maybe" is the wheel's spill of an entry due at ``now``
after ``run(until)`` jumped the clock past its horizon, which no pop
saw. ``now`` is a plain attribute that the loop, ``run(until)`` and
:meth:`Simulator.advance_to` move. The wall-clock ``RealtimeScheduler``
(:mod:`repro.transport.realtime`) has the same shape — timer heap plus
ready list — and the same rule. :meth:`Simulator.nothing_due_now`
reads that rule without popping: when no other live entry is due at
``now``, a same-instant hop the running callback would schedule to
itself is the next callback either way, so the thread driver does its
work inline. :meth:`Simulator.advance_to` carries the rule across
virtual time: when no other live entry is due by a later instant the
running drain may still reach (its ``until``), a wake-up the running
callback would schedule there is the next callback either way, so the
clock moves there and the callback carries on (on the wheel, a wake-up
at or past the horizon counts the spill and the re-base the drain
would have made). The realtime scheduler answers no to both. A callback
together with what it carried on to counts as one event for ``step``
and ``run(max_events=…)``; the thread driver bounds how far one
carries on (``threads.thread.RECV_FOLDS``).

An entry may carry more than one call. :meth:`Simulator.ride` adds a
call to a pending entry that is the last one scheduled, so the added
call is the one the next ``call_at`` at that instant would have queued
right behind it (the sim transport's messages due at one instant, see
:mod:`repro.transport.simlocal`); the entry then runs its calls in
order as one callback. While calls of the running entry remain, a live
placeholder at the head of the instant lane says so, so
``nothing_due_now`` and ``advance_to`` answer no exactly as they would
to the separate entries; and a call that raises leaves the rest queued
ahead of everything else due at that instant, where separate entries
would have been. Only the ``scheduled`` and ``executed`` counts see the
difference. A fired entry's arguments are emptied as it runs, so a
caller that keeps its last entry to ride on keeps no payload alive.

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
        #: to find out; False can be trusted, True may be a miss, and
        #: only the wheel's spill at ``now`` sets it without a pop)
        self._next_due = False
        #: the running drain's ``until`` (-inf outside a drain): how far
        #: :meth:`advance_to` may move the clock
        self._limit = -inf

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
        if not when >= now:  # also refuses NaN, which orders nowhere
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

    def ride(self, entry: list, fn: Callable[..., Any], *args: Any) -> None:
        """Add ``fn(*args)`` to ``entry``, behind the calls it carries.

        The caller has checked that ``entry`` is pending, is the last
        entry scheduled, and is due at the instant ``fn`` would be
        scheduled at: the call then runs exactly where a ``call_at`` of
        its own would have queued it, without an entry, a push or a pop
        of its own. The entry's calls stay opaque ``(fn, args)`` pairs,
        whatever a wrapper of ``call_at`` put in the entry's first.
        """
        if entry[3] is _run_calls:
            entry[2][1].append((fn, args))
        else:
            entry[2] = (self, [(entry[3], entry[2]), (fn, args)])
            entry[3] = _run_calls

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` at the current instant, after queued work."""
        return self.call_at(self.now, fn, *args)

    def _requeue(self, entry: list) -> None:
        """Queue ``entry``, due at ``now`` with sequence number -1, as a
        callback that runs before any other due now: the calls of a
        shared entry left when one of them raised. The timed lane is
        taken first at an instant, and -1 sorts before every entry
        there; a callback runs below the wheel's horizon (the pop that
        reached it re-based the window), so the entry goes on the
        wheel."""
        self._scheduled += 1
        self._place(entry)
        self._next_due = True

    def _place(self, entry: list) -> None:
        """Push an entry onto the timed lane."""
        heapq.heappush(self._queue, entry)

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
        Only a lane head due at ``now`` costs a scan (it may be a
        cancelled entry with live ones behind it).
        """
        ready = self._ready
        if ready and any(entry[3] is not None for entry in ready):
            return False
        queue = self._queue
        return not (queue and queue[0][0] <= self.now
                    and _live_at(queue, self.now))

    def advance_to(self, when: float) -> bool:
        """Move the clock to ``when`` if the running callback's wake-up
        there would be the next callback to run; say whether it did.

        A callback about to schedule itself at ``when`` asks this: when
        no live entry in either lane is due at or before ``when`` and
        the running drain's ``until`` admits it, that wake-up would be
        the very next callback, so the caller carries on at ``when``
        instead — the same callbacks in the same order at the same
        virtual times, minus the wake-up. On True the cancelled entries
        the drain would have shed on its way there are shed, so
        :meth:`stats` moves only by the callback saved; on False nothing
        changes. Outside a drain the answer is False.
        """
        if not when <= self._limit:  # also refuses NaN
            return False
        ready = self._ready
        if ready and any(entry[3] is not None for entry in ready):
            return False
        queue = self._queue
        if queue and queue[0][0] <= when:
            if queue[0][3] is not None or _live_at(queue, when):
                return False
            self._cancelled -= _shed(queue, when)
        if ready:
            self._cancelled -= len(ready)
            ready.clear()
        self.now = when
        self._next_due = False
        return True

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
        self._limit = limit
        try:
            ready = self._ready
            pop_timed = self._pop_timed
            processed = 0
            # Timed entries at `now` were scheduled while the clock was
            # earlier, so they precede the whole lane; none can be added
            # during the instant, so the record the last timed pop left
            # (or one miss, where it says "maybe") settles it until the
            # clock moves. A callback may move it too (advance_to), so
            # `now` is read afresh, never kept in a local.
            due = self._next_due
            while True:
                if due:
                    entry = pop_timed(self.now)
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
                        self.now = entry[0]
                        due = self._next_due
                fn = entry[3]
                if fn is None:
                    self._cancelled -= 1
                    continue
                entry[3] = None  # spent: a late cancel() is a no-op
                args = entry[2]
                entry[2] = ()  # pins no payload (the sim wire keeps it)
                self._events_processed += 1
                fn(*args)
                processed += 1
                if processed == budget:
                    return True
            self.peek_next()  # shed cancelled heads past `until` as well
            if until is not None and self.now < until:
                self.now = float(until)
            return False
        finally:
            self._running = False
            self._limit = -inf

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
        if not when >= now:  # also refuses NaN, which orders nowhere
            raise SimulationError(
                f"cannot schedule at {when!r}; virtual time is already {now!r}"
            )
        seq = self._scheduled
        self._scheduled = seq + 1
        # The horizon test comes first: after run(until=...) has jumped
        # the clock past it, an entry at `now` spills like any other, so
        # whatever is in the lane is earlier than all of the overflow.
        # No pop saw that entry, so it is the one "maybe" the drain's
        # record takes (the next pop re-bases on it).
        if when >= self._horizon:
            entry = [float(when), seq, args, fn]
            heapq.heappush(self._overflow, entry)
            self._spills += 1
            if when == now:
                self._next_due = True
        elif when == now:
            entry = [now, seq, args, fn]
            self._ready.append(entry)
        else:
            # _place, inline: nearly every timer takes this branch
            entry = [float(when), seq, args, fn]
            key = floor(entry[0] / self._tick)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = []
                heapq.heappush(self._tick_heap, key)
            heapq.heappush(bucket, entry)
        return entry

    def _place(self, entry: list) -> None:
        """Push an entry earlier than the horizon into its tick bucket
        (a migration's or a requeue's; ``call_at`` does the same
        inline)."""
        key = floor(entry[0] / self._tick)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = []
            heapq.heappush(self._tick_heap, key)
        heapq.heappush(bucket, entry)

    def _advance_horizon(self, first: float) -> None:
        """The wheel drained to the overflow heap: move the window.

        Re-bases the near window at ``first``, the earliest live entry,
        and migrates everything now inside it onto the wheel. Guaranteed
        to make progress: the new horizon sits ``slots`` ticks past it.
        """
        overflow = self._overflow
        self._horizon = (floor(first / self._tick) + self._slots) * self._tick
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
                self._advance_horizon(overflow[0][0])

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
        if bucket:
            # every entry at one instant is in one bucket: wheel entries
            # lie below the horizon, overflow entries at or past it
            self._next_due = bucket[0][0] == entry[0]
        else:
            self._next_due = False
            del self._buckets[key]
            heapq.heappop(tick_heap)
        return entry

    def nothing_due_now(self) -> bool:
        ready = self._ready
        if ready and any(entry[3] is not None for entry in ready):
            return False
        # Everything earlier than `now` has been popped, so the first
        # tick bucket holds every wheel entry at `now`; after run(until)
        # jumped the clock past the horizon, entries at `now` spill.
        now = self.now
        tick_heap = self._tick_heap
        if tick_heap:
            bucket = self._buckets[tick_heap[0]]
            if bucket[0][0] <= now and _live_at(bucket, now):
                return False
        overflow = self._overflow
        return not (overflow and overflow[0][0] <= now
                    and _live_at(overflow, now))

    def advance_to(self, when: float) -> bool:
        if not when <= self._limit:  # also refuses NaN
            return False
        ready = self._ready
        if ready and any(entry[3] is not None for entry in ready):
            return False
        tick_heap = self._tick_heap
        head = self._buckets[tick_heap[0]][0] if tick_heap else None
        wheel_due = head is not None and head[0] <= when
        if wheel_due and (head[3] is not None or self._wheel_live(when)):
            return False
        # Below the horizon no overflow entry is due by `when`.
        overflow = self._overflow
        crossing = when >= self._horizon
        overflow_due = crossing and overflow and overflow[0][0] <= when
        if overflow_due and _live_at(overflow, when):
            return False
        if wheel_due:
            self._shed_wheel(when)
        if crossing:
            # The wake-up would spill, and with nothing live before it
            # the drain would re-base the window on it and migrate it
            # back: count both and re-base here.
            self._cancelled -= _shed(overflow, when)
            self._spills += 1
            self._migrations += 1
            self._advance_horizon(when)
        if ready:
            self._cancelled -= len(ready)
            ready.clear()
        self.now = when
        self._next_due = False
        return True

    def _wheel_live(self, when: float) -> bool:
        """Whether a live wheel entry is due at or before ``when``."""
        last = floor(when / self._tick)
        buckets = self._buckets
        return any(entry[3] is not None
                   for key in self._tick_heap if key <= last
                   for entry in buckets[key] if entry[0] <= when)

    def _shed_wheel(self, when: float) -> None:
        """Pop the (cancelled) wheel entries due at or before ``when``,
        as the drain's timed pops would, without re-basing."""
        tick_heap, buckets = self._tick_heap, self._buckets
        while tick_heap:
            key = tick_heap[0]
            bucket = buckets[key]
            if bucket[0][0] > when:
                return
            heapq.heappop(bucket)
            self._cancelled -= 1
            if not bucket:
                del buckets[key]
                heapq.heappop(tick_heap)

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


def _run_calls(sim: Simulator, calls: list) -> None:
    """The callback of an entry :meth:`Simulator.ride` added calls to:
    make them in order. Until the last one, a live placeholder heads the
    instant lane, since the calls still to make are due now; if a call
    raises, the calls not made become an entry due now, ahead of every
    other (:meth:`Simulator._requeue`). A function, not a method: a
    scheduler that held its own bound method would be a reference
    cycle, and so would the whole cluster."""
    ready = sim._ready
    last = calls.pop()
    ready.appendleft([sim.now, -1, (), _run_calls])
    calls = iter(calls)
    try:
        for fn, args in calls:
            fn(*args)
    except BaseException:
        ready.popleft()
        sim._requeue([sim.now, -1, (sim, [*calls, last]), _run_calls])
        raise
    ready.popleft()
    fn, args = last
    fn(*args)


def _live_at(heap: list, now: float) -> bool:
    """Whether a ``(when, seq)`` heap of entries, headed by one due at
    ``now``, holds a live one due then — no scan unless the head is
    cancelled."""
    return heap[0][3] is not None or any(
        entry[3] is not None for entry in heap if entry[0] <= now)


def _shed(heap: list, when: float) -> int:
    """Pop the entries due at or before ``when`` off a ``(when, seq)``
    heap, all of them cancelled, as the drain would; return how many."""
    count = 0
    while heap and heap[0][0] <= when:
        heapq.heappop(heap)
        count += 1
    return count


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
