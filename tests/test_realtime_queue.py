"""The wall-clock scheduler's own run queue (:mod:`repro.transport.realtime`).

``RealtimeScheduler`` keeps its callbacks in a timer heap and a ready
list and shows asyncio one ``_turn`` per loop iteration.  These tests pin
what that buys and what it must not change: (when, seq) order, lazy
cancellation, one selector poll between turns, an error stopping the
turn without losing the callbacks behind it, the per-``run()``
``max_events`` valve, the ``Simulator.stats()`` key names — and that
asyncio handles are created per turn, not per callback.
"""

from __future__ import annotations

import socket

import pytest

from repro.errors import SimulationError
from repro.sim.scheduler import Simulator
from repro.transport.realtime import RealtimeScheduler


@pytest.fixture
def sched():
    scheduler = RealtimeScheduler(poll=0.001)
    yield scheduler
    scheduler.close()


def count_loop_handles(sched):
    """Wrap the loop's scheduling calls; returns the list they append to
    (one entry per asyncio handle created, the callback's name)."""
    created = []
    loop = sched.loop
    for name in ("call_soon", "call_at"):
        original = getattr(loop, name)

        def wrapper(*args, _original=original, _fn_at=(name == "call_at"),
                    **kwargs):
            callback = args[1] if _fn_at else args[0]
            created.append(getattr(callback, "__name__", repr(callback)))
            return _original(*args, **kwargs)

        setattr(loop, name, wrapper)
    return created


class TestOrder:
    def test_when_then_seq_over_every_entry_point(self, sched):
        fired = []
        sched.call_after(0.03, fired.append, "t30")
        sched.call_soon(fired.append, "soon-1")
        sched.call_after(0.01, fired.append, "t10")
        sched.call_after(0, fired.append, "after-0")
        sched.call_at(sched.now - 5.0, fired.append, "at-past")
        sched.call_at(sched.now + 0.02, fired.append, "t20")
        sched.call_soon(fired.append, "soon-2")
        assert sched.pending == 7
        sched.run()
        # everything already due runs in scheduling order (a call_at in
        # the past counts as "now"), then the timers by time
        assert fired == ["soon-1", "after-0", "at-past", "soon-2",
                         "t10", "t20", "t30"]
        assert sched.pending == 0

    def test_due_timer_runs_ahead_of_younger_ready_entries(self, sched):
        fired = []

        def spin_then_schedule():
            # the 2 ms timer comes due while this callback holds the
            # loop; the entry scheduled afterwards is younger than it
            deadline = sched.now + 0.004
            while sched.now < deadline:
                pass
            sched.call_soon(fired.append, "younger")

        sched.call_after(0.002, fired.append, "timer")
        sched.call_soon(spin_then_schedule)
        sched.run()
        assert fired == ["timer", "younger"]

    def test_nearer_timer_re_aims_the_wake_up(self, sched):
        fired = []
        sched.call_after(5.0, fired.append, "far")
        sched.run(until=sched.now + 0.005)  # wake-up now aimed at "far"
        sched.call_after(0.005, fired.append, "near")
        sched.run(until=sched.now + 0.05)
        assert fired == ["near"]
        assert sched.pending == 1

    def test_timers_survive_separate_run_slices(self, sched):
        fired = []
        sched.call_after(0.03, fired.append, "later")
        sched.run(until=sched.now + 0.005)
        assert fired == [] and sched.pending == 1
        sched.run(until=sched.now + 0.005)
        assert fired == []
        sched.run()
        assert fired == ["later"] and sched.pending == 0


class TestCancel:
    def test_cancel_ready_entry_from_earlier_callback_same_turn(self, sched):
        fired = []
        victim = []
        sched.call_soon(lambda: sched.cancel(victim[0]))
        victim.append(sched.call_soon(fired.append, "victim"))
        sched.call_soon(fired.append, "bystander")
        sched.run()
        assert fired == ["bystander"]
        assert sched.pending == 0
        assert sched.stats()["cancellations"] == 1

    def test_cancelled_head_timer_does_not_delay_the_next(self, sched):
        fired = []
        head = sched.call_after(0.002, fired.append, "head")
        sched.call_after(0.004, fired.append, "next")
        sched.cancel(head)
        sched.run()
        assert fired == ["next"]

    def test_cancel_after_fire_is_a_noop(self, sched):
        handle = sched.call_soon(lambda: None)
        sched.run()
        sched.cancel(handle)
        assert sched.pending == 0
        assert sched.stats()["cancellations"] == 0

    def test_dead_timers_are_compacted(self, sched):
        handles = [sched.call_after(30.0 + i, lambda: None)
                   for i in range(200)]
        for handle in handles[:150]:
            sched.cancel(handle)
        assert sched.compactions >= 1
        assert sched.pending == 50
        assert len(sched._timers) < 200


class TestTurns:
    def test_work_scheduled_in_a_turn_waits_for_a_selector_poll(self, sched):
        # a self-rescheduling chain of 1 000 must not starve a socket
        # that is already readable: the read is served within one turn
        ours, theirs = socket.socketpair()
        try:
            ours.setblocking(False)
            theirs.send(b"x")
            steps = {"chain": 0, "at_read": None}

            def on_readable():
                steps["at_read"] = steps["chain"]
                sched.loop.remove_reader(ours)

            def link():
                steps["chain"] += 1
                if steps["chain"] < 1000:
                    sched.call_soon(link)

            sched.loop.add_reader(ours, on_readable)
            sched.call_soon(link)
            sched.run()
            assert steps["chain"] == 1000
            assert steps["at_read"] is not None and steps["at_read"] <= 2
        finally:
            ours.close()
            theirs.close()

    def test_entries_scheduled_during_a_turn_run_next_turn(self, sched):
        turns = []
        original = sched._turn

        def counting_turn():
            turns.append([])
            original()

        sched._turn = counting_turn

        def note(tag, then=None):
            turns[-1].append(tag)
            if then:
                sched.call_soon(note, then)

        sched.call_soon(note, "a", "a2")
        sched.call_soon(note, "b", "b2")
        sched.run()
        assert [t for t in turns if t] == [["a", "b"], ["a2", "b2"]]

    def test_asyncio_handles_are_per_turn_not_per_callback(self, sched):
        created = count_loop_handles(sched)
        turns = {"n": 0}
        original_turn, original_wake = sched._turn, sched._on_wake

        def counting_turn():
            turns["n"] += 1
            original_turn()

        def counting_wake():
            turns["n"] += 1
            original_wake()

        sched._turn, sched._on_wake = counting_turn, counting_wake
        fired = []
        for i in range(2000):
            sched.call_soon(fired.append, i)
        for i in range(200):
            sched.call_after(0.002 + (i % 4) * 0.001, fired.append, i)

        def link(n):
            if n:
                sched.call_soon(link, n - 1)

        sched.call_soon(link, 50)
        sched.run()
        assert len(fired) == 2200
        assert sched.events_processed == 2200 + 51
        ours = [name for name in created
                if name in ("counting_turn", "counting_wake")]
        # one handle per turn or wake-up, none per callback ...
        assert len(ours) <= turns["n"] + 1
        assert turns["n"] < 100
        # ... and the loop as a whole (run()'s poll sleeps included)
        # created a small fraction of one handle per callback
        assert len(created) < sched.events_processed // 4


class TestErrors:
    def test_error_leaves_later_entries_queued_and_raises_once(self, sched):
        fired = []

        def boom():
            raise ValueError("kaboom")

        sched.call_soon(fired.append, 0)
        sched.call_soon(fired.append, 1)
        sched.call_soon(boom)
        sched.call_soon(fired.append, 3)
        sched.call_after(0.002, fired.append, 4)
        with pytest.raises(ValueError, match="kaboom"):
            sched.run()
        assert fired == [0, 1]
        assert sched.pending == 2
        sched.run()  # raised once; the rest was only waiting
        assert fired == [0, 1, 3, 4]
        assert sched.pending == 0

    def test_max_events_counts_per_run_call(self, sched):
        def forever():
            sched.call_soon(forever)

        sched.call_soon(forever)
        with pytest.raises(SimulationError, match="exceeded max_events=50"):
            sched.run(max_events=50)
        assert sched.events_processed >= 50
        # the second call has its own budget: it neither returns at
        # once because the lifetime count is past 50, nor lets the
        # livelock spin
        with pytest.raises(SimulationError, match="exceeded max_events=50"):
            sched.run(max_events=50)

    def test_run_after_many_lifetime_events_still_runs_timers(self, sched):
        for _ in range(100):
            sched.call_soon(lambda: None)
        sched.run(max_events=None)
        fired = []
        sched.call_after(0.005, fired.append, "timer")
        sched.run(max_events=50)  # lifetime events are already past 50
        assert fired == ["timer"]


class TestStats:
    def test_simulator_key_names_with_real_counts(self, sched):
        keep = sched.call_after(30.0, lambda: None)
        sched.cancel(sched.call_after(30.0, lambda: None))
        for _ in range(3):
            sched.call_soon(lambda: None)
        sched.run(until=sched.now + 0.01)
        data = sched.stats()
        assert set(Simulator().stats()) <= set(data)
        assert data["backend"] == "realtime"
        assert data["scheduled"] == 5
        assert data["executed"] == data["events_processed"] == 3
        assert data["cancellations"] == 1
        assert data["pending"] == sched.pending == 1
        assert data["now"] >= 0.01
        sched.cancel(keep)
        assert sched.pending == 0
