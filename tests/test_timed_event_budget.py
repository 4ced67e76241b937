"""What one timed event costs the scheduler, and what its handle is.

Every locate hop, notice, surrogate run and handler ``compute`` is one
scheduler callback, so the frames a callback costs are paid about
eleven times per ``thread_chase`` post. ``call_at`` returns the
``[when, seq, args, fn]`` entry it queued (no handle object), the heap's
timed pop records whether the next entry is at the same instant (no miss
pop when the clock moves, on the heap and the wheel alike) and ``now``
is an attribute; these tests hold
the frame counts, ``scheduler.cancel(handle)`` on all three schedulers,
and the two ``DThread`` accessors that became attributes.
"""

import gc
import weakref
from pathlib import Path

import pytest

import repro.sim.scheduler
from repro import DistObject, entry
from repro.sim import Simulator, WheelSimulator
from repro.threads.thread import DONE, FAILED, TERMINATED, DThread
from repro.transport.realtime import RealtimeScheduler
from tests.conftest import Echo, Sleeper, make_cluster
from tests.frames import FrameCensus

SCHEDULER = str(Path(repro.sim.scheduler.__file__).resolve())

#: fire times of the measured callbacks: four instants, one of them
#: shared by two timed entries, and the last callback stops the count
TIMES = (1.0, 2.0, 2.0, 3.0, 4.0)


# ----------------------------------------------------------------------
# (a) frames per timed callback
# ----------------------------------------------------------------------

def scheduler_frames(sim, schedule):
    """Frames in ``scheduler.py`` from the first ``schedule(when, fn)``
    until the last of the :data:`TIMES` callbacks starts."""
    with FrameCensus(lambda code: code.co_filename == SCHEDULER) as census:
        for when in TIMES[:-1]:
            schedule(sim, when, lambda: None)
        schedule(sim, TIMES[-1], census.stop)
        sim.run()
    return {name: count for (_, name), count in census.items()}


def at(sim, when, fn):
    sim.call_at(when, fn)


def after(sim, when, fn):
    sim.call_after(when - sim.now, fn)


N = len(TIMES)

#: per schedule style, the same on both backends: ``call_at`` and one
#: ``_pop_timed`` per callback (``call_after`` adds its delegation). The
#: wheel paid 2 more per callback while it pushed through ``_place`` and
#: made a miss pop as the drain started and after each clock move
FRAME_BUDGET = {
    "at": {"call_at": N, "_pop_timed": N, "run": 1, "_drain": 1},
    "after": {"call_after": N, "call_at": N, "_pop_timed": N, "run": 1,
              "_drain": 1},
}


@pytest.mark.parametrize("style", ["at", "after"])
@pytest.mark.parametrize("backend", ["heap", "wheel"])
def test_frames_per_timed_callback(backend, style):
    sim = Simulator() if backend == "heap" else WheelSimulator()
    frames = scheduler_frames(sim, at if style == "at" else after)
    assert dict(frames) == FRAME_BUDGET[style]


def test_the_handle_is_the_queued_entry():
    sim = Simulator()

    def fn(*args):
        return None

    assert sim.call_at(2.0, fn, 1, 2) == [2.0, 0, (1, 2), fn]
    assert sim.call_soon(fn) == [0.0, 1, (), fn]
    assert not hasattr(repro.sim.scheduler, "Handle")


def test_now_is_an_attribute_the_drain_moves():
    sim = Simulator(start=1.0)
    assert "now" in vars(sim) and "now" not in vars(Simulator)
    seen = []
    sim.call_at(3.0, lambda: seen.append(sim.now))
    sim.run(until=5.0)
    assert seen == [3.0] and sim.now == 5.0


# ----------------------------------------------------------------------
# (b) cancel(handle) on all three schedulers
# ----------------------------------------------------------------------

@pytest.fixture(params=["heap", "wheel", "realtime"])
def sched(request):
    if request.param == "heap":
        yield Simulator()
    elif request.param == "wheel":
        yield WheelSimulator(tick=1e-3, slots=8)
    else:
        scheduler = RealtimeScheduler(poll=0.001)
        yield scheduler
        scheduler.close()


def queued(sched):
    """Entries physically queued, live or cancelled."""
    if isinstance(sched, RealtimeScheduler):
        return len(sched._timers) + len(sched._ready)
    if isinstance(sched, WheelSimulator):
        return (sum(map(len, sched._buckets.values()))
                + len(sched._overflow) + len(sched._ready))
    return len(sched._queue) + len(sched._ready)


class TestCancel:
    def test_idempotent(self, sched):
        handle = sched.call_after(30.0, lambda: None)
        sched.call_after(30.0, lambda: None)
        sched.cancel(handle)
        sched.cancel(handle)
        assert sched.pending == 1
        assert sched.stats()["cancellations"] == 1

    def test_a_no_op_once_fired(self, sched):
        fired = []
        handle = sched.call_soon(fired.append, "f")
        sched.run()
        sched.cancel(handle)
        assert fired == ["f"]
        assert sched.pending == 0
        assert sched.stats()["cancellations"] == 0

    def test_releases_the_closure_and_args(self, sched):
        class Payload:
            pass

        payload, captured = Payload(), Payload()
        refs = weakref.ref(payload), weakref.ref(captured)
        handle = sched.call_after(30.0, lambda p: captured, payload)
        sched.cancel(handle)
        del payload, captured
        gc.collect()
        assert queued(sched) == 1  # still queued, pinning nothing
        assert [ref() for ref in refs] == [None, None]

    def test_pending_excludes_cancelled(self, sched):
        handles = [sched.call_after(30.0 + i, lambda: None)
                   for i in range(5)]
        sched.cancel(handles[0])
        sched.cancel(handles[3])
        assert sched.pending == 3

    def test_compaction_purges_dead_entries(self, sched):
        handles = [sched.call_after(30.0 + i, lambda: None)
                   for i in range(200)]
        for handle in handles[:150]:
            sched.cancel(handle)
        assert sched.compactions >= 1
        assert sched.pending == 50
        assert queued(sched) <= 100


# ----------------------------------------------------------------------
# (c) DThread.alive and DThread.sim are attributes
# ----------------------------------------------------------------------

class Quitter(DistObject):
    @entry
    def fail(self, ctx):
        yield ctx.compute(1e-3)
        raise ValueError("boom")


@pytest.fixture()
def finishes(monkeypatch):
    """``(thread, state before, alive before, state after, alive after)``
    of every ``finish()``."""
    seen = []
    original = DThread.finish

    def spy(self, *args, **kwargs):
        before = (self.state, self.alive)
        original(self, *args, **kwargs)
        seen.append((self, *before, self.state, self.alive))

    monkeypatch.setattr(DThread, "finish", spy)
    return seen


@pytest.mark.parametrize("outcome", [DONE, FAILED, TERMINATED])
def test_alive_flips_exactly_at_finish(outcome, finishes):
    cluster = make_cluster(n_nodes=2)
    if outcome == DONE:
        thread = cluster.spawn(cluster.create_object(Echo, node=1), "echo", 7)
    elif outcome == FAILED:
        thread = cluster.spawn(cluster.create_object(Quitter, node=1), "fail")
    else:
        thread = cluster.spawn(cluster.create_object(Sleeper, node=1), "hold")
    assert thread.sim is cluster.sim
    cluster.run(until=0.5)
    if outcome == TERMINATED:
        assert thread.alive
        cluster.invoker.terminate_thread(thread, reason="test")
        cluster.run()
    [(_, state, alive, state_after, alive_after)] = [
        call for call in finishes if call[0] is thread]
    assert alive and state not in (DONE, FAILED, TERMINATED)
    assert state_after == outcome and not alive_after
    # a second finish() changes nothing
    thread.finish(None, None, state=DONE)
    assert thread.state == outcome and not thread.alive


class Hop(DistObject):
    """One frame of a chased thread: attach a handler, go one deeper."""

    @entry
    def descend(self, ctx, deeper):
        def handler(hctx, block):
            yield hctx.compute(1e-6)
            return None  # propagate down the LIFO chain

        yield ctx.attach_handler("CHASE", handler)
        if deeper:
            result = yield ctx.invoke(deeper[0], "descend", deeper[1:])
            return result
        yield ctx.sleep(1e9)


def test_no_thread_outgrows_the_shared_key_dict():
    """CPython shares one key table between the instance dicts of a
    class while none holds more than 30 keys; a ``thread_chase``-shaped
    run (tid and gid raises at threads migrated three nodes deep, each
    frame with a handler) must keep every ``DThread`` under it."""
    cluster = make_cluster(n_nodes=4)
    cluster.register_event("CHASE")
    gid = cluster.new_group()
    threads = []
    for index in range(4):
        caps = [cluster.create_object(Hop, node=(index + k) % 4)
                for k in range(1, 4)]
        threads.append(cluster.spawn(caps[0], "descend", caps[1:], at=0,
                                     group=gid))
    cluster.run(until=0.1)
    for post in range(24):
        target = gid if post % 8 == 7 else threads[post % 4].tid
        cluster.raise_event("CHASE", target, from_node=post % 4,
                            user_data=post)
        cluster.run(until=cluster.now + 0.01)
    assert all(thread.alive for thread in threads)
    sizes = [len(vars(obj)) for obj in gc.get_objects()
             if isinstance(obj, DThread)]
    assert len(sizes) > len(threads)  # surrogates and master threads too
    assert max(sizes) <= 29
