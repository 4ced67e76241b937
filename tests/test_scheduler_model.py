"""One model, three implementations.

The specification of the simulator is a list kept sorted by
``(when, seq)`` (:class:`ListModel`): the head runs next, a cancelled
entry stays queued until it reaches the head, and the list is rebuilt
once the dead outnumber the live. Hypothesis generates programs —
scheduling at the current instant and later from outside and inside
callbacks, cancels of every kind, ``step``, ``run`` with ``until`` and
``max_events``, callbacks that raise — and one interpreter replays each
program on the model, the heap backend and the wheel backend, which must
agree on every firing, every clock reading and every counter.

Also here: the two scheduler bugs the instant lane's invariants depend
on (a cancel after the callback fired; ``run(until=past)``), the wheel's
spill/migration counts frozen from the commit before the lane existed,
and the contract ``benchmarks/e17/trace.py`` relies on.
"""

from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro import DistObject, on_event
from repro.errors import SimulationError
from repro.sim import Simulator, WheelSimulator
from tests.conftest import make_cluster

TICK, SLOTS = 1e-3, 16  # horizon 16 ms ahead of the window base
#: same instant, same tick, next tick, inside the window, past the horizon
DELAYS = (0.0, 2e-4, 1e-3, 3.7e-3, 0.02, 0.5)


# --------------------------------------------------------------- the model

class _ModelEntry:
    def __init__(self, when, seq, fn, args):
        self.when, self.seq = when, seq
        self.fn, self.args = fn, args


class ListModel:
    """The scheduler as a sorted list; no lanes, no heap, no wheel."""

    def __init__(self):
        self.now = 0.0
        self.entries = []
        self.scheduled = self.executed = 0
        self.cancellations = self.compactions = self.dead = 0

    def call_at(self, when, fn, *args):
        assert when >= self.now
        entry = _ModelEntry(float(when), self.scheduled, fn, args)
        self.scheduled += 1
        self.entries.append(entry)
        self.entries.sort(key=attrgetter("when", "seq"))
        return entry

    def cancel(self, entry):
        if entry.fn is None:  # cancelled already, or fired
            return
        entry.fn, entry.args = None, ()
        self.cancellations += 1
        self.dead += 1
        if (self.dead > self.pending
                and len(self.entries) > Simulator.COMPACT_MIN):
            self.entries = [e for e in self.entries if e.fn is not None]
            self.dead = 0
            self.compactions += 1

    def call_after(self, delay, fn, *args):
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn, *args):
        return self.call_at(self.now, fn, *args)

    @property
    def pending(self):
        return sum(e.fn is not None for e in self.entries)

    def peek_next(self):
        while self.entries and self.entries[0].fn is None:
            del self.entries[0]
            self.dead -= 1
        return self.entries[0].when if self.entries else None

    def _fire(self):
        entry = self.entries.pop(0)
        self.now = entry.when
        self.executed += 1
        fn, entry.fn = entry.fn, None
        fn(*entry.args)

    def step(self):
        if self.peek_next() is None:
            return False
        self._fire()
        return True

    def run(self, until=None, max_events=None):
        if until is not None and until < self.now:
            return
        processed = 0
        while True:
            when = self.peek_next()
            if when is None or (until is not None and when > until):
                break
            self._fire()
            processed += 1
            if max_events is not None and processed >= max_events:
                raise SimulationError("max_events")
        if until is not None and self.now < until:
            self.now = float(until)

    def stats(self):
        return {"scheduled": self.scheduled, "executed": self.executed,
                "cancellations": self.cancellations,
                "compactions": self.compactions}


# --------------------------------------------------------- the interpreter

class Boom(Exception):
    pass


def execute(sim, program):
    """Replay ``program`` on ``sim``; everything observable goes in the log."""
    log, handles = [], []

    def schedule(kind, delay, script):
        tag = len(handles)
        if kind == "at":
            handle = sim.call_at(sim.now, fire, tag, script)
        elif kind == "soon":
            handle = sim.call_soon(fire, tag, script)
        else:
            handle = sim.call_after(delay, fire, tag, script)
        handles.append(handle)

    def act(action):
        kind = action[0]
        if kind in ("at", "soon", "after"):
            schedule(*action)
        elif kind == "cancel" and handles:
            sim.cancel(handles[action[1] % len(handles)])
        elif kind == "flood":
            # enough cancelled timers to cross the compaction threshold,
            # with survivors on every side of the dead ones
            first = len(handles)
            for i in range(action[1]):
                schedule("after", DELAYS[i % len(DELAYS)], ())
            for i, handle in enumerate(handles[first:]):
                if i % 4:
                    sim.cancel(handle)
        elif kind == "boom":
            raise Boom

    def fire(tag, script):
        log.append(("fire", tag, sim.now))
        for action in script:
            act(action)

    def observe(label):
        stats = sim.stats()
        log.append(("state", label, sim.now, sim.pending,
                    stats["scheduled"], stats["executed"],
                    stats["cancellations"], stats["compactions"]))

    for op in program:
        try:
            if op[0] == "step":
                log.append(("stepped", sim.step()))
            elif op[0] == "peek":  # purges cancelled heads: an operation
                log.append(("next", sim.peek_next()))
            elif op[0] == "run":
                sim.run()
            elif op[0] == "run_until":
                sim.run(until=sim.now + op[1])
            elif op[0] == "run_max":
                sim.run(max_events=op[1])
            else:
                act(op)
        except Boom:
            log.append(("boom",))  # the entries behind it stay queued
        except SimulationError:
            log.append(("livelock",))
        observe(op[0])
    while True:  # run() is callable again after a callback raised
        try:
            sim.run()
            break
        except Boom:
            log.append(("boom",))
    observe("drained")
    assert sim.pending == 0 and sim.peek_next() is None
    for handle in handles:  # every one is spent: fired or cancelled
        sim.cancel(handle)
    observe("cancelled again")
    return log


def _but_compactions(log):
    """``log`` without its ``compactions`` column, for the wheel: moving
    the horizon sheds every cancelled entry it passes, not only those at
    the head, so its dead count runs lower than the list's (as it did
    before the lane; the frozen programs below pin its own numbers)."""
    return [entry[:-1] if entry[0] == "state" else entry for entry in log]


# ------------------------------------------------------------ the programs

_leaf = st.one_of(
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("flood"), st.sampled_from((30, 70, 130))),
    st.just(("boom",)),
)


def _action(scripts):
    """One action; a scheduling action carries the script its callback
    runs when it fires."""
    return st.one_of(
        st.tuples(st.just("at"), st.none(), scripts),
        st.tuples(st.just("soon"), st.none(), scripts),
        st.tuples(st.just("after"), st.sampled_from(DELAYS), scripts),
        _leaf,
    )


_scripts = st.recursive(
    st.lists(_leaf, max_size=1),
    lambda scripts: st.lists(_action(scripts), max_size=4), max_leaves=10)

_drivers = st.one_of(
    st.just(("step",)),
    st.just(("peek",)),
    st.just(("run",)),
    st.tuples(st.just("run_until"),
              st.sampled_from((-1.0, -1e-4, 0.0, 2e-4, 1e-3, 5e-3, 0.03, 1.0))),
    st.tuples(st.just("run_max"), st.sampled_from((1, 2, 5))),
)

_programs = st.lists(st.one_of(_drivers, _action(_scripts)), max_size=14)


# 300 examples under the `default` profile, ten times that under `ci`
@settings(max_examples=3 * settings.default.max_examples, deadline=None)
@given(_programs)
def test_heap_and_wheel_follow_the_list_model(program):
    model, heap, wheel = (execute(sim, program) for sim in (
        ListModel(), Simulator(), WheelSimulator(tick=TICK, slots=SLOTS)))
    assert heap == model
    assert _but_compactions(wheel) == _but_compactions(model)


# ------------------------------------- wheel counters frozen at the parent

#: three fixed programs and the ``(wheel_spills, wheel_migrations,
#: compactions)`` the wheel read for each at the commit before the
#: instant lane: a lane that re-based the horizon early or late, or
#: purged cancelled entries in another order, would move them
FROZEN_WHEEL_COUNTS = [
    # the clock jumps past the horizon on an empty wheel, then work is
    # scheduled for that very instant: it spills like any other entry,
    # and after migrating back still precedes what the lane takes later
    ([("run_until", 0.05), ("soon", None, ()), ("at", None, ()), ("peek",),
      ("at", None, [("after", 1e-3, ())]), ("run",)],
     (2, 2, 0)),
    # a lane callback arms timers while the wheel is empty and only a
    # far timer is left: the horizon has not moved yet, so the 20 ms
    # one spills too — re-basing as soon as the wheel (but not the
    # lane) was empty would have put it on the wheel
    # (and run(until) ends by shedding the cancelled head past `until`
    # and re-basing on the far timer behind it, so the next near one
    # does not spill)
    ([("after", 3.7e-3, ()), ("after", 0.5, ()), ("cancel", 0),
      ("run_until", 1e-3), ("after", 0.02, ()), ("run",),
      ("soon", None, [("after", 0.02, ())]), ("after", 0.5, ()), ("peek",),
      ("run",),
      ("soon", None, [("after", 0.5, ()),
                      ("soon", None, [("after", 3.7e-3, ()),
                                      ("after", 0.02, ())])]),
      ("run",)],
     (5, 5, 0)),
    # floods of cancelled timers across the horizon, compaction in the
    # middle of a drain, run(until) in chunks and by event budget
    ([("flood", 130), ("after", 2e-4, [("flood", 70), ("soon", None, ())]),
      ("run_max", 5), ("run_until", 5e-3), ("flood", 30), ("peek",),
      ("run_until", 0.03), ("step",), ("run",)],
     (69, 17, 2)),
]


@pytest.mark.parametrize("program, frozen", FROZEN_WHEEL_COUNTS)
def test_wheel_counters_match_the_parent(program, frozen):
    wheel = WheelSimulator(tick=TICK, slots=SLOTS)
    assert _but_compactions(execute(wheel, program)) == _but_compactions(
        execute(ListModel(), program))
    stats = wheel.stats()
    assert (stats["wheel_spills"], stats["wheel_migrations"],
            stats["compactions"]) == frozen


# --------------------------------------------------- the two scheduler bugs

BACKENDS = [Simulator, lambda: WheelSimulator(tick=TICK, slots=SLOTS)]


@pytest.mark.parametrize("make", BACKENDS, ids=["heap", "wheel"])
def test_cancel_after_the_callback_fired_is_a_no_op(make):
    sim = make()
    fired = []
    handle = sim.call_at(1, fired.append, "f")
    sim.call_at(2, fired.append, "g")
    sim.run(until=1.5)
    sim.cancel(handle)
    sim.cancel(handle)
    assert sim.pending == 1
    sim.run()
    assert fired == ["f", "g"]
    assert sim.pending == 0
    assert sim.stats()["cancellations"] == 0


class _Sleeper(DistObject):
    @on_event("EVT")
    def on_evt(self, ctx, block):
        yield ctx.sleep(100.0)


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_watchdog_cancelled_inside_its_own_expiry(scheduler):
    """The master's exit (``ObjectManager._advance``) cancels the run's
    watchdog inside the watchdog's ``expire`` callback when the deadline
    fires; ``pending`` is what ``quiescent()`` and ``run_sharded``
    read."""
    cluster = make_cluster(n_nodes=1, handler_deadline=0.01,
                           scheduler=scheduler)
    cluster.register_event("EVT")
    cap = cluster.create_object(_Sleeper, node=0)
    for post in range(3):
        cluster.raise_event("EVT", cap, from_node=0, user_data=post)
    cluster.run(until=1.0)
    assert cluster.supervision_stats()["handler_timeouts"] == 3
    stats = cluster.scheduler_stats()
    # the three cancellations are the killed handlers' 100 s sleeps
    assert (stats["pending"], stats["cancellations"]) == (0, 3)
    assert cluster.quiescent()


@pytest.mark.parametrize("make", BACKENDS, ids=["heap", "wheel"])
def test_run_until_the_past_leaves_the_clock_alone(make):
    sim = make()
    fired = []
    sim.call_at(5.0, fired.append, 5.0)
    sim.call_at(9.0, fired.append, 9.0)
    sim.run(until=6.0)
    sim.run(until=2.0)  # used to rewind the clock to 2.0
    assert sim.now == 6.0
    with pytest.raises(SimulationError):
        sim.call_at(3.0, fired.append, 3.0)
    sim.run()
    assert fired == [5.0, 9.0]


# ------------------------------------------------------ the tracer contract

@pytest.mark.parametrize("cls", [Simulator, WheelSimulator])
def test_what_the_e17_tracer_needs_from_the_scheduler(cls, monkeypatch):
    """``benchmarks/e17/trace.py`` patches ``vars(cls)["call_at"]`` on
    both classes and ``vars(Simulator)["run"]``, and nothing else: every
    scheduling call must pass through the class's own ``call_at`` and
    every callback must be fired from ``Simulator.run``."""
    assert "call_at" in vars(Simulator) and "call_at" in vars(WheelSimulator)
    assert "run" in vars(Simulator) and "run" not in vars(WheelSimulator)
    original = vars(cls)["call_at"]
    seen = []

    def spy(self, when, fn, *args):
        seen.append(fn)
        return original(self, when, fn, *args)

    monkeypatch.setattr(cls, "call_at", spy)
    sim = cls()
    fired = []
    callbacks = [fired.append, fired.insert, fired.extend]
    sim.call_soon(callbacks[0], "soon")
    sim.call_after(0.0, callbacks[1], 0, "after-0")
    sim.call_after(1.0, callbacks[2], ["after-1"])
    sim.run()
    assert seen == callbacks
    assert fired == ["after-0", "soon", "after-1"]
