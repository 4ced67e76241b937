"""Folding a ``compute`` wake-up changes the count of scheduler events
and nothing else, as a property.

A scheduler-run ``DThread._step`` that reaches ``ctx.compute(d)`` asks
``sim.advance_to(now + d)``: when no other live callback is due by then,
the drain's ``until`` admits it and (on the wheel) the move is made safe
for the horizon, the clock moves and the step carries on instead of
scheduling itself. Patching the query to always answer no restores the
wake-ups (a test device, not a knob). A drawn program of handlers that
compute drawn durations, raised async or with ``raise_and_wait``, local
and remote, user threads that compute, timers at drawn future times
(some past the wheel's 4.096 s horizon, some cancelled) and handler
watchdogs that fall inside a compute, driven by drawn ``run(until)``
bounds and a ``run(max_events)`` run, plays four ways: folded on the
heap and on the wheel, hopped on the heap and on the wheel. All four
give one handler log (with virtual times), one ``(now,
message_stats)`` after every bound, one journal ledger and one set of
raiser results; the two folded runs schedule the same number of
callbacks, and each backend's other scheduler counters (spills,
migrations, compactions, ...) read the same folded and hopped.

The example budget is the hypothesis profile's (``tests/conftest.py``):
CI runs this file again under ``--hypothesis-profile=ci``.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import DistObject, entry, on_event
from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.scheduler import WheelSimulator
from tests.conftest import make_cluster

EVENTS = ("WORK", "RELAY")
#: home node of each sink; node 1 is remote to raises from node 0
HOMES = (0, 0, 1)
#: compute durations: below a tick, across ticks, across the horizon
SECONDS = st.sampled_from((0.0, 1e-4, 2e-3, 0.3, 1.5, 3.0))
#: timer delays, some past the 4.096 s horizon of a fresh wheel
DELAYS = st.sampled_from((1e-4, 0.25, 1.0, 2.5, 4.05, 4.2, 6.0, 9.0))


class Sink(DistObject):
    """Logs each handler's start, compute ends and end; ``RELAY``
    re-raises ``WORK`` at the next sink once its computes are done."""

    def __init__(self, index, cluster, log):
        super().__init__()
        self._index = index
        self._cluster = cluster
        self._log = log
        self._caps = []

    @on_event(*EVENTS)
    def on_any(self, ctx, block):
        log, index = self._log, self._index
        pos, seconds = block.user_data
        log.append((ctx.now, "start", index, block.event, pos))
        for step, duration in enumerate(seconds):
            yield ctx.compute(duration)
            log.append((ctx.now, "computed", index, pos, step))
        if block.event == "RELAY":
            self._cluster.raise_event(
                "WORK", self._caps[(index + 1) % len(self._caps)],
                from_node=ctx.node, user_data=(("relayed", pos), seconds[:1]))
        log.append((ctx.now, "end", index, block.event, pos))
        return pos


class Spinner(DistObject):
    """A user thread that computes each drawn duration in turn."""

    def __init__(self, log):
        super().__init__()
        self._log = log

    @entry
    def spin(self, ctx, pos, seconds):
        for step, duration in enumerate(seconds):
            yield ctx.compute(duration)
            self._log.append((ctx.now, "spun", pos, step))
        return pos


step = st.one_of(
    st.tuples(st.just("raise"), st.sampled_from(EVENTS),
              st.integers(0, len(HOMES) - 1), st.integers(0, 1),
              st.booleans(), st.lists(SECONDS, max_size=3)),
    st.tuples(st.just("timer"), DELAYS, st.booleans()),
    st.tuples(st.just("thread"), st.integers(0, 1),
              st.lists(SECONDS, min_size=1, max_size=4)),
    st.tuples(st.just("later"), DELAYS))

#: how the program is run: up to three run(until) bounds, then an
#: optional run(max_events) and the run to the end
control = st.tuples(
    st.lists(st.sampled_from((0.1, 0.3, 1.6, 3.0, 4.1, 4.3, 7.0)),
             max_size=3).map(sorted),
    st.one_of(st.none(), st.integers(1, 40)))


def _run(program, durable, deadline, runs, scheduler):
    cluster = make_cluster(n_nodes=2, scheduler=scheduler,
                           reliable_delivery=durable,
                           durable_delivery=durable,
                           handler_deadline=deadline)
    for event in EVENTS:
        cluster.register_event(event)
    log, futures, threads = [], [], []
    caps = [cluster.create_object(Sink, index, cluster, log, node=home)
            for index, home in enumerate(HOMES)]
    for cap in caps:
        cluster.get_object(cap)._caps = caps
    spinners = [cluster.create_object(Spinner, log, node=node)
                for node in (0, 1)]
    sim = cluster.sim

    def play(steps):
        for pos, (kind, *args) in enumerate(steps):
            if kind == "timer":
                delay, cancel = args
                handle = sim.call_after(delay, log.append,
                                        (sim.now + delay, "timer", pos))
                if cancel:
                    sim.cancel(handle)
            elif kind == "thread":
                node, seconds = args
                threads.append(cluster.spawn(spinners[node], "spin", pos,
                                             seconds, at=node))
            elif kind == "later":
                # the rest of the program at a later instant, so a post
                # can land on a master that is mid-compute
                sim.call_after(args[0], play, steps[pos + 1:])
                return
            else:
                event, target, node, sync, seconds = args
                post = cluster.raise_and_wait if sync else cluster.raise_event
                futures.append(post(event, caps[target], from_node=node,
                                    user_data=(pos, seconds)))

    sim.call_soon(play, program)
    bounds, max_events = runs
    seen = []
    for until in bounds:
        cluster.run(until=until)
        seen.append((cluster.now, len(log), cluster.message_stats()))
    stopped = None
    if max_events is not None:
        try:
            cluster.run(max_events=max_events)
        except SimulationError:
            stopped = (cluster.now, len(log))
    cluster.run(max_events=200_000)
    stats = cluster.scheduler_stats()
    return {
        "log": log,
        "seen": seen,
        "results": [_fate(future) for future in futures],
        "threads": [t.completion.result() for t in threads],
        "now": cluster.now,
        "messages": cluster.message_stats(),
        "journal": cluster.durability_stats(),
        "quiescent": cluster.quiescent(),
    }, stats, stopped


def _fate(future):
    if not future.done:
        return None
    try:
        return ("value", future.result())
    except Exception as exc:  # noqa: BLE001 - the raiser's outcome
        return ("error", type(exc).__name__)


def _hopped(program, durable, deadline, runs, scheduler):
    with mock.patch.object(Simulator, "advance_to",
                           lambda self, when: False), \
            mock.patch.object(WheelSimulator, "advance_to",
                              lambda self, when: False):
        return _run(program, durable, deadline, runs, scheduler)


def _other_counters(stats):
    return {key: value for key, value in stats.items()
            if key not in ("scheduled", "executed")}


@settings(deadline=None)
@given(program=st.lists(step, max_size=16), durable=st.booleans(),
       deadline=st.sampled_from((None, 0.2, 2.0)), runs=control)
def test_folding_a_compute_wake_up_reorders_nothing(program, durable,
                                                    deadline, runs):
    heap, heap_stats, heap_stop = _run(program, durable, deadline, runs,
                                       "heap")
    wheel, wheel_stats, wheel_stop = _run(program, durable, deadline, runs,
                                          "wheel")
    hopped, hopped_stats, _ = _hopped(program, durable, deadline, runs,
                                      "heap")
    hopped_wheel, hopped_wheel_stats, _ = _hopped(program, durable, deadline,
                                                  runs, "wheel")
    assert heap["quiescent"]
    assert heap == hopped
    assert heap == wheel
    assert wheel == hopped_wheel
    assert heap_stats["scheduled"] == wheel_stats["scheduled"]
    assert heap_stop == wheel_stop
    assert heap_stats["scheduled"] <= hopped_stats["scheduled"]
    assert _other_counters(heap_stats) == _other_counters(hopped_stats)
    assert _other_counters(wheel_stats) == _other_counters(hopped_wheel_stats)
