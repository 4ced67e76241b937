"""Messages due at one instant share one scheduler entry.

``SimTransport.post`` lets a message *ride* on the entry it scheduled
last when that entry is still pending, is due at the same instant and
nothing else has been scheduled since (``Simulator.ride``); the entry
then hands its messages to ``Fabric._deliver`` in order, as one
callback. The messages of one entry have consecutive sequence numbers,
so they run where separate entries would have: every observable of a
run is what one ``call_at`` per message gives, and only the scheduler's
``scheduled`` and ``executed`` counts fall.

The oracle below is that one-``call_at`` wire, kept as a test-only
transport, run against the real one on the chaos, durability and
overload reference scenarios on both scheduler backends. The edge cases
follow: a duplicated copy, a receiver crashing inside a shared entry, a
timer between two sends, a call that raises, the fold queries while
calls remain, ``run(max_events=...)``, and what E17's tracer, which
wraps ``call_at``, needs from the transport.
"""

from __future__ import annotations

import pytest

from repro.bench import chaos, overload
from repro.bench.scenario import run_scenario
from repro.bench.workloads import WorkloadSpec
from repro.errors import SimulationError
from repro.net import Fabric, FaultPlan, Message
from repro.sim.scheduler import Simulator, WheelSimulator, make_simulator
from repro.transport import simlocal
from repro.transport.simlocal import SimTransport

BACKENDS = ("heap", "wheel")


class OneEntryPerMessage(SimTransport):
    """The sim wire before messages shared entries: one ``call_at`` per
    message, the delivery hook its callback."""

    def post(self, message, dst, delay):
        self._posted += 1
        scheduler = self.scheduler
        scheduler.call_at(scheduler.now + delay, self._hook, message, dst)


# ----------------------------------------------------------------------
# the oracle: the reference scenarios on both wires
# ----------------------------------------------------------------------

#: the scheduler's own counts, the only ones sharing may move
MOVED = ("scheduled", "executed")
#: the reference scenarios with durable delivery
DURABLE = ("durability", "overload-defer")


def _reference(name: str, backend: str):
    config = {"scheduler": backend}
    if name == "chaos":
        return chaos.scenario(seed=23, locator="cached", posts=40,
                              drop_rate=0.1, config=config)
    if name == "durability":
        return chaos.scenario(seed=31, posts=40, drop_rate=0.1,
                              durable=True, crash_period=0.8, down_time=0.5,
                              config=config)
    workload = WorkloadSpec(seed=3, duration=0.5,
                            rate=2.0 * overload.CAPACITY, burst_cycle=0.25,
                            n_targets=overload.N_OBJECTS)
    if name == "overload-defer":
        return overload.scenario(workload, "defer", durable=True,
                                 config=config)
    return overload.scenario(workload, "degrade",
                             config={**config, "post_deadline": 30.0})


def observed(outcome) -> dict:
    """Everything a run shows but the two counts sharing may move."""
    cluster = outcome.cluster
    transport_layer = type(cluster.transport).__module__.removeprefix(
        "repro.") + "."
    metrics = {}
    for key, value in cluster.metrics().items():
        if key.startswith(transport_layer):
            key = "transport." + key.removeprefix(transport_layer)
        elif key.removeprefix("sim.scheduler.") in MOVED:
            continue
        metrics[key] = value
    return {
        "runs": outcome.runs,
        "notices": sorted(outcome.notices.items()),
        "quarantined": sorted(outcome.quarantined),
        "latencies": list(outcome.latencies),
        "last_done": outcome.last_done,
        "now": cluster.now,
        "crashes": outcome.crashes,
        "recoveries": outcome.recoveries,
        "messages": cluster.message_stats(),
        "reliability": cluster.reliability_stats(),
        "durability": cluster.durability_stats(),
        "journals": {node: [(r.lsn, r.rtype) for r in cluster.store.journal(
            node)] for node in cluster.kernels},
        "metrics": metrics,
        "scheduler": {key: value for key, value
                      in cluster.scheduler_stats().items()
                      if key not in MOVED},
        "audit": list(map(str, outcome.audit)),
        "hung": outcome.hung,
        "violations": outcome.violations,
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["chaos", "durability", "overload-defer",
                                  "overload-degrade"])
def test_sharing_entries_changes_nothing_but_the_scheduler_counts(
        name, backend, monkeypatch):
    shared = run_scenario(_reference(name, backend))
    with monkeypatch.context() as patch:
        patch.setattr(simlocal, "SimTransport", OneEntryPerMessage)
        alone = run_scenario(_reference(name, backend))
    assert type(alone.cluster.transport) is OneEntryPerMessage
    assert type(shared.cluster.transport) is SimTransport
    assert observed(shared) == observed(alone)
    ours, theirs = (outcome.cluster.scheduler_stats()
                    for outcome in (shared, alone))
    # every message that shared an entry is one callback fewer; only
    # the durable runs send messages due at one instant back to back
    saved = theirs["scheduled"] - ours["scheduled"]
    assert saved == theirs["executed"] - ours["executed"]
    assert saved > 0 if name in DURABLE else saved >= 0


# ----------------------------------------------------------------------
# edge cases on a bare two-node fabric
# ----------------------------------------------------------------------

def _wire(backend: str, transport=SimTransport):
    """``(sim, fabric, inbox)``: nodes 0 and 1 append what they get."""
    sim = make_simulator(backend)
    fabric = Fabric(transport(sim))
    inbox = []
    for node in (0, 1):
        fabric.attach(node, inbox.append)
    return sim, fabric, inbox


def _send(fabric, *mtypes, dst=1):
    for mtype in mtypes:
        fabric.send(Message(0, dst, mtype))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_duplicated_copy_rides_on_its_originals_entry(backend):
    sim, fabric, inbox = _wire(backend)
    fabric.faults = FaultPlan(duplicate_rate=1.0)
    _send(fabric, "t.dup")
    assert sim.stats()["scheduled"] == 1
    sim.run()
    assert [m.mtype for m in inbox] == ["t.dup", "t.dup"]
    assert inbox[0] is not inbox[1]
    assert sim.stats()["executed"] == 1 and sim.pending == 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("transport", [SimTransport, OneEntryPerMessage])
def test_a_receiver_crash_inside_a_shared_entry_drops_the_rest(
        backend, transport):
    """Node 1 detaches (crashes) on its first message: the messages
    behind it in the same entry meet ``Fabric._deliver``'s
    detached-endpoint branch, exactly as separate entries did."""
    sim, fabric, inbox = _wire(backend, transport)

    def crash_on_arrival(message):
        inbox.append(message)
        fabric.detach(1)

    fabric.detach(1)
    fabric.attach(1, crash_on_arrival)
    _send(fabric, "a", "b", "c")
    sim.call_at(sim.now + 1e-3, inbox.append, "after")  # due with them
    sim.run()
    assert [getattr(m, "mtype", m) for m in inbox] == ["a", "after"]
    assert fabric.stats.snapshot()["delivered"] == 1
    assert fabric.stats.snapshot()["dropped"] == 2
    assert sim.stats()["executed"] == (
        2 if transport is SimTransport else 4)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_timer_between_two_sends_breaks_the_run(backend):
    sim, fabric, inbox = _wire(backend)
    _send(fabric, "a", "b")
    sim.call_at(sim.now + 1e-3, inbox.append, "timer")
    _send(fabric, "c", "d")
    assert sim.stats()["scheduled"] == 3
    sim.run()
    assert [getattr(m, "mtype", m) for m in inbox] == [
        "a", "b", "timer", "c", "d"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_send_at_another_instant_takes_its_own_entry(backend):
    sim, fabric, inbox = _wire(backend)
    _send(fabric, "remote")
    _send(fabric, "local", dst=0)  # loopback latency: another instant
    _send(fabric, "remote-again")
    assert sim.stats()["scheduled"] == 3
    sim.run()
    assert [m.mtype for m in inbox] == ["local", "remote", "remote-again"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_shared_entry_is_one_callback_for_run_and_step(backend):
    sim, fabric, inbox = _wire(backend)
    _send(fabric, "a", "b", "c")
    with pytest.raises(SimulationError):
        sim.run(max_events=1)
    assert [m.mtype for m in inbox] == ["a", "b", "c"]
    assert sim.stats()["executed"] == 1 and sim.pending == 0
    _send(fabric, "d", "e")
    assert sim.step() and len(inbox) == 5 and not sim.step()


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_fold_queries_see_the_calls_still_to_make(backend):
    """While calls of the running entry remain, they are due now: no
    fold may run ahead of them. The last one sees what is really due."""
    sim, fabric, _ = _wire(backend)
    answers = []

    def endpoint(message):
        answers.append((message.mtype, sim.nothing_due_now(),
                        sim.advance_to(sim.now)))

    fabric.detach(1)
    fabric.attach(1, endpoint)
    _send(fabric, "a", "b", "c")
    sim.run()
    assert answers == [("a", False, False), ("b", False, False),
                       ("c", True, True)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("jump", [0.0, 10.0])
def test_a_call_that_raises_leaves_the_rest_first_in_line(backend, jump):
    """Also after ``run(until)`` moved the clock past the wheel's
    horizon (4.096 s): the sends then spill, and the pop that reaches
    them re-bases the window before the rest is put back on it."""
    sim, fabric, inbox = _wire(backend)
    sim.run(until=jump)

    def endpoint(message):
        inbox.append(message.mtype)
        if message.mtype == "b":
            raise RuntimeError("handler bug")

    fabric.detach(1)
    fabric.attach(1, endpoint)
    _send(fabric, "a", "b", "c", "d")
    sim.call_at(sim.now + 1e-3, inbox.append, "timer")  # due with them
    with pytest.raises(RuntimeError):
        sim.run()
    assert inbox == ["a", "b"]
    sim.run()
    assert inbox == ["a", "b", "c", "d", "timer"]
    stats = sim.stats()
    # the rest became an entry of its own when the call raised
    assert (stats["scheduled"], stats["executed"], sim.pending) == (3, 3, 0)


def test_what_the_e17_tracer_needs_from_the_transport(monkeypatch):
    """E17's tracer wraps each backend's ``call_at`` (``vars(cls)``)
    and swaps the callback for a ``fire(fn, cause, post, *args)``
    trampoline, so an entry's arguments are not the transport's to read
    or rewrite. Under such a wrapper a durable run still shares entries,
    reports the same counts and reaches the same outcome."""
    spec = dict(seed=31, posts=40, drop_rate=0.1, durable=True,
                crash_period=0.8, down_time=0.5)
    plain = {backend: run_scenario(chaos.scenario(
        **spec, config={"scheduler": backend})) for backend in BACKENDS}
    fired = []

    def fire(fn, cause, post, *args):
        fired.append(cause)
        return fn(*args)

    def schedule_wrapper(original):
        def wrapper(scheduler, when, fn, *args):
            return original(scheduler, when, fire, fn, "cause", None, *args)
        return wrapper

    for cls in (Simulator, WheelSimulator):
        monkeypatch.setattr(cls, "call_at",
                            schedule_wrapper(vars(cls)["call_at"]))
    rides = []
    ride = Simulator.ride
    monkeypatch.setattr(Simulator, "ride", lambda sim, entry, fn, *args: (
        rides.append(fn), ride(sim, entry, fn, *args)))
    for backend in BACKENDS:
        fired.clear()
        rides.clear()
        traced = run_scenario(chaos.scenario(
            **spec, config={"scheduler": backend}))
        stats = traced.cluster.scheduler_stats()
        assert stats == plain[backend].cluster.scheduler_stats()
        assert traced.digest == plain[backend].digest
        assert observed(traced) == observed(plain[backend])
        # entries were shared, and every entry's first call was traced
        assert len(rides) > 0
        assert len(fired) == stats["executed"]
