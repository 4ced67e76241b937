"""Folding a recv hop changes the count of scheduler events and nothing
else, as a property.

The master handler thread starts its next queued post inline (its
``frame_exit``, ``ObjectManager._advance``, as ``DThread._step`` takes a
queued channel item for ``ctx.recv``) only when
``Simulator.nothing_due_now()`` says the hop it saves would be the next
callback anyway. Patching that query to always answer no restores the
hop path (a test device, not a knob). A drawn program of same-instant
raises — local and remote, async and ``raise_and_wait``, to handlers
that compute, return at once, queue a ``call_soon`` or raise again from
inside the handler — plus ``call_soon`` callbacks between them runs
three ways: folded on the heap, folded on the wheel, hopped on the heap.
All three give one handler log (with virtual times), one
``(now, message_stats)``, one journal ledger and one set of raiser
results; the two folded runs also schedule the same number of callbacks.

The example budget is the hypothesis profile's (``tests/conftest.py``):
CI runs this file again under ``--hypothesis-profile=ci``.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import DistObject, on_event
from repro.sim import Simulator
from tests.conftest import make_cluster

EVENTS = ("WORK", "NOP", "SOON", "RELAY")
#: (home node) of the three sinks; node 1 is remote to raises from 0
HOMES = (0, 0, 1)


class Sink(DistObject):
    """Logs each handler's start and end; ``RELAY`` re-raises ``WORK``
    at the next sink from inside the handler."""

    def __init__(self, index, cluster, log):
        super().__init__()
        self._index = index
        self._cluster = cluster
        self._log = log
        self._caps = []

    @on_event(*EVENTS)
    def on_any(self, ctx, block):
        log, index = self._log, self._index
        log.append((ctx.now, "start", index, block.event, block.user_data))
        if block.event == "WORK":
            yield ctx.compute(1e-4)
        elif block.event == "SOON":
            self._cluster.sim.call_soon(
                log.append, (ctx.now, "soon", index, block.user_data))
        elif block.event == "RELAY":
            self._cluster.raise_event(
                "WORK", self._caps[(index + 1) % len(self._caps)],
                from_node=ctx.node, user_data=("relayed", block.user_data))
        log.append((ctx.now, "end", index, block.event, block.user_data))
        return block.user_data


step = st.one_of(
    st.tuples(st.just("raise"), st.sampled_from(EVENTS),
              st.integers(0, len(HOMES) - 1), st.integers(0, 1),
              st.booleans()),
    st.tuples(st.just("soon")),
    st.tuples(st.just("later"), st.integers(1, 3)))


def _run(program, durable, scheduler):
    cluster = make_cluster(n_nodes=2, scheduler=scheduler,
                           reliable_delivery=durable,
                           durable_delivery=durable)
    for event in EVENTS:
        cluster.register_event(event)
    log, futures = [], []
    caps = [cluster.create_object(Sink, index, cluster, log, node=home)
            for index, home in enumerate(HOMES)]
    for cap in caps:
        cluster.get_object(cap)._caps = caps
    sim = cluster.sim

    def play(steps):
        for pos, (kind, *args) in enumerate(steps):
            if kind == "soon":
                sim.call_soon(log.append, (sim.now, "soon-step", pos))
            elif kind == "later":
                # the rest of the program at a later instant, so a post
                # can land on a master that is mid-handler
                sim.call_after(args[0] * 5e-5, play, steps[pos + 1:])
                return
            else:
                event, target, node, sync = args
                post = cluster.raise_and_wait if sync else cluster.raise_event
                futures.append(post(event, caps[target], from_node=node,
                                    user_data=pos))

    sim.call_soon(play, program)
    cluster.run(max_events=200_000)
    return {
        "log": log,
        "results": [(f.done, f.failed, f.result() if f.done and not f.failed
                     else None) for f in futures],
        "now": cluster.now,
        "messages": cluster.message_stats(),
        "journal": cluster.durability_stats(),
        "quiescent": cluster.quiescent(),
    }, cluster.scheduler_stats()["scheduled"]


@settings(deadline=None)
@given(program=st.lists(step, max_size=24), durable=st.booleans())
def test_folding_a_hop_reorders_nothing(program, durable):
    heap, heap_scheduled = _run(program, durable, "heap")
    wheel, wheel_scheduled = _run(program, durable, "wheel")
    with mock.patch.object(Simulator, "nothing_due_now",
                           lambda self: False):
        hopped, hopped_scheduled = _run(program, durable, "heap")
    assert heap["quiescent"]
    assert heap == hopped
    assert heap == wheel
    assert heap_scheduled == wheel_scheduled
    assert heap_scheduled <= hopped_scheduled
