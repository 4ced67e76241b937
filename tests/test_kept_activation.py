"""Handler runs on a surrogate's kept activation: the edge cases, frozen.

Every handler a surrogate runs is a new generator on the one activation
the surrogate keeps, not a new frame. Each scenario below drives one
chain that mixes the three handler contexts on one surrogate and records
what every handler saw: its ``ctx`` (tid, executing tid, node, current
object, event block), the virtual time and the surrogate's stack as
``Cluster.ps`` prints it, plus the notice's thread snapshot and how the
run ended. The literals were read on the tree that built a new
activation, ``Ctx`` and wrapper generator per handler run. Each scenario
runs on shared objects and on decoded wire copies
(``tests/conftest.py::serializing_wire``) and must read the same.
"""

from functools import partial

import pytest

from repro import Decision, DistObject, entry, handler_entry, on_event
from repro.threads.thread import KIND_SURROGATE
from tests.conftest import make_cluster

BUDDY_NODE = 2
#: the chain, in the order it runs (LIFO: attached last runs first)
CHAIN = ("current", "attaching", "buddy", "current")
#: registrations with a 50 ms watchdog
DEADLINES = {0: 0.05, 1: 0.05}


class Rig:
    """The cluster and the log the handlers write into."""

    def __init__(self, script):
        self.cluster = cluster = make_cluster(n_nodes=3)
        cluster.register_event("EVT")
        self.script, self.log, self.snapshots = script, [], []


def _name(cluster, oid):
    obj = cluster.find_object(oid)
    return type(obj).__name__ if obj is not None else oid


def _probe(rig, pos, hctx, block):
    """Handler at chain position ``pos``: log, compute 1 ms, then do what
    the scenario's script says (PROPAGATE when it says nothing)."""
    cluster = rig.cluster
    obj = hctx.current_object
    [row] = [r for r in cluster.ps(kinds=(KIND_SURROGATE,))
             if r["tid"] == str(hctx.real_tid)]
    event_block = hctx.event_block
    rig.log.append((pos, str(hctx.tid), str(hctx.real_tid), hctx.node,
                    type(obj).__name__ if obj is not None else None,
                    event_block.event if event_block is not None else None,
                    round(hctx.now, 9), row["stack"]))
    if pos == 0:
        tid, state, node, frames = block.snapshot
        rig.snapshots.append((str(tid), state, node, [
            (_name(cluster, oid), entry_, node_, steps)
            for oid, entry_, node_, steps in frames]))
    yield hctx.compute(1e-3)
    act = rig.script.get(pos, Decision.PROPAGATE)
    if act == "raise":
        raise RuntimeError(f"handler {pos} crashed")
    if act == "hang":
        yield hctx.sleep(1e9)
    if act == "repair":
        return Decision.RESUME, f"repaired by {pos}"
    return act


class Handlers(DistObject):
    """The attaching-object and buddy handler bodies."""

    def __init__(self, rig):
        super().__init__()
        self.rig = rig

    @handler_entry
    def h1(self, ctx, block):
        return (yield from _probe(self.rig, 1, ctx, block))

    @handler_entry
    def h2(self, ctx, block):
        return (yield from _probe(self.rig, 2, ctx, block))


class Worker(Handlers):
    @entry
    def work(self, ctx, event, buddy):
        for pos in reversed(range(len(CHAIN))):
            deadline = DEADLINES.get(pos)
            if CHAIN[pos] == "current":
                yield ctx.attach_handler(
                    event, partial(_probe, self.rig, pos), deadline=deadline)
            else:
                yield ctx.attach_handler(
                    event, f"h{pos}", deadline=deadline,
                    buddy=buddy if CHAIN[pos] == "buddy" else None)
        if event == "EVT":
            yield ctx.sleep(10.0)
            return "slept"
        value = yield ctx.invoke(ctx.self_cap, "fault")
        return f"fault returned {value!r}"

    @entry
    def fault(self, ctx):
        yield ctx.compute(1e-4)
        return 1 / 0

    @on_event("DIV_ZERO")
    def object_first(self, ctx, block):
        """§6.1: the faulting object's own handler is offered the
        exception before the thread's chain."""
        self.rig.log.append(("object", round(ctx.now, 9)))
        yield ctx.compute(1e-3)
        return Decision.PROPAGATE


def _fate(future):
    try:
        return future.result()
    except Exception as exc:  # noqa: BLE001 - the failure is the outcome
        return repr(exc)


def _surrogates(cluster):
    return [t for t in cluster.live_threads.values()
            if t.kind == KIND_SURROGATE]


def _start(scenario, until=None):
    """The scenario's cluster, run to ``until`` (or to the owner's cut)."""
    script, event, cut = SCENARIOS[scenario]
    rig = Rig(script)
    cluster = rig.cluster
    buddy = cluster.create_object(Handlers, rig, node=BUDDY_NODE)
    worker = cluster.create_object(Worker, rig, node=0)
    rig.thread = cluster.spawn(worker, "work", event, buddy, at=0)
    rig.future = None
    if event == "EVT":
        cluster.run(until=0.1)
        rig.future = cluster.raise_and_wait("EVT", rig.thread.tid,
                                            from_node=1)
    if cut is not None:
        while all(e[0] != cut for e in rig.log):
            cluster.run(until=cluster.now + 2e-4)
        cluster.invoker.terminate_thread(rig.thread, reason="test")
    if until is not None:
        cluster.run(until=until)
    return rig


def _run(scenario):
    rig = _start(scenario, until=5.0)  # the chain is over, the owner not
    cluster, thread, future = rig.cluster, rig.thread, rig.future
    parked = _surrogates(cluster)
    for surrogate in parked:
        kept = surrogate.kept
        assert surrogate.frames == [] and kept.ctx is not None
        assert (kept.gen, kept.obj, kept.event_block) == (None, None, None)
    cluster.run(until=20.0)
    assert _surrogates(cluster) == []
    return {
        "log": rig.log, "snapshots": rig.snapshots,
        "thread": (thread.state, _fate(thread.completion)),
        "raiser": future and _fate(future), "surrogates": len(parked),
        "now": round(cluster.now, 9), "messages": cluster.message_stats(),
        "failures": cluster.metrics()["events.execute.handler_failures"],
        "scheduled": cluster.scheduler_stats()["scheduled"],
    }


#: scenario -> (what each chain position does, the event, the position
#: inside whose run the owner is terminated)
SCENARIOS = {
    "mixed": ({3: Decision.RESUME}, "EVT", None),
    "raises": ({0: "raise", 2: "raise", 3: Decision.RESUME}, "EVT", None),
    "watchdog": ({1: "hang", 3: Decision.RESUME}, "EVT", None),
    "owner-terminated": ({3: "repair"}, "DIV_ZERO", 1),
    "frame-exception": ({3: "repair"}, "DIV_ZERO", None),
}

FROZEN = (
    {'frame-exception': {'failures': 0,
                         'log': [('object', 0.000304),
                                 (0, 'T0.1', 'T0.3', 0, 'Worker', 'DIV_ZERO',
                                  0.001354, ['Worker.handler:DIV_ZERO@0']),
                                 (1, 'T0.1', 'T0.3', 0, 'Worker', 'DIV_ZERO',
                                  0.002404,
                                  ['-.handler:DIV_ZERO@0', 'Worker.h1@0']),
                                 (2, 'T0.1', 'T0.3', 2, 'Handlers',
                                  'DIV_ZERO', 0.004454,
                                  ['-.handler:DIV_ZERO@0', 'Handlers.h2@2']),
                                 (3, 'T0.1', 'T0.3', 0, 'Worker', 'DIV_ZERO',
                                  0.006504, ['Worker.handler:DIV_ZERO@0'])],
                         'messages': {'bytes_sent': 832,
                                      'delivered': 2,
                                      'dropped': 0,
                                      'sent': 2,
                                      'type:invoke.reply': 1,
                                      'type:invoke.request': 1},
                         'now': 20.0,
                         'raiser': None,
                         'scheduled': 27,
                         'snapshots': [('T0.1', 'running', 0,
                                        [('Worker', 'work', 0, 5),
                                         ('Worker', 'fault', 0, 1)])],
                         'surrogates': 0,
                         'thread': ('done',
                                    "fault returned 'repaired by 3'")},
     'mixed': {'failures': 0,
               'log': [(0, 'T0.1', 'T0.2', 0, 'Worker', 'EVT', 0.10106,
                        ['Worker.handler:EVT@0']),
                       (1, 'T0.1', 'T0.2', 0, 'Worker', 'EVT', 0.10211,
                        ['-.handler:EVT@0', 'Worker.h1@0']),
                       (2, 'T0.1', 'T0.2', 2, 'Handlers', 'EVT', 0.10416,
                        ['-.handler:EVT@0', 'Handlers.h2@2']),
                       (3, 'T0.1', 'T0.2', 0, 'Worker', 'EVT', 0.10621,
                        ['Worker.handler:EVT@0'])],
               'messages': {'bytes_sent': 1056,
                            'delivered': 4,
                            'dropped': 0,
                            'sent': 4,
                            'type:event.resume': 1,
                            'type:invoke.reply': 1,
                            'type:invoke.request': 1,
                            'type:locate.path': 1},
               'now': 20.0,
               'raiser': None,
               'scheduled': 27,
               'snapshots': [('T0.1', 'blocked', 0,
                              [('Worker', 'work', 0, 5)])],
               'surrogates': 1,
               'thread': ('done', 'slept')},
     'owner-terminated': {'failures': 0,
                          'log': [('object', 0.000304),
                                  (0, 'T0.1', 'T0.3', 0, 'Worker', 'DIV_ZERO',
                                   0.001354, ['Worker.handler:DIV_ZERO@0']),
                                  (1, 'T0.1', 'T0.3', 0, 'Worker', 'DIV_ZERO',
                                   0.002404,
                                   ['-.handler:DIV_ZERO@0', 'Worker.h1@0']),
                                  (2, 'T0.1', 'T0.4', 2, 'Handlers',
                                   'DIV_ZERO', 0.004454,
                                   ['-.handler:DIV_ZERO@0', 'Handlers.h2@2']),
                                  (3, 'T0.1', 'T0.5', 0, None, 'DIV_ZERO',
                                   0.006504, ['-.handler:DIV_ZERO@0'])],
                          'messages': {'bytes_sent': 832,
                                       'delivered': 2,
                                       'dropped': 0,
                                       'sent': 2,
                                       'type:invoke.reply': 1,
                                       'type:invoke.request': 1},
                          'now': 20.0,
                          'raiser': None,
                          'scheduled': 29,
                          'snapshots': [('T0.1', 'running', 0,
                                         [('Worker', 'work', 0, 5),
                                          ('Worker', 'fault', 0, 1)])],
                          'surrogates': 0,
                          'thread': ('terminated',
                                     "ThreadTerminated('test')")},
     'raises': {'failures': 2,
                'log': [(0, 'T0.1', 'T0.2', 0, 'Worker', 'EVT', 0.10106,
                         ['Worker.handler:EVT@0']),
                        (1, 'T0.1', 'T0.2', 0, 'Worker', 'EVT', 0.10211,
                         ['-.handler:EVT@0', 'Worker.h1@0']),
                        (2, 'T0.1', 'T0.2', 2, 'Handlers', 'EVT', 0.10416,
                         ['-.handler:EVT@0', 'Handlers.h2@2']),
                        (3, 'T0.1', 'T0.2', 0, 'Worker', 'EVT', 0.10621,
                         ['Worker.handler:EVT@0'])],
                'messages': {'bytes_sent': 1056,
                             'delivered': 4,
                             'dropped': 0,
                             'sent': 4,
                             'type:event.resume': 1,
                             'type:invoke.reply': 1,
                             'type:invoke.request': 1,
                             'type:locate.path': 1},
                'now': 20.0,
                'raiser': None,
                'scheduled': 27,
                'snapshots': [('T0.1', 'blocked', 0,
                               [('Worker', 'work', 0, 5)])],
                'surrogates': 1,
                'thread': ('done', 'slept')},
     'watchdog': {'failures': 0,
                  'log': [(0, 'T0.1', 'T0.2', 0, 'Worker', 'EVT', 0.10106,
                           ['Worker.handler:EVT@0']),
                          (1, 'T0.1', 'T0.2', 0, 'Worker', 'EVT', 0.10211,
                           ['-.handler:EVT@0', 'Worker.h1@0']),
                          (2, 'T0.1', 'T0.3', 2, 'Handlers', 'EVT', 0.15316,
                           ['-.handler:EVT@0', 'Handlers.h2@2']),
                          (3, 'T0.1', 'T0.3', 0, 'Worker', 'EVT', 0.15521,
                           ['Worker.handler:EVT@0'])],
                  'messages': {'bytes_sent': 1056,
                               'delivered': 4,
                               'dropped': 0,
                               'sent': 4,
                               'type:event.resume': 1,
                               'type:invoke.reply': 1,
                               'type:invoke.request': 1,
                               'type:locate.path': 1},
                  'now': 20.0,
                  'raiser': None,
                  'scheduled': 27,
                  'snapshots': [('T0.1', 'blocked', 0,
                                 [('Worker', 'work', 0, 5)])],
                  'surrogates': 1,
                  'thread': ('done', 'slept')}}
)


@pytest.mark.parametrize("wire", ["shared", "wire"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_kept_activation_edge_cases(scenario, wire, request):
    if wire == "wire":
        request.getfixturevalue("serializing_wire")
    assert _run(scenario) == FROZEN[scenario]


def test_watchdog_replacement_gets_a_fresh_activation():
    rig = _start("watchdog")
    cluster = rig.cluster
    while all(e[0] != 1 for e in rig.log):  # inside the hung handler
        cluster.run(until=cluster.now + 2e-4)
    [first] = _surrogates(cluster)
    kept = first.kept
    assert first.frames[0] is kept and kept.ctx.real_tid == first.tid
    cluster.run(until=5.0)
    # destroyed by the watchdog: the activation went, and its Ctx cycle
    assert not first.alive and first.kept is None and kept.ctx is None
    assert first.frame_exit is None
    [second] = _surrogates(cluster)
    assert second is rig.thread.chain_surrogate
    assert second.kept is not kept and second.kept.ctx.real_tid == second.tid
