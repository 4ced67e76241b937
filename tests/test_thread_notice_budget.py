"""What a notice to a resident thread costs, counted exactly.

The thread-path sibling of ``test_object_post_budget.py``. A thread that
stays on its node handles every notice on the one surrogate parked with
it, so after a warm-up notice (which creates that surrogate) further
notices draw no tid, write no ``thread/create`` or ``thread/exit``
record and leave nothing for the cycle collector — while scheduler
events, messages and virtual time per notice are what they were when
every notice had a surrogate of its own (the literals below were read on
that tree). The surrogate does not travel: an owner that invokes to
another node leaves none behind and gets a new one where it arrives.
"""

import gc
from functools import partial

import pytest

from repro import Decision, entry
from repro.events.block import EventBlock
from repro.events.settle import Settler
from repro.sim import Channel
from repro.threads.context import Ctx
from repro.threads.thread import KIND_SURROGATE, Activation
from tests.conftest import location_state, make_cluster
from tests.test_surrogate_chain import CONTEXTS, Steps, _step

N = 16
DEPTH = 3
AWAY, BUDDY_NODE = 1, 2
#: ``Steps`` handlers h0..h2 log ``(pos, tid, real_tid, node)`` and
#: compute 1 ms each; the last one ends the chain
SCRIPT = {DEPTH - 1: Decision.RESUME}

#: per context, what N notices raised in one instant from node 1 move:
#: ``scheduler_stats()["scheduled"]``, ``now`` and ``message_stats()``.
#: Per notice: the path locator's message and arrival, DEPTH
#: ``surrogate_cost`` timers and DEPTH computes; one context switch for
#: the queue. An unscheduled invocation adds a step per handler, whose
#: compute then runs inline in that step (209 and 305 while each compute
#: was a wake-up of its own), a buddy on another node a request and a
#: reply on top. The N locate messages sent in one instant share one
#: scheduler entry (113, 161 and 257 while each had its own).
BUDGET = {
    "current": (98, 0.05141, {
        "sent": 16, "delivered": 16, "bytes_sent": 2048,
        "type:locate.path": 16}),
    "attaching": (146, 0.05141, {
        "sent": 16, "delivered": 16, "bytes_sent": 2048,
        "type:locate.path": 16}),
    "buddy": (242, 0.14741, {
        "sent": 112, "delivered": 112, "bytes_sent": 36608,
        "type:locate.path": 16, "type:invoke.request": 48,
        "type:invoke.reply": 48}),
}


class Worker(Steps):
    """A thread that waits on its inbox: any item but ``"finish"`` sends
    it to ``away`` until the next item."""

    @entry
    def work(self, ctx, context, buddy, inbox, away):
        for pos in reversed(range(DEPTH)):  # LIFO: attached last runs first
            if context == "current":
                yield ctx.attach_handler(
                    "EVT", partial(_step, self.log, self.script, pos))
            else:
                yield ctx.attach_handler(
                    "EVT", f"h{pos}",
                    buddy=buddy if context == "buddy" else None)
        while (yield ctx.recv(inbox)) != "finish":
            yield ctx.invoke(away, "stay", inbox)

    @entry
    def stay(self, ctx, inbox):
        yield ctx.recv(inbox)


class Rig:
    """One thread on node 0, blocked on its inbox, its surrogate already
    created by a warm-up notice. ``cluster.run()`` returns when nothing
    is scheduled, so ``now`` is the instant of the last event."""

    def __init__(self, context, **cfg):
        self.cluster = cluster = make_cluster(n_nodes=3, **cfg)
        cluster.register_event("EVT")
        self.seen = []
        self.inbox = Channel(cluster.sim)
        buddy = cluster.create_object(Steps, self.seen, SCRIPT,
                                      node=BUDDY_NODE)
        away = cluster.create_object(Worker, self.seen, SCRIPT, node=AWAY)
        worker = cluster.create_object(Worker, self.seen, SCRIPT, node=0)
        self.thread = cluster.spawn(worker, "work", context, buddy,
                                    self.inbox, away, at=0)
        cluster.run()
        self.notices(1)

    def notices(self, count):
        for _ in range(count):
            self.cluster.raise_event("EVT", self.thread.tid, from_node=1)
        self.cluster.run()

    def surrogates(self):
        return [t for t in self.cluster.live_threads.values()
                if t.kind == KIND_SURROGATE]

    def next_seq(self, node=0):
        return self.cluster.kernels[node].id_allocator.new_tid().seq

    def lifecycle_records(self):
        select = self.cluster.tracer.select
        return len(select("thread", "create")), len(select("thread", "exit"))


@pytest.mark.parametrize("context", CONTEXTS)
def test_sixteen_notices_to_a_resident_thread(context):
    _sixteen_notices(context)


@pytest.mark.parametrize("context", CONTEXTS)
def test_sixteen_notices_cost_the_same_on_wire_copies(context,
                                                      serializing_wire):
    """Every message a decoded copy of its encoding: the same literals."""
    _sixteen_notices(context)


def _sixteen_notices(context):
    rig = Rig(context)
    cluster = rig.cluster
    [surrogate] = rig.surrogates()
    records = rig.lifecycle_records()
    assert records == (2, 0)  # the thread and its surrogate; no exit yet
    scheduled = cluster.scheduler_stats()["scheduled"]
    messages, start = cluster.message_stats(), cluster.now
    rig.notices(N)
    assert rig.seen == [(pos, rig.thread.tid, surrogate.tid, rig.seen[0][3])
                        for pos in range(DEPTH)] * (N + 1)
    assert rig.lifecycle_records() == records
    assert rig.surrogates() == [surrogate]
    moved = cluster.message_stats()
    want_scheduled, want_elapsed, want_messages = BUDGET[context]
    assert cluster.scheduler_stats()["scheduled"] - scheduled \
        == want_scheduled
    assert round(cluster.now - start, 9) == want_elapsed
    assert {key: moved[key] - messages.get(key, 0) for key in moved
            if moved[key] != messages.get(key, 0)} == want_messages
    # T0.1 the thread, T0.2 its surrogate, and T0.3 is this probe
    assert rig.next_seq() == 3


@pytest.mark.parametrize("context", CONTEXTS)
def test_two_hundred_notices_leave_no_garbage(context):
    """Every frame, ``Ctx`` and generator of a handler run is freed by
    reference count in the step that ends it (``DThread.pop_frame``)."""
    rig = Rig(context)
    gc.collect()
    gc.disable()
    try:
        rig.notices(200)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(rig.seen) == DEPTH * 201


def _names(cluster, tid):
    """Every place that can still name a thread."""
    return {
        "live_threads": tid in cluster.live_threads,
        "tcb": [k.node_id for k in cluster.kernels.values()
                if tid in k.thread_table],
        **location_state(cluster, tid),
    }


_NOWHERE = {"live_threads": False, "tcb": [], "multicast": [], "hints": []}


@pytest.mark.parametrize("context", CONTEXTS)
def test_a_surrogate_does_not_travel(context):
    # the one locator that keeps both hints and groups
    rig = Rig(context, locator="cached", cache_fallback="multicast")
    cluster, thread = rig.cluster, rig.thread
    [home] = rig.surrogates()
    assert _names(cluster, home.tid) == {
        "live_threads": True, "tcb": [0], "multicast": [0],
        # a buddy handler took it to the buddy's node and back
        "hints": [0, BUDDY_NODE] if context == "buddy" else [0]}
    # Stop in the callback that takes the owner off node 0: the
    # surrogate must be gone by the time the request is on the wire.
    rig.inbox.put("visit")
    while thread.current_node == 0 and not thread.carried:
        cluster.sim.step()
    assert not home.alive and thread.chain_surrogate is None
    assert _names(cluster, home.tid) == _NOWHERE
    cluster.run()
    assert thread.current_node == AWAY and rig.surrogates() == []
    # on the other node: a new one, created by the first notice there
    rig.notices(2)
    [away] = rig.surrogates()
    assert away is thread.chain_surrogate and away.tid.root == AWAY
    assert _names(cluster, away.tid)["tcb"] == [AWAY]
    assert {real for _, _, real, _ in rig.seen[-2 * DEPTH:]} == {away.tid}
    # ... which stays behind in its turn when the owner comes back
    rig.inbox.put("return")
    cluster.run()
    assert thread.current_node == 0 and rig.surrogates() == []
    assert _names(cluster, away.tid) == _NOWHERE
    rig.notices(1)
    [back] = rig.surrogates()
    assert back.tid not in (home.tid, away.tid) and back.tid.root == 0
    # and the last one ends with its owner
    rig.inbox.put("finish")
    cluster.run()
    assert thread.completion.done and cluster.live_threads == {}
    assert _names(cluster, back.tid) == _NOWHERE
    assert rig.lifecycle_records() == (4, 4)


class Allocations:
    """``Activation`` and ``Ctx`` constructions, counted from outside."""

    def __init__(self, monkeypatch):
        self.counts = {Activation: 0, Ctx: 0}
        for cls in self.counts:
            monkeypatch.setattr(cls, "__init__", self._counting(cls))

    def _counting(self, cls):
        init = cls.__init__

        def counting(instance, *args, **kwargs):
            self.counts[cls] += 1
            init(instance, *args, **kwargs)
        return counting

    def taken(self):
        counts = dict(self.counts)
        self.counts.update(dict.fromkeys(counts, 0))
        return counts[Activation], counts[Ctx]


@pytest.mark.parametrize("wire", ["shared", "wire"])
def test_current_handler_runs_allocate_no_frame(wire, request, monkeypatch):
    """After the warm-up notice, N notices x DEPTH per-thread-memory
    handler runs build no ``Activation`` and no ``Ctx``: each run is a
    generator on the surrogate's kept activation. No cycle is left for
    the collector, on the node or after the owner leaves and ends, and
    the kept activation pins no notice's block once its chain is over."""
    if wire == "wire":
        request.getfixturevalue("serializing_wire")
    rig = Rig("current")
    allocations = Allocations(monkeypatch)
    # EventBlock has no __weakref__ slot: a finalizer marks its death
    concluded, live = [], set()
    conclude = Settler.conclude

    def concluding(self, block, *args, **kwargs):
        concluded.append(block.block_id)
        live.add(id(block))
        return conclude(self, block, *args, **kwargs)

    monkeypatch.setattr(Settler, "conclude", concluding)
    monkeypatch.setattr(EventBlock, "__del__",
                        lambda block: live.discard(id(block)), raising=False)
    gc.collect()
    gc.disable()
    try:
        for _ in range(N):
            rig.notices(1)
            assert live == set()
        assert allocations.taken() == (0, 0)
        assert len(concluded) == N and len(rig.seen) == DEPTH * (N + 1)
        [surrogate] = rig.surrogates()
        kept = surrogate.kept
        assert (kept.gen, kept.obj, kept.event_block) == (None, None, None)
        assert gc.collect() == 0
        rig.inbox.put("visit")  # the owner leaves node 0 ...
        rig.cluster.run()
        assert kept.ctx is None and rig.surrogates() == []
        assert gc.collect() == 0
        rig.notices(2)  # ... is noticed on node 1, comes back and ends
        rig.inbox.put("return")
        rig.inbox.put("finish")
        rig.cluster.run()
        assert rig.thread.completion.done and rig.cluster.live_threads == {}
        assert gc.collect() == 0
        assert len(concluded) == N + 2 and live == set()
    finally:
        gc.enable()
