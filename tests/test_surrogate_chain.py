"""One resident surrogate per thread per node residency (§6.1 + §7's
thread-creation argument): every handler a thread runs while it stays on
one node is a successive frame on the same surrogate thread, which is
parked between notices, retired when its owner leaves the node or ends,
and replaced only when it dies."""

import pickle
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro import Decision, DistObject, entry, handler_entry, on_event
from repro.errors import DeadThreadError
from repro.events.locate import LocationHintTable
from repro.net.message import Message
from repro.threads.ids import GroupId, ThreadId
from repro.threads.thread import KIND_KERNEL, KIND_SURROGATE
from repro.transport.codec import decode_message, encode_message
from tests.conftest import make_cluster

CONTEXTS = ("current", "attaching", "buddy")
#: where each context's handler body executes (worker on node 0, buddy
#: on node 2)
HANDLER_NODE = {"current": 0, "attaching": 0, "buddy": 2}


def _step(log, script, pos, hctx, block):
    """Handler at chain position ``pos`` (0 runs first); ``script`` maps a
    position to what it does, PROPAGATE when absent."""
    log.append((pos, hctx.tid, hctx.real_tid, hctx.node))
    yield hctx.compute(1e-3)
    act = script.get(pos, Decision.PROPAGATE)
    if act == "raise":
        raise RuntimeError(f"handler {pos} crashed")
    if act == "hang":
        yield hctx.sleep(1e9)
    if act == "resume_raiser":
        yield hctx.resume_raiser(block, "answer")
        return Decision.RESUME
    return act


class Steps(DistObject):
    """Handler methods for the attaching-object and buddy contexts."""

    def __init__(self, log, script):
        super().__init__()
        self.log = log
        self.script = script

    @handler_entry
    def h0(self, ctx, block):
        return (yield from _step(self.log, self.script, 0, ctx, block))

    @handler_entry
    def h1(self, ctx, block):
        return (yield from _step(self.log, self.script, 1, ctx, block))

    @handler_entry
    def h2(self, ctx, block):
        return (yield from _step(self.log, self.script, 2, ctx, block))


class Worker(Steps):
    @entry
    def work(self, ctx, context, buddy, depth):
        for pos in reversed(range(depth)):  # LIFO: attached last runs first
            if context == "current":
                yield ctx.attach_handler(
                    "EVT", partial(_step, self.log, self.script, pos))
            elif context == "attaching":
                yield ctx.attach_handler("EVT", f"h{pos}")
            else:
                yield ctx.attach_handler("EVT", f"h{pos}", buddy=buddy)
        yield ctx.sleep(100.0)
        return "survived"


def _rig(context, script=None, depth=3, **cfg):
    cluster = make_cluster(n_nodes=3, **cfg)
    cluster.register_event("EVT")
    log, script = [], dict(script or {})
    buddy = cluster.create_object(Steps, log, script, node=2)
    worker = cluster.create_object(Worker, log, script, node=0)
    thread = cluster.spawn(worker, "work", context, buddy, depth, at=0)
    cluster.run(until=0.1)
    return cluster, thread, log


def _surrogate_lifecycle(cluster):
    """(thread/create records of surrogates, tids of their thread/exit)."""
    created = cluster.tracer.select("thread", "create", kind=KIND_SURROGATE)
    tids = {r.get("tid") for r in created}
    exits = [r.get("tid") for r in cluster.tracer.select("thread", "exit")
             if r.get("tid") in tids]
    return created, exits


def _live_surrogates(cluster):
    return [t for t in cluster.live_threads.values()
            if t.kind == KIND_SURROGATE]


def _parked_with(cluster, thread):
    """The one live surrogate, which must be ``thread``'s, parked."""
    [surrogate] = _live_surrogates(cluster)
    assert surrogate is thread.chain_surrogate
    assert surrogate.impersonates == thread.tid
    assert (surrogate.state, surrogate.wait_kind) == ("blocked", "parked")
    assert surrogate.frames == []
    assert surrogate.current_node == thread.current_node
    return surrogate


def _held_by_tables(locator):
    held = {}
    for node, table in locator.hints.items():
        for tid in table._hints:
            held.setdefault(tid, set()).add(node)
    return held


def _next_seq(cluster, node=0):
    return cluster.kernels[node].id_allocator.new_tid().seq


# ======================================================================
# one surrogate per chain
# ======================================================================

@pytest.mark.parametrize("context", CONTEXTS)
class TestOneSurrogatePerChain:
    def test_depth3_chain_shares_one_surrogate(self, context):
        cluster, thread, log = _rig(context)
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=1.0)
        assert [pos for pos, *_ in log] == [0, 1, 2]  # LIFO
        assert {tid for _, tid, _, _ in log} == {thread.tid}
        real = {real for _, _, real, _ in log}
        assert len(real) == 1 and thread.tid not in real
        assert {node for *_, node in log} == {HANDLER_NODE[context]}
        created, exits = _surrogate_lifecycle(cluster)
        assert [(r.get("tid"), r.get("entry")) for r in created] \
            == [(str(real.pop()), "handler:EVT")]
        # the chain is over and its surrogate stays, parked with its owner
        assert exits == []
        surrogate = _parked_with(cluster, thread)
        assert thread.state == "blocked"  # default decision: resumed
        # the next notice's chain runs on it too
        cluster.raise_event("EVT", thread.tid, from_node=2)
        cluster.run(until=2.0)
        assert [pos for pos, *_ in log] == [0, 1, 2] * 2
        assert {real for _, _, real, _ in log} == {surrogate.tid}
        assert _parked_with(cluster, thread) is surrogate
        # it ends with its owner, and not before
        cluster.invoker.terminate_thread(thread, reason="test")
        cluster.run(until=3.0)
        created, exits = _surrogate_lifecycle(cluster)
        assert len(created) == 1 and exits == [str(surrogate.tid)]
        assert _live_surrogates(cluster) == []
        # thread T0.1 + one surrogate T0.2: the residency consumed one tid
        assert _next_seq(cluster) == 3

    def test_resume_mid_chain_stops_it(self, context):
        cluster, thread, log = _rig(context, {1: Decision.RESUME})
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=1.0)
        assert [pos for pos, *_ in log] == [0, 1]
        assert thread.state == "blocked"
        _parked_with(cluster, thread)  # frameless: handler 2 never began

    def test_terminate_decision(self, context):
        cluster, thread, log = _rig(context, {2: Decision.TERMINATE})
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=1.0)
        assert [pos for pos, *_ in log] == [0, 1, 2]
        assert thread.state == "terminated"
        assert _live_surrogates(cluster) == []

    def test_raise_and_wait_explicit_resume(self, context):
        cluster, thread, log = _rig(context, {2: "resume_raiser"})
        future = cluster.raise_and_wait("EVT", thread.tid, from_node=1)
        cluster.run(until=1.0)
        assert future.result() == "answer"
        assert [pos for pos, *_ in log] == [0, 1, 2]
        assert len({real for _, _, real, _ in log}) == 1

    def test_raising_handler_falls_through_on_the_same_surrogate(
            self, context):
        cluster, thread, log = _rig(context, {1: "raise",
                                              2: Decision.RESUME})
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=1.0)
        assert [pos for pos, *_ in log] == [0, 1, 2]
        assert len({real for _, _, real, _ in log}) == 1
        assert cluster.events.handler_failures == 1
        assert len(_surrogate_lifecycle(cluster)[0]) == 1
        assert thread.state == "blocked"


def test_depth1_chains_allocate_one_tid_per_residency():
    """Three notices to a thread that stays put name one surrogate (one
    tid each on the per-notice-surrogate commit: T0.2, T0.3, T0.4)."""
    created = []
    for context in CONTEXTS:
        cluster, thread, log = _rig(context, {0: Decision.RESUME}, depth=1)
        for _ in range(3):
            cluster.raise_event("EVT", thread.tid, from_node=1)
            cluster.run(until=cluster.now + 0.1)
        created.append([(r.get("tid"), r.get("kind"), r.get("entry"))
                        for r in cluster.tracer.select("thread", "create")])
    golden = [("T0.1", "user", "work"),
              ("T0.2", "surrogate", "handler:EVT")]
    assert created == [golden, golden, golden]


def _chains(context):
    """A notice and a synchronous raise through chains that fall through,
    stop mid-chain, survive a raising handler and resume the raiser."""
    runs = []
    for script in ({}, {1: Decision.RESUME}, {1: "raise", 2: Decision.RESUME},
                   {2: "resume_raiser"}):
        cluster, thread, log = _rig(context, script)
        future = cluster.raise_and_wait("EVT", thread.tid, from_node=1)
        cluster.raise_event("EVT", thread.tid, from_node=2)
        cluster.run()
        runs.append((log, future.result(), thread.completion.result(),
                     cluster.now, cluster.message_stats()))
    return runs


@pytest.mark.parametrize("context", CONTEXTS)
def test_wire_copies_run_the_same_chains(context, request):
    """Every message a decoded copy of its encoding (the tcp / sharded
    boundary): the same handler logs, time and message counts."""
    shared = _chains(context)
    request.getfixturevalue("serializing_wire")
    assert _chains(context) == shared


# ======================================================================
# the owning thread dies mid-chain
# ======================================================================

class TestOwnerDiesMidChain:
    def _mid_chain(self, context, **cfg):
        cluster, thread, log = _rig(context, **cfg)
        future = cluster.raise_and_wait("EVT", thread.tid, from_node=1)
        while len(log) < 2:  # stop inside the second handler's 1 ms
            cluster.run(until=cluster.now + 2e-4)
        assert [pos for pos, *_ in log] == [0, 1]
        return cluster, thread, future

    @pytest.mark.parametrize("context", CONTEXTS)
    def test_owner_terminated(self, context):
        cluster, thread, future = self._mid_chain(context)
        [surrogate] = _live_surrogates(cluster)
        cluster.invoker.terminate_thread(thread, reason="test")
        cluster.run(until=cluster.now + 1e-4)
        # the owner is gone; the handler it left running is not cut short
        assert thread.state == "terminated"
        assert surrogate.alive and surrogate.frames
        cluster.run(until=cluster.now + 1.0)
        assert cluster.events.dead_targets == 1
        with pytest.raises(DeadThreadError):
            future.result()
        # ... and its surrogate retires when that frame exits, with no
        # owner left to park with; handler 2 never runs
        assert _live_surrogates(cluster) == [] and not surrogate.alive
        exits = [r.get("tid") for r in cluster.tracer.select("thread", "exit")]
        assert exits == [str(thread.tid), str(surrogate.tid)]
        assert cluster.tracer.select("thread", "exit")[1].time >= 0.1 + 2e-3

    @pytest.mark.parametrize("context", CONTEXTS)
    def test_owner_node_crashed(self, context):
        cluster, thread, future = self._mid_chain(context, locator="cached")
        locator = cluster.events.locator
        assert thread.tid in locator.hints[0]
        cluster.crash_node(0)
        cluster.run(until=cluster.now + 1.0)
        assert not thread.alive
        assert cluster.events.dead_targets == 1
        with pytest.raises(DeadThreadError):
            future.result()
        assert _live_surrogates(cluster) == []
        # the crash cleared node 0's table through the shared index
        assert len(locator.hints[0]) == 0
        assert locator.holders == _held_by_tables(locator)
        assert thread.tid not in locator.holders


def test_owner_terminated_inside_an_exception_chain():
    """§6.1: the faulted frame is unwound with the rest, so the repair
    its handler returns has nowhere to go (it popped an empty stack and
    raised out of ``run`` before) and the surrogate ends with the frame."""
    cluster = make_cluster(n_nodes=2)

    class Guarded(DistObject):
        @entry
        def work(self, ctx):
            def repairs(hctx, block):
                yield hctx.compute(1e-2)
                return (Decision.RESUME, "repaired")

            yield ctx.attach_handler("DIV_ZERO", repairs)
            return 1 / 0

    thread = cluster.spawn(cluster.create_object(Guarded, node=0), "work",
                           at=0)
    cluster.run(until=5e-3)  # inside the handler's 10 ms
    [surrogate] = _live_surrogates(cluster)
    cluster.invoker.terminate_thread(thread, reason="test")
    cluster.run(until=1.0)
    assert thread.state == "terminated" and not surrogate.alive
    assert cluster.live_threads == {}


def test_chain_retries_share_the_parked_surrogate():
    cluster, thread, log = _rig("current", {0: "raise"}, depth=1,
                                poison_threshold=3, handler_backoff=0.05)
    cluster.raise_event("EVT", thread.tid, from_node=1)
    cluster.run(until=cluster.now + 0.03)  # inside the first backoff
    assert cluster.supervision_stats()["chain_retries"] == 1
    assert thread.delivering_block is not None
    surrogate = _parked_with(cluster, thread)  # parked through the backoff
    cluster.run(until=cluster.now + 1.0)
    assert [pos for pos, *_ in log] == [0, 0, 0]
    # every attempt ran on it (each on its own surrogate before)
    assert {real for _, _, real, _ in log} == {surrogate.tid}
    assert cluster.supervision_stats()["quarantined"] == 1
    assert _parked_with(cluster, thread) is surrogate


def test_chain_retry_replaces_a_surrogate_that_died_in_the_backoff():
    cluster, thread, log = _rig("current", {0: "raise"}, depth=1,
                                poison_threshold=3, handler_backoff=0.05)
    cluster.raise_event("EVT", thread.tid, from_node=1)
    cluster.run(until=cluster.now + 0.03)
    first = _parked_with(cluster, thread)
    cluster.invoker.destroy_thread_abrupt(first, RuntimeError("lost"))
    cluster.run(until=cluster.now + 1.0)
    assert [pos for pos, *_ in log] == [0, 0, 0]
    second = _parked_with(cluster, thread)
    assert [real for _, _, real, _ in log] == [first.tid, second.tid,
                                               second.tid]


# ======================================================================
# what a parked surrogate looks like from outside
# ======================================================================

def test_ps_shows_it_parked_not_running():
    cluster, thread, log = _rig("current")
    cluster.raise_event("EVT", thread.tid, from_node=1)
    while len(log) < 2:  # inside the second handler
        cluster.run(until=cluster.now + 2e-4)
    [row] = cluster.ps(kinds=("surrogate",))
    assert (row["state"], row["wait"]) == ("running", None)
    assert row["stack"] == ["Worker.handler:EVT@0"]  # the current object
    cluster.run(until=1.0)
    assert cluster.ps(kinds=("surrogate",)) == [{
        "tid": str(log[0][2]), "kind": "surrogate", "state": "blocked",
        "wait": "parked", "node": 0, "group": None, "stack": [],
        "pending_events": 0}]
    assert [row["tid"] for row in cluster.ps()] == [str(thread.tid)]


@pytest.mark.parametrize("locator",
                         ["path", "broadcast", "multicast", "cached"])
@pytest.mark.parametrize("parked", [True, False],
                         ids=["parked", "mid-chain"])
def test_post_to_a_surrogates_own_tid_is_a_dead_target(locator, parked,
                                                       conclusions):
    """A surrogate is nobody's event target, retired or not: the raiser
    gets §7.2's notice, nothing is queued on it, no handler runs."""
    cluster, thread, log = _rig("current", locator=locator)
    cluster.raise_event("EVT", thread.tid, from_node=1)
    cluster.run(until=cluster.now + (1.0 if parked else 1.2e-3))
    [surrogate] = _live_surrogates(cluster)
    assert bool(surrogate.frames) is not parked
    ran = 3 if parked else 1
    assert len(log) == ran
    asynchronous = cluster.raise_event("EVT", surrogate.tid, from_node=2)
    waited = cluster.raise_and_wait("EVT", surrogate.tid, from_node=0)
    cluster.run(until=cluster.now + 1.0)
    assert asynchronous.result() == 1  # routed to one recipient ...
    with pytest.raises(DeadThreadError):  # ... who is not there
        waited.result()
    assert cluster.events.dead_targets == 2
    assert len(log) == 3 and not surrogate.pending_notices
    assert _parked_with(cluster, thread) is surrogate
    conclusions.check()
    assert conclusions.count("noticed") == 2


class Computes(DistObject):
    """EVT handler that logs its ``user_data`` after computing 1 ms."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    @on_event("EVT")
    def on_evt(self, ctx, block):
        yield ctx.compute(1e-3)
        self.log.append(block.user_data)


@pytest.mark.parametrize("locator",
                         ["path", "broadcast", "multicast", "cached"])
@pytest.mark.parametrize("running", [False, True], ids=["idle", "mid-run"])
@pytest.mark.parametrize("mode", ["master", "per-event"])
def test_post_to_an_object_loop_threads_own_tid_is_a_dead_target(
        locator, running, mode, conclusions):
    """Neither is a chain surrogate: the master handler thread (idle:
    parked between runs) and a per-event thread (idle: made, not yet
    stepped) are no event target either, and their posts all run."""
    cluster = make_cluster(n_nodes=3, locator=locator,
                           object_event_mode=mode)
    cluster.register_event("EVT")
    log = []
    cap = cluster.create_object(Computes, log, node=0)
    cluster.raise_event("EVT", cap, from_node=0, user_data=0)
    # mid-run: inside the handler's compute; per-event idle: inside the
    # thread's creation cost
    idle, mid_run = (0.1, 0.0) if mode == "master" else (1e-4, 3e-4)
    cluster.run(until=mid_run if running else idle)
    [loop] = [t for t in cluster.live_threads.values()
              if t.kind == KIND_KERNEL]
    assert bool(loop.frames) is running
    asynchronous = cluster.raise_event("EVT", loop.tid, from_node=2)
    waited = cluster.raise_and_wait("EVT", loop.tid, from_node=0)
    cluster.raise_event("EVT", cap, from_node=1, user_data=1)
    cluster.run(until=cluster.now + 1.0)
    assert asynchronous.result() == 1
    with pytest.raises(DeadThreadError):
        waited.result()
    assert cluster.events.dead_targets == 2
    assert log == [0, 1] and not loop.pending_notices
    conclusions.check()
    assert conclusions.count("noticed") == 2


# ======================================================================
# the hint holder index
# ======================================================================

_hint_ops = st.lists(st.tuples(
    st.sampled_from(["install", "install", "invalidate", "get", "clear"]),
    st.integers(0, 3), st.integers(0, 9)), max_size=80)


@settings(max_examples=150, deadline=None)
@given(ops=_hint_ops)
def test_holder_index_equals_union_of_tables(ops):
    """Under any install / invalidate / LRU-evict / clear (crash)
    sequence the shared reverse index names exactly the nodes whose
    table holds a hint, and the counters count as a lone table's do."""
    holders = {}
    tables = [LocationHintTable(n, capacity=3, holders=holders)
              for n in range(4)]
    lone = [LocationHintTable(n, capacity=3) for n in range(4)]
    for op, node, key in ops:
        tid = ThreadId(0, key)
        for table in (tables[node], lone[node]):
            if op == "install":
                table.install(tid, key % 4)
            elif op == "invalidate":
                table.invalidate(tid)
            elif op == "get":
                table.get(tid)
            else:
                table.clear()
        expected = {}
        for table in tables:
            for held in table._hints:
                expected.setdefault(held, set()).add(table.node_id)
        assert holders == expected
    for shared, alone in zip(tables, lone):
        assert shared.stats() == alone.stats()
        assert list(shared._hints.items()) == list(alone._hints.items())


def test_thread_exit_invalidates_exactly_the_holders():
    cluster, thread, log = _rig("current", {0: Decision.TERMINATE}, depth=1,
                                locator="cached")
    locator = cluster.events.locator
    assert locator.holders[thread.tid] == {0}
    cluster.raise_event("EVT", thread.tid, from_node=1)
    cluster.run(until=1.0)
    assert thread.state == "terminated"
    assert locator.holders == {}
    assert all(thread.tid not in table for table in locator.hints.values())
    # node 0 held it from birth, node 1 learned it from the delivery
    assert [table.invalidations
            for table in locator.hints.values()][:2] == [2, 1]


# ======================================================================
# ids: cached hash, unchanged identity
# ======================================================================

@pytest.mark.parametrize("cls", [ThreadId, GroupId])
def test_id_hash_eq_order_pickle_codec(cls):
    a, b, c = cls(2, 7), cls(root=2, seq=7), cls(2, 8)
    assert a == b and hash(a) == hash(b) == hash((2, 7))
    assert a != c and a < c and sorted([c, a]) == [a, c]
    assert a != (2, 7)
    assert repr(a) == f"{cls.__name__}(root=2, seq=7)"
    assert cls.parse(str(a)) == a
    assert {a: 1}[b] == 1
    wire = encode_message(Message(src=0, dst=1, mtype="x", payload=a))
    for copy in (pickle.loads(pickle.dumps(a)), decode_message(wire).payload):
        assert copy == a and hash(copy) == hash(a) and type(copy) is cls
        assert repr(copy) == repr(a)
    with pytest.raises(AttributeError):
        a.seq = 9  # still frozen


def test_thread_id_and_group_id_stay_distinct():
    assert ThreadId(1, 1) != GroupId(1, 1)
