"""One resident surrogate per delivered notice (§6.1 + §7's thread-creation
argument): every handler of a chain runs as a successive frame on the same
surrogate thread, which is replaced only when it dies and retired at every
chain exit."""

import pickle
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro import Decision, DistObject, entry, handler_entry
from repro.errors import DeadThreadError
from repro.kernel.tcb import LocationHintTable
from repro.net.message import Message
from repro.threads.ids import GroupId, ThreadId
from repro.threads.thread import KIND_SURROGATE
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


def _held_by_tables(cluster):
    held = {}
    for kernel in cluster.kernels.values():
        for tid in kernel.location_hints._hints:
            held.setdefault(tid, set()).add(kernel.node_id)
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
        assert exits == [created[0].get("tid")]
        assert _live_surrogates(cluster) == []
        # thread T0.1 + one surrogate T0.2: the chain consumed one tid
        assert _next_seq(cluster) == 3
        assert thread.state == "blocked"  # default decision: resumed

    def test_resume_mid_chain_stops_it(self, context):
        cluster, thread, log = _rig(context, {1: Decision.RESUME})
        cluster.raise_event("EVT", thread.tid, from_node=1)
        cluster.run(until=1.0)
        assert [pos for pos, *_ in log] == [0, 1]
        assert thread.state == "blocked"
        assert _live_surrogates(cluster) == []

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


def test_depth1_chains_allocate_tids_as_before():
    """Golden sequence recorded on the per-handler-surrogate commit: a
    depth-1 chain costs exactly one tid, so same-seed traces of depth-1
    workloads name the same threads."""
    created = []
    for context in CONTEXTS:
        cluster, thread, log = _rig(context, {0: Decision.RESUME}, depth=1)
        for _ in range(3):
            cluster.raise_event("EVT", thread.tid, from_node=1)
            cluster.run(until=cluster.now + 0.1)
        created.append([(r.get("tid"), r.get("kind"), r.get("entry"))
                        for r in cluster.tracer.select("thread", "create")])
    golden = [("T0.1", "user", "work"),
              ("T0.2", "surrogate", "handler:EVT"),
              ("T0.3", "surrogate", "handler:EVT"),
              ("T0.4", "surrogate", "handler:EVT")]
    assert created == [golden, golden, golden]


# ======================================================================
# the owning thread dies mid-chain
# ======================================================================

class TestOwnerDiesMidChain:
    def _mid_chain(self, context):
        cluster, thread, log = _rig(context)
        future = cluster.raise_and_wait("EVT", thread.tid, from_node=1)
        while len(log) < 2:  # stop inside the second handler's 1 ms
            cluster.run(until=cluster.now + 2e-4)
        assert [pos for pos, *_ in log] == [0, 1]
        return cluster, thread, future

    @pytest.mark.parametrize("context", CONTEXTS)
    def test_owner_terminated(self, context):
        cluster, thread, future = self._mid_chain(context)
        cluster.invoker.terminate_thread(thread, reason="test")
        cluster.run(until=cluster.now + 1.0)
        assert thread.state == "terminated"
        assert cluster.events.dead_targets == 1
        with pytest.raises(DeadThreadError):
            future.result()
        assert _live_surrogates(cluster) == []

    @pytest.mark.parametrize("context", CONTEXTS)
    def test_owner_node_crashed(self, context):
        cluster, thread, future = self._mid_chain(context)
        cluster.crash_node(0)
        cluster.run(until=cluster.now + 1.0)
        assert not thread.alive
        assert cluster.events.dead_targets == 1
        with pytest.raises(DeadThreadError):
            future.result()
        assert _live_surrogates(cluster) == []
        # the crash cleared node 0's table through the shared index
        assert cluster.hint_holders == _held_by_tables(cluster)
        assert thread.tid not in cluster.hint_holders


def test_chain_retry_backoff_holds_no_parked_surrogate():
    cluster, thread, log = _rig("current", {0: "raise"}, depth=1,
                                poison_threshold=3, handler_backoff=0.05)
    cluster.raise_event("EVT", thread.tid, from_node=1)
    cluster.run(until=cluster.now + 0.03)  # inside the first backoff
    assert cluster.supervision_stats()["chain_retries"] == 1
    assert thread.delivering_block is not None
    assert _live_surrogates(cluster) == []
    cluster.run(until=cluster.now + 1.0)
    assert [pos for pos, *_ in log] == [0, 0, 0]
    # every attempt ran on its own surrogate, as before
    assert len({real for _, _, real, _ in log}) == 3
    assert cluster.supervision_stats()["quarantined"] == 1
    assert _live_surrogates(cluster) == []


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
    cluster, thread, log = _rig("current", {0: Decision.TERMINATE}, depth=1)
    assert cluster.hint_holders[thread.tid] == {0}
    cluster.raise_event("EVT", thread.tid, from_node=1)
    cluster.run(until=1.0)
    assert thread.state == "terminated"
    assert cluster.hint_holders == {}
    assert all(thread.tid not in k.location_hints
               for k in cluster.kernels.values())
    # node 0 held it from birth, node 1 learned it from the delivery
    assert [k.location_hints.invalidations
            for k in cluster.kernels.values()][:2] == [2, 1]


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
    assert ThreadId(3, 4).multicast_group == "thread:T3.4"
