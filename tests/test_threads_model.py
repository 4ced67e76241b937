"""Unit tests for thread ids, attributes, groups and handler chains."""

import copy
import pickle

import pytest

from repro import Cluster, ClusterConfig
from repro.errors import EventError, GroupError, ThreadError
from repro.events.handlers import (
    HandlerChain,
    HandlerContext,
    HandlerRegistration,
)
from repro.net.message import Message
from repro.threads import (
    GroupId,
    GroupRegistry,
    IdAllocator,
    IoChannel,
    ThreadAttributes,
    ThreadId,
    TimerSpec,
)
from repro.transport.codec import decode_message, encode_message
from tests.conftest import Sleeper


class TestIds:
    def test_tid_roundtrip(self):
        tid = ThreadId(root=3, seq=7)
        assert str(tid) == "T3.7"
        assert ThreadId.parse("T3.7") == tid

    def test_tid_parse_rejects_garbage(self):
        with pytest.raises(ThreadError):
            ThreadId.parse("thread-3-7")

    def test_gid_roundtrip(self):
        gid = GroupId(root=1, seq=2)
        assert str(gid) == "G1.2"
        assert GroupId.parse("G1.2") == gid

    def test_allocator_monotonic_per_node(self):
        alloc = IdAllocator(5)
        t1, t2 = alloc.new_tid(), alloc.new_tid()
        assert t1.root == t2.root == 5
        assert t2.seq == t1.seq + 1

    def test_ids_ordered(self):
        assert ThreadId(0, 1) < ThreadId(0, 2) < ThreadId(1, 1)


class TestThreadIdIsATuple:
    """A ``ThreadId`` is a ``(root, seq)`` tuple that hashes in C and
    equals nothing but another ``ThreadId``; the rest of what it was as
    a frozen dataclass (order, str, repr, parse) is
    ``test_surrogate_chain.py::test_id_hash_eq_order_pickle_codec``."""

    def test_hash_is_the_field_tuples(self):
        for root, seq in ((0, 1), (3, 7), (12, 130), (-1, 0)):
            assert hash(ThreadId(root, seq)) == hash((root, seq))
        # so a set of ids iterates as the field tuples' set does
        tids = [ThreadId(r, s) for r in range(4) for s in range(1, 40, 7)]
        assert [tuple(t) for t in set(tids)] == list(
            {(t.root, t.seq) for t in tids})

    def test_equal_only_to_a_thread_id(self):
        tid = ThreadId(2, 7)
        assert tid == ThreadId(root=2, seq=7)
        assert not tid != ThreadId(2, 7)
        for other in (GroupId(2, 7), (2, 7), [2, 7]):
            assert tid != other and other != tid
            assert not tid == other and not other == tid
        assert {tid: "t", GroupId(2, 7): "g", (2, 7): "p"}[tid] == "t"
        assert (2, 7) not in {tid} and tid not in {(2, 7)}

    def test_copies_find_the_same_entry(self):
        tid = ThreadId(4, 11)
        table = {ThreadId(4, 11): "found", ThreadId(11, 4): "other"}
        wire = encode_message(Message(src=0, dst=1, mtype="x", payload=tid))
        for twin in (pickle.loads(pickle.dumps(tid)), copy.copy(tid),
                     copy.deepcopy(tid), decode_message(wire).payload):
            assert type(twin) is ThreadId
            assert twin == tid and hash(twin) == hash(tid)
            assert table[twin] == "found"

    def test_no_instance_dict(self):
        cluster = Cluster(ClusterConfig(n_nodes=2))
        cap = cluster.create_object(Sleeper, node=1)
        cluster.spawn(cap, "hold", 1.0, at=0)
        cluster.run(until=0.5)
        wire = encode_message(Message(src=0, dst=1, mtype="x",
                                      payload=ThreadId(2, 3)))
        tids = [ThreadId(0, 1), IdAllocator(3).new_tid(),
                ThreadId.parse("T1.2"), decode_message(wire).payload,
                *cluster.live_threads]
        assert len(tids) == 5
        for tid in tids:
            assert type(tid) is ThreadId
            assert not hasattr(tid, "__dict__")
        with pytest.raises(AttributeError):
            tids[0].extra = 1
        with pytest.raises(AttributeError):
            tids[0].root = 3


class TestHandlerChain:
    def _reg(self, event="E", context=HandlerContext.CURRENT, proc="p"):
        return HandlerRegistration(event=event, context=context,
                                   procedure=proc)

    def test_lifo_order(self):
        chain = HandlerChain("E")
        first, second = self._reg(), self._reg()
        chain.push(first)
        chain.push(second)
        assert chain.in_order() == [second, first]
        assert chain.top() is second

    def test_wrong_event_rejected(self):
        chain = HandlerChain("E")
        with pytest.raises(EventError):
            chain.push(self._reg(event="OTHER"))

    def test_pop_empty_raises(self):
        with pytest.raises(EventError):
            HandlerChain("E").pop()

    def test_remove_by_reg_id(self):
        chain = HandlerChain("E")
        a, b = self._reg(), self._reg()
        chain.push(a)
        chain.push(b)
        assert chain.remove(a.reg_id) is True
        assert chain.remove(a.reg_id) is False
        assert chain.in_order() == [b]

    def test_copy_is_shallow_but_independent(self):
        chain = HandlerChain("E")
        chain.push(self._reg())
        clone = chain.copy()
        clone.push(self._reg())
        assert len(chain) == 1
        assert len(clone) == 2

    def test_registration_validation(self):
        with pytest.raises(EventError):
            HandlerRegistration(event="E", context=HandlerContext.CURRENT)
        with pytest.raises(EventError):
            HandlerRegistration(event="E", context=HandlerContext.BUDDY,
                                fn_name="h")  # missing target_oid
        ok = HandlerRegistration(event="E", context=HandlerContext.BUDDY,
                                 fn_name="h", target_oid=4)
        assert ok.target_oid == 4


class TestAttributes:
    def test_attach_detach(self):
        attrs = ThreadAttributes()
        reg = HandlerRegistration(event="E", context=HandlerContext.CURRENT,
                                  procedure="p")
        attrs.attach(reg)
        assert attrs.handlers_for("E") == [reg]
        assert attrs.detach_top("E") is reg
        assert attrs.handlers_for("E") == []
        assert attrs.detach_top("E") is None

    def test_detach_specific(self):
        attrs = ThreadAttributes()
        a = HandlerRegistration(event="E", context=HandlerContext.CURRENT,
                                procedure="a")
        b = HandlerRegistration(event="E", context=HandlerContext.CURRENT,
                                procedure="b")
        attrs.attach(a)
        attrs.attach(b)
        assert attrs.detach("E", a.reg_id) is True
        assert attrs.handlers_for("E") == [b]

    def test_timers(self):
        attrs = ThreadAttributes()
        spec = TimerSpec(event="TIMER", interval=0.5)
        attrs.add_timer(spec)
        assert attrs.timers == [spec]
        assert attrs.remove_timer(spec.spec_id) is True
        assert attrs.remove_timer(spec.spec_id) is False

    def test_inherit_copies_chains_and_memory(self):
        attrs = ThreadAttributes(creator="root", group="g")
        attrs.per_thread_memory["k"] = 1
        attrs.attach(HandlerRegistration(
            event="E", context=HandlerContext.CURRENT, procedure="p"))
        attrs.add_timer(TimerSpec(event="TIMER", interval=1.0))
        attrs.consistency_labels["label"] = "strict"
        child = attrs.inherit()
        # copies present
        assert child.handlers_for("E")
        assert child.per_thread_memory["k"] == 1
        assert len(child.timers) == 1
        assert child.consistency_labels == {"label": "strict"}
        # and independent
        child.attach(HandlerRegistration(
            event="E", context=HandlerContext.CURRENT, procedure="q"))
        assert len(attrs.handlers_for("E")) == 1

    def test_inherit_shares_io_channel(self):
        channel = IoChannel("term")
        attrs = ThreadAttributes(io_channel=channel)
        child = attrs.inherit()
        assert child.io_channel is channel

    def test_nominal_size_tracks_content(self):
        attrs = ThreadAttributes()
        base = attrs.nominal_size
        attrs.attach(HandlerRegistration(
            event="E", context=HandlerContext.CURRENT, procedure="p"))
        assert attrs.nominal_size > base


class TestIoChannel:
    def test_collects_writes_in_order(self):
        channel = IoChannel("term")
        channel.write(0.0, "T0.1", "first")
        channel.write(1.0, "T0.2", "second")
        assert channel.text() == "first\nsecond"
        assert channel.lines[0] == (0.0, "T0.1", "first")


class TestGroups:
    def test_create_add_remove(self):
        groups = GroupRegistry()
        gid = GroupId(0, 1)
        groups.create(gid)
        groups.add(gid, ThreadId(0, 1))
        assert groups.members(gid) == frozenset({ThreadId(0, 1)})
        assert groups.remove(gid, ThreadId(0, 1)) is True
        # group was garbage collected when emptied
        assert not groups.exists(gid)

    def test_duplicate_create_rejected(self):
        groups = GroupRegistry()
        gid = GroupId(0, 1)
        groups.create(gid)
        with pytest.raises(GroupError):
            groups.create(gid)

    def test_add_to_missing_group_rejected(self):
        groups = GroupRegistry()
        with pytest.raises(GroupError):
            groups.add(GroupId(0, 9), ThreadId(0, 1))

    def test_members_or_empty(self):
        groups = GroupRegistry()
        assert groups.members_or_empty(GroupId(0, 9)) == frozenset()

    def test_remove_absent_member(self):
        groups = GroupRegistry()
        gid = GroupId(0, 1)
        groups.create(gid)
        assert groups.remove(gid, ThreadId(0, 5)) is False
