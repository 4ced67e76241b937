"""Tests for the exception hierarchy and trace infrastructure details."""

import pytest

from repro import errors
from repro.errors import (
    DeadThreadError,
    DsmError,
    EventError,
    KernelError,
    LockError,
    NetworkError,
    ObjectError,
    ReproError,
    SimulationError,
    ThreadError,
    UnknownThreadError,
)


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, ReproError), name

    def test_family_relationships(self):
        assert issubclass(DeadThreadError, UnknownThreadError)
        assert issubclass(UnknownThreadError, ThreadError)
        assert issubclass(errors.RpcTimeout, errors.RpcError)
        assert issubclass(errors.RpcError, KernelError)
        assert issubclass(errors.InvocationAborted, ObjectError)
        assert issubclass(errors.PageFaultError, DsmError)
        assert issubclass(errors.LockNotHeldError, LockError)
        assert issubclass(errors.PartitionedError, NetworkError)
        assert issubclass(errors.UnknownEventError, EventError)
        assert issubclass(errors.ProcessError, SimulationError)

    def test_one_catch_all_suffices(self):
        with pytest.raises(ReproError):
            raise DeadThreadError("gone")

    def test_families_are_disjoint_where_it_matters(self):
        # a lock error is never a thread error and vice versa: catch
        # clauses stay precise
        assert not issubclass(LockError, ThreadError)
        assert not issubclass(ThreadError, LockError)
        assert not issubclass(EventError, ObjectError)


class TestMessageEnvelope:
    def test_reply_envelope_rejects_broadcast_source(self):
        from repro.net.message import Message

        msg = Message(src=0, dst=1, mtype="x")
        reply = msg.reply_envelope("y")
        assert (reply.src, reply.dst) == (1, 0)


class TestTrafficStats:
    def test_counts_after_sends_a_crash_drop_and_a_duplicate(self):
        from repro.net import Fabric, FaultPlan, Message
        from repro.sim import Simulator

        sim = Simulator()
        faults = FaultPlan()
        fabric = Fabric(sim, faults=faults)
        inbox = []
        for node in range(3):
            fabric.attach(node, inbox.append)
        for _ in range(3):
            fabric.send(Message(src=0, dst=1, mtype="x", size=10))
        fabric.send(Message(src=1, dst=0, mtype="y", size=20))
        fabric.detach(2)  # crashed: known but not routable
        fabric.send(Message(src=0, dst=2, mtype="x", size=10))
        faults.duplicate_rate = 1.0
        fabric.send(Message(src=0, dst=1, mtype="z", size=30))
        sim.run()
        assert len(inbox) == 6
        stats = fabric.stats
        assert (stats.sent, stats.delivered, stats.dropped,
                stats.bytes_sent) == (6, 6, 1, 90)
        assert stats.by_type == {"x": 4, "y": 1, "z": 1}
        assert stats.snapshot() == {
            "sent": 6, "delivered": 6, "dropped": 1, "bytes_sent": 90,
            "type:x": 4, "type:y": 1, "type:z": 1}

    def test_reset(self):
        from repro.net.stats import TrafficStats

        stats = TrafficStats(sent=1, delivered=1, dropped=1, bytes_sent=10,
                             by_type={"a": 1})
        stats.reset()
        assert stats.snapshot() == {"sent": 0, "delivered": 0, "dropped": 0,
                                    "bytes_sent": 0}
