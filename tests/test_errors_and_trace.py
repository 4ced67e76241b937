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
    def test_by_link_counts(self):
        from repro.net import Fabric, Message
        from repro.sim import Simulator

        sim = Simulator()
        fabric = Fabric(sim)
        fabric.attach(0, lambda m: None)
        fabric.attach(1, lambda m: None)
        for _ in range(3):
            fabric.send(Message(src=0, dst=1, mtype="x"))
        fabric.send(Message(src=1, dst=0, mtype="x"))
        sim.run()
        assert fabric.stats.by_link[(0, 1)] == 3
        assert fabric.stats.by_link[(1, 0)] == 1

    def test_reset(self):
        from repro.net.stats import TrafficStats

        stats = TrafficStats()
        stats.record_send(0, "a", 10)
        stats.record_delivery(0, 1)
        stats.reset()
        assert stats.snapshot()["sent"] == 0
        assert stats.by_link == {}
