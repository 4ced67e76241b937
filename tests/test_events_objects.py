"""Tests for object-based event handling (§4.3, §5.1, §7)."""

import pytest

from repro import DistObject, entry, on_event
from repro.errors import NoHandlerError, UnknownObjectError
from tests.conftest import Recorder, make_cluster


class Cabinet(DistObject):
    """Declares handlers in its interface, §5.1 style."""

    def __init__(self):
        super().__init__()
        self.log = []

    @entry
    def poke(self, ctx):
        yield ctx.compute(0)
        return "poked"

    @on_event("DELETE")
    def my_delete_handler(self, ctx, block):
        yield ctx.compute(1e-5)
        self.log.append(("delete", block.raiser_tid))
        return "deleted-gracefully"

    @on_event("SAVE")
    def my_save_handler(self, ctx, block):
        yield ctx.compute(1e-5)
        self.log.append(("save", block.user_data))
        return f"saved:{block.user_data}"


def _rig(**cfg):
    cluster = make_cluster(**cfg)
    cluster.register_event("SAVE")
    cluster.register_event("PING")
    return cluster


class TestObjectHandlers:
    def test_handler_not_invocable_as_entry(self):
        cluster = _rig()
        cap = cluster.create_object(Cabinet, node=1)
        thread = cluster.spawn(cap, "my_save_handler", at=0)
        cluster.run()
        assert thread.state == "failed"

    def test_user_event_with_payload(self):
        cluster = _rig()
        cap = cluster.create_object(Cabinet, node=1)
        future = cluster.raise_and_wait("SAVE", cap, from_node=0,
                                        user_data="state-42")
        cluster.run()
        assert future.result() == "saved:state-42"
        assert cluster.get_object(cap).log == [("save", "state-42")]

    def test_delete_runs_handler_then_destroys(self):
        cluster = _rig()
        cap = cluster.create_object(Cabinet, node=1)
        obj = cluster.get_object(cap)
        future = cluster.raise_and_wait("DELETE", cap, from_node=0)
        cluster.run()
        assert future.result() == "deleted-gracefully"
        assert obj.log == [("delete", None)]
        assert cluster.find_object(cap.oid) is None

    def test_delete_default_destroys_without_handler(self):
        cluster = _rig()
        cap = cluster.create_object(Recorder, node=1)  # no DELETE handler
        future = cluster.raise_and_wait("DELETE", cap, from_node=0)
        cluster.run()
        assert future.done
        assert cluster.find_object(cap.oid) is None

    def test_unhandled_user_event_rejected_sync(self):
        cluster = _rig()
        cap = cluster.create_object(Recorder, node=1)
        future = cluster.raise_and_wait("SAVE", cap, from_node=0)
        cluster.run()
        with pytest.raises(NoHandlerError):
            future.result()

    def test_unhandled_user_event_dropped_async(self):
        cluster = _rig()
        cap = cluster.create_object(Recorder, node=1)
        future = cluster.raise_event("SAVE", cap, from_node=0)
        cluster.run()
        assert future.result() == 1  # routed, then dropped with a trace
        assert len(cluster.tracer.select("event", "object-reject")) == 1

    def test_raise_to_destroyed_object_fails_sync(self):
        cluster = _rig()
        cap = cluster.create_object(Cabinet, node=1)
        cluster.raise_event("DELETE", cap, from_node=0)
        cluster.run()
        future = cluster.raise_and_wait("SAVE", cap, from_node=0)
        cluster.run()
        with pytest.raises(UnknownObjectError):
            future.result()

    def test_abort_default_is_harmless(self):
        cluster = _rig()
        cap = cluster.create_object(Cabinet, node=1)
        future = cluster.raise_and_wait("ABORT", cap, from_node=0)
        cluster.run()
        assert future.done
        assert cluster.find_object(cap.oid) is not None

    def test_events_by_oid_integer(self):
        cluster = _rig()
        cap = cluster.create_object(Cabinet, node=1)
        future = cluster.raise_and_wait("SAVE", cap.oid, from_node=0,
                                        user_data="x")
        cluster.run()
        assert future.result() == "saved:x"


class TestMasterHandlerThread:
    def test_master_mode_creates_one_thread_for_many_events(self):
        cluster = _rig(object_event_mode="master")
        cap = cluster.create_object(Cabinet, node=1)
        for i in range(10):
            cluster.raise_event("SAVE", cap, from_node=0, user_data=i)
        cluster.run()
        manager = cluster.kernels[1].objects
        assert manager.events_served == 10
        assert manager.handler_threads_created == 1

    def test_per_event_mode_creates_thread_per_event(self):
        cluster = _rig(object_event_mode="per-event")
        cap = cluster.create_object(Cabinet, node=1)
        for i in range(10):
            cluster.raise_event("SAVE", cap, from_node=0, user_data=i)
        cluster.run()
        manager = cluster.kernels[1].objects
        assert manager.events_served == 10
        assert manager.handler_threads_created == 10

    def test_master_mode_is_cheaper_in_virtual_time(self):
        def run(mode):
            cluster = _rig(object_event_mode=mode,
                           thread_create_cost=1e-3)
            cap = cluster.create_object(Cabinet, node=1)
            for i in range(20):
                cluster.raise_event("SAVE", cap, from_node=0, user_data=i)
            cluster.run()
            return cluster.now

        assert run("master") < run("per-event")

    def test_master_serializes_events_in_order(self):
        cluster = _rig(object_event_mode="master")
        cap = cluster.create_object(Cabinet, node=1)
        for i in range(5):
            cluster.raise_event("SAVE", cap, from_node=0, user_data=i)
        cluster.run()
        assert [payload for _, payload in
                cluster.get_object(cap).log] == list(range(5))

    def test_handlers_on_different_objects_share_master(self):
        cluster = _rig(object_event_mode="master")
        a = cluster.create_object(Cabinet, node=1)
        b = cluster.create_object(Cabinet, node=1)
        cluster.raise_event("SAVE", a, from_node=0, user_data="a")
        cluster.raise_event("SAVE", b, from_node=0, user_data="b")
        cluster.run()
        assert cluster.kernels[1].objects.handler_threads_created == 1
        assert cluster.get_object(a).log == [("save", "a")]
        assert cluster.get_object(b).log == [("save", "b")]


class TestObjectHandlerFailures:
    def test_handler_crash_fails_sync_raiser(self):
        cluster = _rig()

        class Flaky(DistObject):
            @on_event("PING")
            def on_ping(self, ctx, block):
                yield ctx.compute(0)
                raise RuntimeError("handler broke")

        cap = cluster.create_object(Flaky, node=1)
        future = cluster.raise_and_wait("PING", cap, from_node=0)
        cluster.run()
        with pytest.raises(RuntimeError, match="handler broke"):
            future.result()

    def test_handler_crash_does_not_kill_master(self):
        cluster = _rig(object_event_mode="master")

        class Flaky(DistObject):
            def __init__(self):
                super().__init__()
                self.count = 0

            @on_event("PING")
            def on_ping(self, ctx, block):
                yield ctx.compute(0)
                self.count += 1
                if self.count == 1:
                    raise RuntimeError("first one breaks")
                return self.count

        cap = cluster.create_object(Flaky, node=1)
        cluster.raise_event("PING", cap, from_node=0)
        cluster.run()
        future = cluster.raise_and_wait("PING", cap, from_node=0)
        cluster.run()
        assert future.result() == 2

    def test_object_handler_can_invoke_other_objects(self):
        cluster = _rig()

        class Delegator(DistObject):
            @on_event("PING")
            def on_ping(self, ctx, block):
                result = yield ctx.invoke(block.user_data, "poke")
                return f"delegated:{result}"

        helper = cluster.create_object(Recorder, node=2)
        cap = cluster.create_object(Delegator, node=1)
        future = cluster.raise_and_wait("PING", cap, from_node=0,
                                        user_data=helper)
        cluster.run()
        assert future.result() == "delegated:poked"
