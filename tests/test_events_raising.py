"""Tests for raise/raise_and_wait semantics — the §5.3 table.

| call                  | recipient                          |
|-----------------------|------------------------------------|
| raise(e, tid)         | thread tid                         |
| raise(e, gtid)        | threads in group gtid              |
| raise(e, oid)         | object oid                         |
| raise_and_wait(e,tid) | thread tid, synchronously          |
| raise_and_wait(e,gtid)| threads of group, synchronously    |
| raise_and_wait(e,oid) | object oid, synchronously          |
"""

import pytest

from repro import Decision, DistObject, entry
from repro.errors import DeadThreadError, EventError, UnknownEventError
from tests.conftest import Recorder, make_cluster


class Raiser(DistObject):
    """Raises events from inside a running thread."""

    @entry
    def fire(self, ctx, event, target, user_data=None):
        count = yield ctx.raise_event(event, target, user_data=user_data)
        return count

    @entry
    def fire_sync(self, ctx, event, target, user_data=None):
        value = yield ctx.raise_and_wait(event, target, user_data=user_data)
        return value


class Target(DistObject):
    """A thread body that records deliveries into shared state."""

    def __init__(self):
        super().__init__()
        self.deliveries = []
        #: (label, virtual time) of every handler run that returned
        self.handled = []

    @entry
    def wait_for_events(self, ctx, label, work=1e-5):
        record, handled = self.deliveries, self.handled

        def on_user_event(hctx, block):
            record.append((label, block.event, block.user_data,
                           str(hctx.tid)))
            yield hctx.compute(work)
            handled.append((label, hctx.now))
            return (Decision.RESUME, f"{label}-handled")

        yield ctx.attach_handler("USER_EVENT", on_user_event)
        yield ctx.sleep(100.0)
        return "done"


@pytest.fixture()
def rig():
    cluster = make_cluster(n_nodes=4)
    cluster.register_event("USER_EVENT")
    target_obj = cluster.create_object(Target, node=2)
    raiser = cluster.create_object(Raiser, node=1)
    return cluster, target_obj, raiser


class TestRaiseToThread:
    def test_async_raise_delivers_and_does_not_block(self, rig):
        cluster, target_obj, raiser = rig
        victim = cluster.spawn(target_obj, "wait_for_events", "v", at=3)
        cluster.run(until=0.05)
        thread = cluster.spawn(raiser, "fire", "USER_EVENT", victim.tid,
                               "payload", at=1)
        cluster.run(until=0.1)
        # raiser completed with recipient count without waiting
        assert thread.completion.result() == 1
        deliveries = cluster.get_object(target_obj).deliveries
        assert deliveries == [("v", "USER_EVENT", "payload",
                               str(victim.tid))]

    def test_sync_raise_blocks_until_handler_value(self, rig):
        cluster, target_obj, raiser = rig
        victim = cluster.spawn(target_obj, "wait_for_events", "v", at=3)
        cluster.run(until=0.05)
        thread = cluster.spawn(raiser, "fire_sync", "USER_EVENT",
                               victim.tid, at=1)
        cluster.run(until=0.2)
        assert thread.completion.result() == "v-handled"

    def test_sync_raise_blocking_window_exceeds_async(self, rig):
        cluster, target_obj, raiser = rig
        v1 = cluster.spawn(target_obj, "wait_for_events", "a", at=3)
        cluster.run(until=0.05)

        class Timed(DistObject):
            @entry
            def both(self, ctx, tid):
                t0 = ctx.now
                yield ctx.raise_event("USER_EVENT", tid)
                async_window = ctx.now - t0
                t1 = ctx.now
                yield ctx.raise_and_wait("USER_EVENT", tid)
                sync_window = ctx.now - t1
                return async_window, sync_window

        timed = cluster.create_object(Timed, node=1)
        thread = cluster.spawn(timed, "both", v1.tid, at=1)
        cluster.run(until=0.5)
        async_window, sync_window = thread.completion.result()
        assert sync_window > async_window

    def test_raise_to_dead_thread_sync_fails(self, rig):
        cluster, target_obj, raiser = rig
        victim = cluster.spawn(target_obj, "wait_for_events", "v", at=3)
        cluster.run(until=0.05)
        cluster.invoker.terminate_thread(victim)
        cluster.run()
        thread = cluster.spawn(raiser, "fire_sync", "USER_EVENT",
                               victim.tid, at=1)
        cluster.run()
        with pytest.raises(DeadThreadError):
            thread.completion.result()

    def test_raise_to_dead_thread_async_notifies_subscriber(self, rig):
        cluster, target_obj, raiser = rig
        victim = cluster.spawn(target_obj, "wait_for_events", "v", at=3)
        cluster.run(until=0.05)
        cluster.invoker.terminate_thread(victim)
        cluster.run()
        notified = []

        class Subscriber(DistObject):
            @entry
            def go(self, ctx, dead_tid):
                def on_dead(hctx, block):
                    notified.append(block.user_data)
                    yield hctx.compute(0)

                yield ctx.attach_handler("TARGET_DEAD", on_dead)
                yield ctx.raise_event("USER_EVENT", dead_tid)
                yield ctx.sleep(1.0)
                return "ok"

        sub = cluster.create_object(Subscriber, node=1)
        thread = cluster.spawn(sub, "go", victim.tid, at=1)
        cluster.run()
        assert thread.completion.result() == "ok"
        assert notified and notified[0]["dead_tid"] == victim.tid

    def test_unregistered_event_rejected(self, rig):
        cluster, target_obj, raiser = rig
        victim = cluster.spawn(target_obj, "wait_for_events", "v", at=3)
        cluster.run(until=0.05)
        thread = cluster.spawn(raiser, "fire", "NEVER_REGISTERED",
                               victim.tid, at=1)
        cluster.run()
        with pytest.raises(UnknownEventError):
            thread.completion.result()

    def test_bad_target_rejected(self, rig):
        cluster, target_obj, raiser = rig
        thread = cluster.spawn(raiser, "fire", "USER_EVENT",
                               "not-a-target", at=1)
        cluster.run()
        with pytest.raises(EventError):
            thread.completion.result()


class TestRaiseToGroup:
    def test_async_group_raise_reaches_all_members(self, rig):
        cluster, target_obj, raiser = rig
        gid = cluster.new_group()
        for i in range(3):
            cluster.spawn(target_obj, "wait_for_events", f"m{i}",
                          at=i, group=gid)
        cluster.run(until=0.05)
        thread = cluster.spawn(raiser, "fire", "USER_EVENT", gid, at=1)
        cluster.run(until=0.2)
        assert thread.completion.result() == 3
        labels = sorted(d[0] for d in
                        cluster.get_object(target_obj).deliveries)
        assert labels == ["m0", "m1", "m2"]

    def test_sync_group_raise_collects_all_values(self, rig):
        cluster, target_obj, raiser = rig
        gid = cluster.new_group()
        for i in range(3):
            cluster.spawn(target_obj, "wait_for_events", f"m{i}", at=i,
                          group=gid)
        cluster.run(until=0.05)
        thread = cluster.spawn(raiser, "fire_sync", "USER_EVENT", gid, at=1)
        cluster.run(until=0.5)
        assert sorted(thread.completion.result()) == [
            "m0-handled", "m1-handled", "m2-handled"]

    def test_sync_group_raise_outlives_a_member_dying_mid_handler(self, rig):
        """A member terminated mid-handler concludes once, as the §7.2
        notice; its surrogate's handler returning later must not
        conclude it a second time and resume the raiser before the live
        member has handled."""
        cluster, target_obj, _ = rig
        gid = cluster.new_group()
        fast = cluster.spawn(target_obj, "wait_for_events", "fast", 0.5,
                             at=2, group=gid)
        cluster.spawn(target_obj, "wait_for_events", "slow", 5.0, at=3,
                      group=gid)
        cluster.run(until=0.05)
        t0 = cluster.now
        future = cluster.raise_and_wait("USER_EVENT", gid, from_node=1)
        resumed_at = []
        future.add_done_callback(lambda fut: resumed_at.append(cluster.now))
        cluster.run(until=t0 + 0.1)
        cluster.invoker.terminate_thread(fast, reason="test")
        cluster.run(until=t0 + 20.0)
        handled = dict(cluster.get_object(target_obj).handled)
        assert t0 + 5.0 <= handled["slow"] <= resumed_at[0]
        with pytest.raises(DeadThreadError):
            future.result()
        assert cluster.events.settle.waits == {}

    def test_raise_to_empty_group(self, rig):
        cluster, target_obj, raiser = rig
        gid = cluster.new_group()
        thread = cluster.spawn(raiser, "fire", "USER_EVENT", gid, at=1)
        cluster.run()
        assert thread.completion.result() == 0
        sync_thread = cluster.spawn(raiser, "fire_sync", "USER_EVENT", gid,
                                    at=1)
        cluster.run()
        with pytest.raises(DeadThreadError):
            sync_thread.completion.result()


class TestRaiseToObject:
    def test_async_raise_to_passive_object(self, rig):
        cluster, target_obj, raiser = rig
        cluster.register_event("PING")
        recorder = cluster.create_object(Recorder, node=3)
        thread = cluster.spawn(raiser, "fire", "PING", recorder, "hello",
                               at=1)
        cluster.run()
        assert thread.completion.result() == 1
        assert cluster.get_object(recorder).events == [
            ("PING", "hello", pytest.approx(cluster.get_object(
                recorder).events[0][2]))]

    def test_sync_raise_to_object_returns_handler_value(self, rig):
        cluster, target_obj, raiser = rig
        cluster.register_event("PING")
        recorder = cluster.create_object(Recorder, node=3)
        thread = cluster.spawn(raiser, "fire_sync", "PING", recorder, at=1)
        cluster.run()
        assert thread.completion.result() == "pong"

    def test_object_event_without_thread_inside(self, rig):
        """Persistence: passive objects handle events with no thread active
        in them (§3.1)."""
        cluster, target_obj, raiser = rig
        cluster.register_event("PING")
        recorder = cluster.create_object(Recorder, node=3)
        # no thread has ever invoked recorder; raise externally
        future = cluster.raise_and_wait("PING", recorder, from_node=0)
        cluster.run()
        assert future.result() == "pong"
        assert len(cluster.get_object(recorder).events) == 1


class TestExternalRaise:
    def test_external_async(self, rig):
        cluster, target_obj, raiser = rig
        victim = cluster.spawn(target_obj, "wait_for_events", "v", at=3)
        cluster.run(until=0.05)
        future = cluster.raise_event("USER_EVENT", victim.tid, from_node=0)
        cluster.run(until=0.2)
        assert future.result() == 1
        assert cluster.get_object(target_obj).deliveries

    def test_external_sync_terminate(self, rig):
        cluster, target_obj, raiser = rig
        victim = cluster.spawn(target_obj, "wait_for_events", "v", at=3)
        cluster.run(until=0.05)
        future = cluster.raise_and_wait("TERMINATE", victim.tid,
                                        from_node=1)
        cluster.run()
        assert future.done
        assert victim.state == "terminated"
