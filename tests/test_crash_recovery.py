"""Node crash/recovery: fail-stop semantics, §7.2 dead-target notices,
RPC fail-fast, and rejoining the cluster with empty volatile state."""

import pytest

from repro import Decision, DistObject, entry, on_event
from repro.errors import (
    DeadThreadError,
    KernelError,
    NodeCrashedError,
    UndeliverableError,
)
from repro.store import MSG_STORE_ACK
from tests.conftest import Echo, Sleeper, make_cluster
from tests.test_durability import (
    Counter,
    Flaky,
    ack_records,
    durable_cluster,
    intercept,
)


class Sink(DistObject):
    """Thread body with a user-event handler, for locator-path tests."""

    @entry
    def absorb(self, ctx, seen, hold, work=1e-6):
        def on_ping(hctx, block):
            seen.append(block.user_data)
            yield hctx.compute(work)
            return Decision.RESUME

        yield ctx.attach_handler("PING", on_ping)
        yield ctx.sleep(hold)
        return "done"


class SlowObject(DistObject):
    """Passive object whose PING handler takes 50 ms."""

    @on_event("PING")
    def on_ping(self, ctx, block):
        yield ctx.compute(0.05)
        return block.user_data


def reliable_cluster(**overrides):
    overrides.setdefault("reliable_delivery", True)
    overrides.setdefault("post_deadline", 0.5)
    return make_cluster(n_nodes=4, **overrides)


class TestCrashSemantics:
    def test_crash_kills_resident_threads(self):
        cluster = make_cluster(n_nodes=4)
        sleeper = cluster.create_object(Sleeper, node=2)
        thread = cluster.spawn(sleeper, "hold", 1000.0, at=2)
        cluster.run(until=0.5)
        cluster.crash_node(2)
        cluster.run(until=1.0)
        assert thread.completion.failed
        with pytest.raises(NodeCrashedError):
            thread.completion.result()
        assert thread.tid not in cluster.live_threads

    def test_crash_kills_thread_visiting_the_node(self):
        """A thread rooted elsewhere dies too if a frame is on the node."""
        cluster = make_cluster(n_nodes=4)
        far = cluster.create_object(Sleeper, node=3)
        thread = cluster.spawn(far, "hold", 1000.0, at=0)
        cluster.run(until=0.5)
        assert thread.current_node == 3
        cluster.crash_node(3)
        cluster.run(until=1.0)
        with pytest.raises(NodeCrashedError):
            thread.completion.result()

    def test_crash_is_idempotent_and_unknown_node_rejected(self):
        cluster = make_cluster(n_nodes=2)
        cluster.crash_node(1)
        cluster.crash_node(1)  # no-op
        cluster.recover_node(1)
        cluster.recover_node(1)  # no-op
        with pytest.raises(KernelError):
            cluster.crash_node(7)
        with pytest.raises(KernelError):
            cluster.recover_node(7)

    def test_crashed_node_black_holes_messages(self):
        """Sends to a crashed node are silently dropped (fail-stop), not
        errors — only never-existing nodes are unknown."""
        cluster = make_cluster(n_nodes=3)
        cluster.crash_node(2)
        from repro.net.message import Message
        cluster.fabric.send(Message(src=0, dst=2, mtype="x"))  # no raise
        cluster.run()
        from repro.errors import UnknownNodeError
        with pytest.raises(UnknownNodeError):
            cluster.fabric.send(Message(src=0, dst=9, mtype="x"))


class TestRpcFailFast:
    def test_outstanding_calls_fail_on_target_crash(self):
        cluster = make_cluster(n_nodes=3)
        fut = cluster.kernels[0].rpc.request(2, "anything")
        cluster.crash_node(2)
        assert fut.failed
        with pytest.raises(NodeCrashedError):
            fut.result()
        assert cluster.kernels[0].rpc.failed_by_crash == 1
        assert not cluster.kernels[0].rpc.outstanding

    def test_crashing_caller_fails_its_own_calls(self):
        cluster = make_cluster(n_nodes=3)
        fut = cluster.kernels[1].rpc.request(2, "anything")
        cluster.crash_node(1)
        assert fut.failed
        with pytest.raises(NodeCrashedError):
            fut.result()

    def test_default_timeout_from_config(self):
        cluster = make_cluster(n_nodes=2, rpc_default_timeout=0.1,
                               reliable_delivery=False)
        from repro.errors import RpcTimeout
        cluster.fabric.faults.partition({0}, {1})
        fut = cluster.kernels[0].rpc.request(1, "ping")
        cluster.run(until=0.09)
        assert not fut.done
        cluster.run(until=2.0)
        with pytest.raises(RpcTimeout):
            fut.result()
        assert cluster.kernels[0].rpc.timeouts == 1
        # sent once, never re-issued
        assert cluster.message_stats()["type:rpc.request"] == 1

    def test_request_outlives_a_partition_on_the_reliable_channel(self):
        # still one request: what crosses after the heal is the channel
        # retransmitting that envelope, not the engine re-issuing the call
        cluster = make_cluster(n_nodes=2, rpc_default_timeout=3.0,
                               reliable_delivery=True)
        cluster.kernels[1].rpc.serve("ping", lambda payload, msg: "pong")
        plan = cluster.fabric.faults
        plan.partition({0}, {1})
        fut = cluster.kernels[0].rpc.request(1, "ping")
        cluster.run(until=0.3)
        assert not fut.done
        plan.heal()
        cluster.run(until=3.0)
        assert fut.result() == "pong"
        assert cluster.kernels[0].reliable.stats()["retransmits"] >= 1
        assert cluster.kernels[0].rpc.timeouts == 0


class TestDeadTargetNotices:
    def test_async_raise_to_crashed_node_is_noticed(self):
        cluster = reliable_cluster()
        cluster.register_event("PING")
        seen, noticed = [], []
        cluster.events.on_undeliverable = \
            lambda block, target: noticed.append(block.event)
        sink = cluster.create_object(Sink, node=2)
        thread = cluster.spawn(sink, "absorb", seen, 1000.0, at=2)
        cluster.run(until=0.5)
        cluster.crash_node(2)
        t0 = cluster.now
        cluster.raise_event("PING", thread.tid, from_node=0, user_data=1)
        cluster.run(until=t0 + cluster.config.post_deadline + 0.1)
        assert "PING" in noticed
        assert cluster.metrics()["events.post.dead_targets"] >= 1
        assert seen == []

    def test_sync_raise_to_crashed_node_fails_bounded(self):
        cluster = reliable_cluster()
        cluster.register_event("PING")
        seen = []
        sink = cluster.create_object(Sink, node=3)
        thread = cluster.spawn(sink, "absorb", seen, 1000.0, at=3)
        cluster.run(until=0.5)
        cluster.crash_node(3)
        fut = cluster.raise_and_wait("PING", thread.tid, from_node=1)
        cluster.run(until=cluster.now + 1.0)
        assert fut.failed
        with pytest.raises(DeadThreadError):
            fut.result()

    def test_cached_hint_at_crashed_node(self):
        """A hot location hint pointing at a crashed node must not hang
        the raiser: the channel gives up, the hint is invalidated, the
        fallback runs and the raiser gets the §7.2 notice."""
        cluster = reliable_cluster(locator="cached")
        cluster.register_event("PING")
        seen, noticed = [], []
        cluster.events.on_undeliverable = \
            lambda block, target: noticed.append(block.user_data)
        sink = cluster.create_object(Sink, node=2)
        thread = cluster.spawn(sink, "absorb", seen, 1000.0, at=2)
        cluster.run(until=0.5)
        # warm node 0's hint cache with a successful post
        cluster.raise_event("PING", thread.tid, from_node=0, user_data="warm")
        cluster.run(until=cluster.now + 0.5)
        assert seen == ["warm"]
        assert cluster.events.locator.hints[0].peek(thread.tid) == 2
        cluster.crash_node(2)
        cluster.raise_event("PING", thread.tid, from_node=0, user_data="lost")
        cluster.run()
        assert "lost" in noticed
        assert seen == ["warm"]
        # the stale hint was invalidated on the failed direct send
        assert cluster.events.locator.hints[0].peek(thread.tid) is None

    def test_pending_notices_drain_on_crash(self):
        """Posts queued at a thread that dies with its node surface as
        dead-target notices, not silence."""
        cluster = reliable_cluster()
        cluster.register_event("PING")
        seen, noticed = [], []
        cluster.events.on_undeliverable = \
            lambda block, target: noticed.append(block.user_data)
        sink = cluster.create_object(Sink, node=1)
        thread = cluster.spawn(sink, "absorb", seen, 1000.0, at=1)
        cluster.run(until=0.5)
        for i in range(3):
            cluster.raise_event("PING", thread.tid, from_node=0, user_data=i)
        # crash before virtual time lets the posts deliver
        cluster.crash_node(1)
        cluster.run(until=cluster.now + 1.0)
        assert seen == []
        assert set(noticed) == {0, 1, 2}

    def test_sync_group_raise_outlives_a_member_crashing_mid_handler(self):
        """The crashed member's block concludes once (thread_gone's
        notice); the chain walker finding the thread dead afterwards
        must not resume the raiser while the live member still runs."""
        cluster = reliable_cluster()
        cluster.register_event("PING")
        seen = []
        gid = cluster.new_group()
        for node, work in ((2, 0.5), (3, 5.0)):
            sink = cluster.create_object(Sink, node=node)
            cluster.spawn(sink, "absorb", seen, 1000.0, work, at=node,
                          group=gid)
        cluster.run(until=0.5)
        t0 = cluster.now
        fut = cluster.raise_and_wait("PING", gid, from_node=1)
        resumed_at = []
        fut.add_done_callback(lambda f: resumed_at.append(cluster.now))
        cluster.run(until=t0 + 0.1)
        cluster.crash_node(2)
        cluster.run(until=t0 + 20.0)
        assert resumed_at and resumed_at[0] >= t0 + 5.0
        with pytest.raises(DeadThreadError):
            fut.result()
        assert cluster.events.settle.waits == {}

    def test_sync_raisers_of_a_crashed_object_queue_are_noticed(self):
        """Non-durable object posts queued (or mid-handler) on a node
        that crashes conclude as noticed instead of hanging."""
        cluster = reliable_cluster()
        cluster.register_event("PING")
        noticed = []
        cluster.events.on_undeliverable = \
            lambda block, target: noticed.append(block.user_data)
        slow = cluster.create_object(SlowObject, node=1)
        futures = [cluster.raise_and_wait("PING", slow, from_node=0,
                                          user_data=i) for i in range(4)]
        cluster.run(until=0.03)  # first handler mid-run, three queued
        cluster.crash_node(1)
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 100.0)
        assert all(fut.done for fut in futures)
        for fut in futures:
            with pytest.raises(UndeliverableError):
                fut.result()
        assert sorted(noticed) == [0, 1, 2, 3]
        assert cluster.events.undeliverable == 4
        assert cluster.events.settle.waits == {}


class TestCrashMidObjectHandler:
    """A node crash unwinds the running object handler: its exit is
    reported once, as ``GeneratorExit``, from inside the crash."""

    def crash_mid_handler(self, cluster, handler_exits):
        cluster.register_event("PING")
        noticed = []
        cluster.events.on_undeliverable = \
            lambda block, target: noticed.append(block.user_data)
        slow = cluster.create_object(SlowObject, node=1)
        cluster.raise_event("PING", slow, from_node=0, user_data="mid")
        cluster.run(until=0.03)  # 50 ms handler, started at ~1 ms
        master = cluster.kernels[1].objects._master
        assert master.frames
        cluster.crash_node(1)
        (block, exits), = handler_exits
        assert [(value, type(error)) for value, error in exits] == [
            (None, GeneratorExit)]
        assert not (master.alive or master.frames)
        return noticed

    def test_non_durable_post_is_noticed_once(self, handler_exits,
                                              conclusions):
        cluster = reliable_cluster()
        noticed = self.crash_mid_handler(cluster, handler_exits)
        assert noticed == ["mid"]  # already, inside crash_node()
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 5.0)
        assert noticed == ["mid"] and cluster.events.undeliverable == 1
        assert len(handler_exits) == 1  # nothing re-ran it
        assert conclusions.count("noticed") == 1
        conclusions.check()

    def test_durable_post_is_silent_redelivered_and_ran_once(
            self, handler_exits, conclusions):
        cluster = durable_cluster(n_nodes=2)
        noticed = self.crash_mid_handler(cluster, handler_exits)
        # the ack the exit owed died with the node's memory
        stats = cluster.durability_stats()
        assert "acks_owed" not in stats and stats["pending"] == 1
        cluster.run(until=cluster.now + 0.2)
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 1.0)
        # redelivery meets the applied marker: re-acked, not re-run
        stats = cluster.durability_stats()
        assert stats["redelivered"] == 1
        assert stats["pending"] == 0 and stats["delivered"] == 1
        assert len(handler_exits) == 1
        assert noticed == [] and cluster.events.undeliverable == 0
        conclusions.check()

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_durable_raiser_fails_with_the_crash(self, scheduler,
                                                 conclusions):
        """The run concludes executed inside the crash (its applied
        marker suppresses the redelivery), and the resume the dead node
        owed its raiser becomes the crash, observed at the raiser's node
        in that instant."""
        cluster = make_cluster(n_nodes=2, seed=1, scheduler=scheduler,
                               durable_delivery=True)
        cluster.register_event("PING")
        slow = cluster.create_object(SlowObject, node=1)
        future = cluster.raise_and_wait("PING", slow, from_node=0)
        cluster.sim.call_at(0.02, cluster.crash_node, 1)
        cluster.sim.call_at(0.1, cluster.recover_node, 1)
        cluster.run(until=0.021)  # told at the crash, not after recovery
        with pytest.raises(NodeCrashedError, match="node 1 crashed"):
            future.result()
        cluster.run(until=3.0)
        assert cluster.durability_stats()["pending"] == 0
        assert conclusions.count("executed") == 1
        conclusions.check()
        assert cluster.quiescent()


class TestCrashInsidePerEventCreation:
    """Per-event mode makes the post's thread at post time, first
    stepped ``thread_create_cost`` later: a crash inside that window
    destroys the thread with its node and the post is lost to the
    crash — noticed, or redelivered after recovery — never run on the
    crashed node."""

    def crash_in_creation(self, scheduler, durable):
        cluster = make_cluster(n_nodes=2, seed=1, scheduler=scheduler,
                               durable_delivery=durable,
                               object_event_mode="per-event")
        cluster.register_event("POST")
        runs = []

        class Counting(DistObject):
            @on_event("POST")
            def on_post(self, ctx, block):
                runs.append(ctx.now)
                yield ctx.compute(1e-6)
                return "ok"

        cap = cluster.create_object(Counting, node=1)
        future = cluster.raise_and_wait("POST", cap, from_node=0)
        # arrives at 1 ms, its thread's first step is due at 1.2 ms
        cluster.sim.call_at(1.1e-3, cluster.crash_node, 1)
        cluster.sim.call_at(5e-3, cluster.recover_node, 1)
        cluster.run(until=3.0)
        return cluster, future, runs

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_non_durable_post_is_noticed(self, scheduler, conclusions):
        cluster, future, runs = self.crash_in_creation(scheduler, False)
        with pytest.raises(UndeliverableError, match="lost in the crash"):
            future.result()
        assert runs == [] and cluster.events.undeliverable == 1
        assert conclusions.count("noticed") == 1
        conclusions.check()
        assert cluster.quiescent()

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_durable_post_runs_once_after_recovery(self, scheduler,
                                                   conclusions):
        cluster, future, runs = self.crash_in_creation(scheduler, True)
        assert future.result() == "ok"
        # redelivered after the 5 ms recovery, run 1.2 ms after arrival
        assert runs == [pytest.approx(6.2e-3)]
        assert cluster.durability_stats()["pending"] == 0
        conclusions.check()


class TestCrashBeforeTheMasterTakesThePost:
    """A post that lands on a parked master's node in the instant the
    node crashes, behind the master's wake: it stays in the queue until
    the master takes it, so the crash finds it there — noticed, or
    redelivered after recovery — instead of dropping it with the
    master's stale step."""

    def crash_on_arrival(self, cluster, warm):
        cluster.register_event("POST")
        runs = []

        class Counting(DistObject):
            @on_event("POST")
            def on_post(self, ctx, block):
                runs.append(block.user_data)
                yield ctx.compute(1e-6)
                return block.user_data

        cap = cluster.create_object(Counting, node=1)
        if warm:  # the master exists and is parked
            cluster.raise_event("POST", cap, from_node=0, user_data="warm")
            cluster.run()
            assert cluster.kernels[1].objects._master.wait_kind \
                == "parked"
        t0 = cluster.now
        future = cluster.raise_and_wait("POST", cap, from_node=0,
                                        user_data="lost")
        # the arrival and then the crash, both timed at this instant,
        # run before the wake scheduled in between
        cluster.sim.call_at(t0 + cluster.config.link_latency,
                            cluster.crash_node, 1)
        cluster.run(until=t0 + 0.5)
        return future, runs

    @pytest.mark.parametrize("warm", [True, False], ids=["parked", "new"])
    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_non_durable_raiser_is_noticed(self, scheduler, warm,
                                           conclusions):
        cluster = make_cluster(n_nodes=2, seed=1, scheduler=scheduler)
        future, runs = self.crash_on_arrival(cluster, warm)
        assert runs == ["warm"] * warm
        with pytest.raises(UndeliverableError):
            future.result()
        assert cluster.events.undeliverable == 1 and cluster.quiescent()
        assert conclusions.count("noticed") == 1
        conclusions.check()

    @pytest.mark.parametrize("warm", [True, False], ids=["parked", "new"])
    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_durable_post_runs_once_after_recovery(self, scheduler, warm,
                                                   conclusions):
        cluster = make_cluster(n_nodes=2, seed=1, scheduler=scheduler,
                               durable_delivery=True)
        future, runs = self.crash_on_arrival(cluster, warm)
        assert runs == ["warm"] * warm and not future.done
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 5.0)
        assert runs == ["warm"] * warm + ["lost"]
        assert future.result() == "lost"
        stats = cluster.durability_stats()
        assert stats["pending"] == 0 and stats["redelivered"] == 1
        assert cluster.events.undeliverable == 0
        conclusions.check()


class TestDurableThreadPostExecutedWhileItsOriginIsDown:
    """ROADMAP item 13's open double conclusion: a durable thread post
    whose handler runs while its origin is down concludes ``executed``,
    and then ``noticed`` by the origin's redelivery after recovery,
    which cannot tell an executed post from a lost one."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 13: the redelivery of a post executed while its "
        "origin was down concludes it a second time, as noticed"))
    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_concludes_once(self, scheduler, conclusions):
        cluster = make_cluster(n_nodes=2, seed=1, scheduler=scheduler,
                               durable_delivery=True)
        cluster.register_event("PING")
        seen = []
        sink = cluster.create_object(Sink, node=1)
        thread = cluster.spawn(sink, "absorb", seen, 10.0, 0.01, at=1)
        cluster.sim.call_at(0.1, cluster.raise_event, "PING", thread.tid,
                            0, "once")
        cluster.sim.call_at(0.105, cluster.crash_node, 0)
        cluster.sim.call_at(0.2, cluster.recover_node, 0)
        cluster.run(until=2.0)
        assert seen == ["once"]
        conclusions.check()


class TestRecovery:
    def test_recovered_node_serves_again(self):
        cluster = make_cluster(n_nodes=3)
        echo = cluster.create_object(Echo, node=1)
        cluster.crash_node(1)
        cluster.run(until=0.1)
        cluster.recover_node(1)
        assert not cluster.kernels[1].crashed
        thread = cluster.spawn(echo, "echo", "back", at=0)
        cluster.run()
        assert thread.completion.result() == "back"

    def test_volatile_state_empty_after_recovery(self):
        cluster = make_cluster(n_nodes=3, locator="cached")
        sleeper = cluster.create_object(Sleeper, node=1)
        thread = cluster.spawn(sleeper, "hold", 1000.0, at=1)
        cluster.run(until=0.5)
        kernel = cluster.kernels[1]
        assert thread.tid in kernel.thread_table
        cluster.crash_node(1)
        cluster.recover_node(1)
        assert thread.tid not in kernel.thread_table

    def test_crash_leaves_all_multicast_groups(self):
        """A crashing node's group memberships are kernel state: crash
        must leave every group, keeping the registry's join/leave
        accounting balanced and dead nodes out of member sets."""
        cluster = reliable_cluster(locator="multicast")
        groups = cluster.events.locator.groups
        sleeper = cluster.create_object(Sleeper, node=2)
        cluster.spawn(sleeper, "hold", 1000.0, at=2)
        cluster.run(until=0.5)
        assert groups.groups_of(2), "running thread must join its group"
        cluster.crash_node(2)
        assert groups.groups_of(2) == frozenset()
        live = sum(len(groups.members(g))
                   for g in {g for n in range(4) for g in groups.groups_of(n)})
        assert groups.joins - groups.leaves == live

    def test_multicast_locator_across_crash_recover(self):
        """Regression: with the multicast locator, a post after a crash
        must not be swallowed by the dead node's stale membership — the
        raiser gets a notice while the node is down, and a respawned
        target is reachable again after recovery."""
        cluster = reliable_cluster(locator="multicast")
        cluster.register_event("PING")
        seen, noticed = [], []
        cluster.events.on_undeliverable = \
            lambda block, target: noticed.append(block.user_data)
        sink = cluster.create_object(Sink, node=2)
        thread = cluster.spawn(sink, "absorb", seen, 1000.0, at=2)
        cluster.run(until=0.5)
        cluster.raise_event("PING", thread.tid, from_node=0, user_data="up")
        cluster.run(until=cluster.now + 0.5)
        assert seen == ["up"]
        cluster.crash_node(2)
        cluster.raise_event("PING", thread.tid, from_node=0, user_data="down")
        cluster.run(until=cluster.now + 1.0)
        assert "down" in noticed and seen == ["up"]
        cluster.recover_node(2)
        respawned = cluster.spawn(sink, "absorb", seen, 1000.0, at=2)
        cluster.run(until=cluster.now + 0.5)
        cluster.raise_event("PING", respawned.tid, from_node=0,
                            user_data="back")
        cluster.run(until=cluster.now + 0.5)
        assert seen == ["up", "back"]

    def test_events_flow_after_crash_recover_cycle(self):
        cluster = reliable_cluster()
        cluster.register_event("PING")
        seen = []
        cluster.crash_node(2)
        cluster.run(until=0.1)
        cluster.recover_node(2)
        sink = cluster.create_object(Sink, node=2)
        thread = cluster.spawn(sink, "absorb", seen, 1000.0, at=2)
        cluster.run(until=cluster.now + 0.5)
        cluster.raise_event("PING", thread.tid, from_node=0, user_data="hi")
        cluster.run(until=cluster.now + 0.5)
        assert seen == ["hi"]


class TestStoreAcksAcrossCrashes:
    """The acks a node owes are volatile, the outcomes they report are
    not: a crash loses the batch, redelivery + ``applied`` dedup + re-ack
    restores it, with the outcome the node journaled."""

    def durable(self, **overrides):
        cluster = durable_cluster(n_nodes=2, **overrides)
        cluster.register_event("PING")
        return cluster

    def test_receiver_crash_inside_the_ack_window(self):
        cluster = self.durable()
        counter = cluster.create_object(Counter, node=1)
        for i in range(5):
            cluster.raise_event("PING", counter, from_node=0, user_data=i)
        config = cluster.config
        cluster.run(until=config.link_latency + config.ack_delay / 2)
        obj = cluster.get_object(counter)
        assert len(obj.seen) == 5
        assert cluster.durability_stats()["acks_owed"] == 5
        cluster.crash_node(1)
        stats = cluster.durability_stats()
        assert "acks_owed" not in stats and stats["pending"] == 5
        cluster.run(until=cluster.now + 0.2)
        assert cluster.durability_stats()["pending"] == 5  # nobody acks
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 1.0)
        # announcement -> redelivery -> dedup -> re-ack, no second run
        assert sorted(obj.seen) == list(range(5))
        stats = cluster.durability_stats()
        assert stats["pending"] == 0 and stats["delivered"] == 5
        assert stats["redelivered"] == 5
        assert sorted(ack_records(cluster)) == [(0, i) for i in range(1, 6)]

    def quarantined_with_ack_lost(self, **overrides):
        cluster = self.durable(poison_threshold=2, handler_backoff=1e-3,
                               **overrides)
        cap = cluster.create_object(Flaky, poison={"bad"}, node=1)
        cluster.raise_event("PING", cap, from_node=0, user_data="bad")
        heal, _ = intercept(cluster, MSG_STORE_ACK, lambda m: 0)
        return cluster, cluster.get_object(cap), heal

    def assert_quarantined_once(self, cluster, obj):
        stats = cluster.durability_stats()
        assert stats["pending"] == 0
        assert stats["delivered"] == 0 and stats["quarantined"] == 1
        statuses = [r.data["status"] for r in cluster.store.journal(0)
                    if r.rtype == "ack"]
        assert statuses == ["quarantined"]
        (dead,) = cluster.dead_letters(1)
        assert dead.block.durable_id == (0, 1)
        assert obj.seen == []

    def test_quarantined_post_is_re_acked_quarantined(self):
        """Ack lost for good, then the origin redelivers."""
        cluster, obj, heal = self.quarantined_with_ack_lost(
            max_retransmits=3, outbox_flush_interval=None)
        cluster.run(until=1.0)
        assert cluster.reliability_stats()["gave_up"] == 1
        heal()
        cluster.crash_node(0)
        cluster.recover_node(0)  # replays the pending entry, re-sends it
        cluster.run(until=cluster.now + 1.0)
        self.assert_quarantined_once(cluster, obj)

    def test_quarantine_re_ack_survives_the_receivers_crash(self):
        """Receiver crashed and recovered between the quarantine and the
        redelivery: the outcome comes back from its journal."""
        cluster, obj, heal = self.quarantined_with_ack_lost()
        cluster.run(until=0.1)
        assert len(cluster.dead_letters(1)) == 1
        cluster.crash_node(1)  # the unsent ack and its retransmits die
        heal()
        cluster.run(until=cluster.now + 0.1)
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 1.0)
        self.assert_quarantined_once(cluster, obj)

    def test_acks_owed_to_a_failed_origin_wait_for_its_recovery(self):
        cluster = self.durable(swim_interval=0.05, max_retransmits=2,
                               retransmit_base=0.02,
                               outbox_flush_interval=0.1)
        counter = cluster.create_object(Counter, node=1)
        cluster.run(until=0.3)  # detector warms up
        cluster.raise_event("PING", counter, from_node=0, user_data="x")
        cluster.run(until=cluster.now + cluster.config.link_latency * 1.5)
        obj = cluster.get_object(counter)
        assert obj.seen == ["x"]
        cluster.crash_node(0)  # before the ack window closes
        cluster.run(until=cluster.now + 2.0)
        # the batch gave up, and the flush timer holds it back instead
        # of burning retransmits against a suspected node
        assert cluster.kernels[1].membership.is_failed(0)
        assert cluster.kernels[1].store.stats()["acks_owed"] == 1
        assert cluster.kernels[1].store.outbox.stats()["flush_skips"] > 0
        cluster.recover_node(0)
        cluster.run(until=cluster.now + 2.0)
        stats = cluster.durability_stats()
        assert stats["pending"] == 0 and stats["delivered"] == 1
        assert "acks_owed" not in stats
        assert obj.seen == ["x"]
