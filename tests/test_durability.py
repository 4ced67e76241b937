"""End-to-end durability: journal-before-send, outbox redelivery across
node crashes, the persistent object-handler registry, checkpointed
recovery, and exactly-once execution of durable posts."""

import pytest

from repro import ClusterConfig, Decision, DistObject, entry, on_event
from repro.errors import DeadThreadError, KernelError
from repro.store import MSG_STORE_ACK
from tests.conftest import Sleeper, make_cluster


class Counter(DistObject):
    """Persistent object counting handler runs — the exactly-once probe."""

    def __init__(self):
        super().__init__()
        self.seen = []

    @on_event("PING")
    def on_ping(self, ctx, block):
        self.seen.append(block.user_data)
        yield ctx.compute(1e-5)
        return "pong"

    def on_tick(self, ctx, block):
        """Undecorated: only reachable via dynamic registration."""
        self.seen.append(("tick", block.user_data))
        yield ctx.compute(1e-5)


def durable_cluster(**overrides):
    overrides.setdefault("n_nodes", 4)
    overrides.setdefault("durable_delivery", True)
    overrides.setdefault("post_deadline", 0.5)
    return make_cluster(**overrides)


class TestConfig:
    def test_durable_implies_reliable(self):
        config = ClusterConfig(durable_delivery=True)
        assert config.reliable_delivery

    def test_knob_validation(self):
        with pytest.raises(KernelError):
            ClusterConfig(checkpoint_interval=0)
        with pytest.raises(KernelError):
            ClusterConfig(outbox_flush_interval=0.0)
        with pytest.raises(KernelError):
            ClusterConfig(replay_cost=-1.0)


class TestFaultFreePath:
    def test_durable_object_post_resolves_and_journals(self):
        cluster = durable_cluster()
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=2)
        fut = cluster.raise_event("PING", counter, from_node=0)
        cluster.run()
        assert fut.result() == 1
        obj = cluster.get_object(counter)
        assert obj.seen == [None]
        store0 = cluster.kernels[0].store
        assert len(store0.outbox) == 0
        assert store0.outbox.delivered == 1
        # origin journal: the post and its ack; receiver: the applied mark
        assert [r.rtype for r in cluster.store.journal(0)] == ["post", "ack"]
        assert [r.rtype for r in cluster.store.journal(2)] == ["applied"]

    def test_store_ack_message_flows(self):
        cluster = durable_cluster()
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=1)
        cluster.raise_event("PING", counter, from_node=0)
        cluster.run()
        assert cluster.fabric.stats.count(MSG_STORE_ACK) == 1

    def test_journal_and_message_overhead_bounded_per_post(self):
        """Fault-free budget per remote post: three journal records
        (post, applied, ack) plus the checkpoints, and a quarter of a
        message beyond the post itself (the acks of a burst share one
        ``store.ack``, so messages no longer scale with appends)."""
        posts = 20
        cluster = durable_cluster()
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=3)
        for i in range(posts):
            cluster.raise_event("PING", counter, from_node=0, user_data=i)
        cluster.run()
        stats = cluster.durability_stats()
        assert stats["appends"] <= 3 * posts + stats["checkpoints"]
        assert cluster.fabric.stats.sent <= 1.25 * posts
        assert stats["pending"] == 0

    def test_local_durable_post_needs_no_messages(self):
        cluster = durable_cluster()
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=0)
        cluster.raise_event("PING", counter, from_node=0)
        cluster.run()
        assert cluster.fabric.stats.sent == 0
        assert len(cluster.kernels[0].store.outbox) == 0

    def test_disabled_store_is_inert(self):
        cluster = make_cluster(n_nodes=3)
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=1)
        cluster.raise_event("PING", counter, from_node=0)
        cluster.run()
        assert cluster.durability_stats()["appends"] == 0
        assert cluster.durability_stats()["recorded"] == 0


class TestRedelivery:
    def test_post_to_crashed_home_parks_then_redelivers(self):
        cluster = durable_cluster()
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=2)
        cluster.run()
        cluster.crash_node(2)
        fut = cluster.raise_event("PING", counter, from_node=0,
                                  user_data="survives")
        cluster.run(until=cluster.now + 1.0)
        obj = cluster.get_object(counter)
        assert obj.seen == []  # parked, not lost, not yet delivered
        store0 = cluster.kernels[0].store
        assert len(store0.outbox) == 1
        cluster.recover_node(2)
        cluster.run(until=cluster.now + 2.0)
        assert obj.seen == ["survives"]
        assert len(store0.outbox) == 0
        assert store0.outbox.redelivered >= 1
        assert fut.result() == 1

    def test_posts_queued_at_crash_instant_redeliver(self):
        """The PR 2 gap: posts sitting in the master handler queue when
        the node dies were converted to notices; durable delivery must
        re-deliver them after recovery, exactly once."""
        cluster = durable_cluster()
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=1)
        cluster.run()
        n = 5
        for i in range(n):
            cluster.raise_event("PING", counter, from_node=0, user_data=i)
        # Let the posts arrive and enqueue, then kill the node before the
        # master thread drains the queue.
        link = cluster.config.link_latency
        cluster.run(until=cluster.now + link * 1.5)
        cluster.crash_node(1)
        cluster.run(until=cluster.now + 0.5)
        obj = cluster.get_object(counter)
        executed_before = list(obj.seen)
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 3.0)
        assert sorted(obj.seen) == list(range(n))  # all n, exactly once
        assert len(obj.seen) == n
        assert executed_before != obj.seen or executed_before == obj.seen
        assert len(cluster.kernels[0].store.outbox) == 0

    def test_origin_crash_redispatches_own_pending_on_recovery(self):
        """The origin journals before sending; if it crashes before the
        ack arrives, its own recovery replays and re-dispatches."""
        cluster = durable_cluster()
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=2)
        cluster.run()
        cluster.raise_event("PING", counter, from_node=0, user_data="x")
        # crash the origin before the ack can arrive (needs 2 link hops)
        cluster.crash_node(0)
        cluster.run(until=cluster.now + 0.5)
        cluster.recover_node(0)
        cluster.run(until=cluster.now + 2.0)
        obj = cluster.get_object(counter)
        # executed exactly once: either the first send landed (applied-set
        # suppressed the redelivery) or the redelivery carried it
        assert obj.seen == ["x"]
        assert len(cluster.kernels[0].store.outbox) == 0


class TestExactlyOnce:
    def test_duplicate_redelivery_is_suppressed_by_applied_set(self):
        cluster = durable_cluster()
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=1)
        cluster.raise_event("PING", counter, from_node=0, user_data="once")
        cluster.run()
        obj = cluster.get_object(counter)
        assert obj.seen == ["once"]
        # force a manual redelivery of an already-delivered entry: the
        # receiver's journaled applied set must suppress re-execution
        store1 = cluster.kernels[1].store
        applied = set(store1.applied)
        assert len(applied) == 1
        entry_id = next(iter(applied))
        assert not store1.accept_post(entry_id)
        cluster.run()
        assert obj.seen == ["once"]


class TestThreadPostsResolveByNotice:
    def test_durable_thread_post_to_dead_thread_is_noticed(self):
        cluster = durable_cluster()
        cluster.register_event("PING")
        sleeper = cluster.create_object(Sleeper, node=2)
        thread = cluster.spawn(sleeper, "hold", 1000.0, at=2)
        cluster.run(until=0.5)
        cluster.crash_node(2)
        cluster.run(until=cluster.now + 0.2)
        cluster.raise_event("PING", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 2.0)
        store0 = cluster.kernels[0].store
        assert len(store0.outbox) == 0
        assert store0.outbox.noticed == 1
        assert store0.outbox.delivered == 0

    def test_durable_thread_post_delivered_acks(self):
        cluster = durable_cluster()
        cluster.register_event("PING")
        seen = []
        from tests.test_crash_recovery import Sink
        sink = cluster.create_object(Sink, node=1)
        thread = cluster.spawn(sink, "absorb", seen, 3.0, at=1)
        cluster.run(until=0.5)
        cluster.raise_event("PING", thread.tid, from_node=0, user_data="hi")
        cluster.run(until=cluster.now + 1.0)
        assert seen == ["hi"]
        store0 = cluster.kernels[0].store
        assert len(store0.outbox) == 0
        assert store0.outbox.delivered == 1


class TestPersistentRegistry:
    def test_dynamic_registration_routes_posts(self):
        cluster = durable_cluster()
        cluster.register_event("TICK")
        counter = cluster.create_object(Counter, node=1)
        cluster.kernels[1].objects.register_object_handler(
            counter.oid, "TICK", "on_tick")
        cluster.raise_event("TICK", counter, from_node=0, user_data=7)
        cluster.run()
        assert cluster.get_object(counter).seen == [("tick", 7)]

    def test_registration_survives_crash_recover(self):
        cluster = durable_cluster()
        cluster.register_event("TICK")
        counter = cluster.create_object(Counter, node=1)
        cluster.kernels[1].objects.register_object_handler(
            counter.oid, "TICK", "on_tick")
        cluster.crash_node(1)
        assert len(cluster.kernels[1].objects.handlers) == 0  # volatile
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 1.0)
        assert cluster.kernels[1].objects.handlers.lookup(
            counter.oid, "TICK") == "on_tick"
        cluster.raise_event("TICK", counter, from_node=0, user_data=9)
        cluster.run()
        assert cluster.get_object(counter).seen == [("tick", 9)]

    def test_registration_lost_without_durability(self):
        cluster = make_cluster(n_nodes=3, reliable_delivery=True)
        cluster.register_event("TICK")
        counter = cluster.create_object(Counter, node=1)
        cluster.kernels[1].objects.register_object_handler(
            counter.oid, "TICK", "on_tick")
        cluster.crash_node(1)
        cluster.recover_node(1)
        assert cluster.kernels[1].objects.handlers.lookup(
            counter.oid, "TICK") is None

    def test_unregistration_is_journaled_too(self):
        cluster = durable_cluster()
        cluster.register_event("TICK")
        counter = cluster.create_object(Counter, node=1)
        manager = cluster.kernels[1].objects
        manager.register_object_handler(counter.oid, "TICK", "on_tick")
        assert manager.unregister_object_handler(counter.oid, "TICK")
        cluster.crash_node(1)
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 1.0)
        assert manager.handlers.lookup(counter.oid, "TICK") is None

    def test_bad_registration_rejected(self):
        from repro.errors import NoSuchEntryError
        cluster = durable_cluster()
        cluster.register_event("TICK")
        counter = cluster.create_object(Counter, node=1)
        with pytest.raises(NoSuchEntryError):
            cluster.kernels[1].objects.register_object_handler(
                counter.oid, "TICK", "no_such_method")


class TestCheckpointing:
    def test_auto_checkpoint_bounds_journal_length(self):
        cluster = durable_cluster(checkpoint_interval=8)
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=1)
        for i in range(40):
            cluster.raise_event("PING", counter, from_node=0, user_data=i)
        cluster.run()
        journal = cluster.store.journal(0)
        # 40 posts -> 80 payload records at the origin, but retention is
        # bounded by the interval, not the history
        assert len(journal) <= 8 + 2  # interval + checkpoint + slack
        assert journal.truncations >= 1
        assert cluster.kernels[0].store.checkpoints.taken >= 1

    def test_recovery_replays_tail_only(self):
        cluster = durable_cluster(checkpoint_interval=8)
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=1)
        for i in range(40):
            cluster.raise_event("PING", counter, from_node=0, user_data=i)
        cluster.run()
        cluster.crash_node(0)
        cluster.recover_node(0)
        cluster.run(until=cluster.now + 1.0)
        log = cluster.kernels[0].store.recovery_log
        assert len(log) == 1
        assert log[0]["replayed"] <= 8 + 1

    def test_object_restored_from_checkpoint_after_media_loss(self):
        cluster = durable_cluster()
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=1)
        for i in range(3):
            cluster.raise_event("PING", counter, from_node=0, user_data=i)
        cluster.run()
        obj = cluster.get_object(counter)
        assert sorted(obj.seen) == [0, 1, 2]
        kernel = cluster.kernels[1]
        kernel.store.checkpoint()
        # simulate losing the in-memory instance entirely
        kernel.objects._objects.pop(counter.oid)
        cluster.object_directory.pop(counter.oid)
        cluster.crash_node(1)
        cluster.recover_node(1)
        cluster.run(until=cluster.now + 1.0)
        restored = kernel.objects.get(counter.oid)
        assert restored is not None and restored is not obj
        assert sorted(restored.seen) == [0, 1, 2]
        assert restored.home == 1

    def test_manual_checkpoint_truncates(self):
        cluster = durable_cluster(checkpoint_interval=None)
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=1)
        for i in range(10):
            cluster.raise_event("PING", counter, from_node=0, user_data=i)
        cluster.run()
        journal = cluster.store.journal(0)
        before = len(journal)
        assert before == 20  # post + ack per post, never truncated
        dropped = cluster.kernels[0].store.checkpoint()
        assert dropped == 20
        assert len(journal) == 1  # just the checkpoint record


def intercept(cluster, mtype, copies):
    """From now until the returned ``undo()`` runs, the fabric delivers
    ``copies(message)`` copies of every ``mtype`` message (0 loses it).
    Returns ``(undo, seen)``; ``seen`` collects the intercepted
    messages' payloads."""
    faults = cluster.fabric.faults
    plan, seen = faults.copies, []

    def choose(message):
        if message.mtype != mtype:
            return plan(message)
        seen.append(message.payload)
        return copies(message)

    faults.copies = choose
    return (lambda: setattr(faults, "copies", plan)), seen


def ack_records(cluster, node=0):
    return [r.data["entry_id"] for r in cluster.store.journal(node)
            if r.rtype == "ack"]


class Flaky(DistObject):
    """Runs PING unless its payload is listed as poison."""

    def __init__(self, poison=()):
        super().__init__()
        self.poison = set(poison)
        self.seen = []

    @on_event("PING")
    def on_ping(self, ctx, block):
        yield ctx.compute(1e-5)
        if block.user_data in self.poison:
            raise RuntimeError("poison pill")
        self.seen.append(block.user_data)


class TestAckBatches:
    """One ``store.ack`` per origin per ``ack_delay`` window, retired at
    the origin as one commit."""

    def burst(self, n=8, reliable=True, **overrides):
        cluster = durable_cluster(n_nodes=2, **overrides)
        # ClusterConfig turns the channel on with durable_delivery;
        # kernels read the flag per send, so a test can turn it back off
        cluster.config.reliable_delivery = reliable
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=1)
        for i in range(n):
            cluster.raise_event("PING", counter, from_node=0, user_data=i)
        return cluster, cluster.get_object(counter)

    def test_burst_shares_one_ack_and_one_commit(self):
        cluster, obj = self.burst(8, checkpoint_interval=None)
        _, seen = intercept(cluster, MSG_STORE_ACK, lambda m: 1)
        cluster.run()
        assert sorted(obj.seen) == list(range(8))
        (payload,) = seen
        assert payload == {"acks": [((0, i), "delivered")
                                    for i in range(1, 9)]}
        journal = cluster.store.journal(0)
        assert [r.rtype for r in journal] == ["post"] * 8 + ["ack"] * 8
        assert journal.commits == 8 + 1
        assert cluster.durability_stats()["pending"] == 0

    def test_batch_trips_the_checkpoint_at_the_same_append_count(self):
        # 8 posts + one batch of 8 acks = 16 appends: exactly the interval
        cluster, _ = self.burst(8, checkpoint_interval=16)
        cluster.run()
        store0 = cluster.kernels[0].store
        assert store0.checkpoints.taken == 1
        journal = cluster.store.journal(0)
        assert journal.appends == 16 + 1
        assert [r.rtype for r in journal] == ["checkpoint"]

    def test_window_stays_open_for_ack_delay(self):
        cluster, obj = self.burst(4)
        link = cluster.config.link_latency
        cluster.run(until=link + cluster.config.ack_delay / 2)
        assert len(obj.seen) == 4
        stats = cluster.durability_stats()
        assert stats["acks_owed"] == 4 and stats["pending"] == 4
        cluster.run()
        stats = cluster.durability_stats()
        assert "acks_owed" not in stats and stats["pending"] == 0

    def test_zero_delay_batches_the_current_instant(self):
        cluster, obj = self.burst(4, ack_delay=0.0)
        _, seen = intercept(cluster, MSG_STORE_ACK, lambda m: 1)
        cluster.run()
        # each handler finishes at an instant of its own: one ack each
        assert [len(p["acks"]) for p in seen] == [1] * 4
        # duplicates landing in one instant are re-acked by one message
        store1 = cluster.kernels[1].store
        for entry_id in sorted(store1.applied):
            assert not store1.accept_post(entry_id)
        cluster.run()
        assert [len(p["acks"]) for p in seen] == [1] * 4 + [4]
        assert len(obj.seen) == 4
        assert cluster.durability_stats()["pending"] == 0

    def test_delivered_and_quarantined_share_a_batch(self):
        cluster = durable_cluster(n_nodes=2, poison_threshold=2,
                                  handler_backoff=1e-4, ack_delay=2e-3)
        cluster.register_event("PING")
        cap = cluster.create_object(Flaky, poison={2}, node=1)
        for i in range(4):
            cluster.raise_event("PING", cap, from_node=0, user_data=i)
        _, seen = intercept(cluster, MSG_STORE_ACK, lambda m: 1)
        cluster.run()
        (payload,) = seen
        assert sorted(payload["acks"]) == [
            ((0, 1), "delivered"), ((0, 2), "delivered"),
            ((0, 3), "quarantined"), ((0, 4), "delivered")]
        assert sorted(cluster.get_object(cap).seen) == [0, 1, 3]
        stats = cluster.durability_stats()
        assert stats["delivered"] == 3 and stats["quarantined"] == 1
        assert stats["pending"] == 0
        (dead,) = cluster.dead_letters(1)
        assert dead.block.durable_id == (0, 3)

    def test_dropped_batch_is_retransmitted(self):
        cluster, obj = self.burst(6)
        first = []
        intercept(cluster, MSG_STORE_ACK,
                  lambda m: 1 if first else first.append(m) or 0)
        cluster.run()
        assert cluster.fabric.stats.count(MSG_STORE_ACK) == 2
        assert cluster.reliability_stats()["retransmits"] == 1
        assert sorted(obj.seen) == list(range(6))
        assert sorted(ack_records(cluster)) == [(0, i) for i in range(1, 7)]
        assert cluster.durability_stats()["pending"] == 0

    def test_duplicated_batch_journals_each_ack_once(self):
        # off the reliable channel, so both copies reach the outbox
        cluster, obj = self.burst(6, reliable=False)
        intercept(cluster, MSG_STORE_ACK, lambda m: 2)
        cluster.run()
        assert cluster.fabric.stats.delivered \
            == cluster.fabric.stats.sent + 1
        assert sorted(ack_records(cluster)) == [(0, i) for i in range(1, 7)]
        stats = cluster.durability_stats()
        assert stats["delivered"] == 6 and stats["pending"] == 0
        assert stats["commits"] == 6 + 6 + 1

    def test_durable_without_the_reliable_channel(self):
        cluster, obj = self.burst(5, reliable=False)
        cluster.run()
        assert sorted(obj.seen) == list(range(5))
        assert cluster.fabric.stats.count(MSG_STORE_ACK) == 1
        assert cluster.fabric.stats.sent == 5 + 1
        assert cluster.reliability_stats()["sends"] == 0
        assert cluster.durability_stats()["pending"] == 0

    def test_payload_crosses_the_codec(self, serializing_wire):
        cluster = durable_cluster(n_nodes=2, poison_threshold=1)
        cluster.register_event("PING")
        cap = cluster.create_object(Flaky, poison={1}, node=1)
        for i in range(3):
            cluster.raise_event("PING", cap, from_node=0, user_data=i)
        cluster.run()
        stats = cluster.durability_stats()
        assert stats["delivered"] == 2 and stats["quarantined"] == 1
        assert stats["pending"] == 0
        assert cluster.fabric.stats.count(MSG_STORE_ACK) == 1


class TestAckGiveUp:
    """A ``store.ack`` the channel gave up on is owed again: the post it
    acknowledges was transport-acked long ago, so nothing else would
    ever retire the origin's entry."""

    def lost_ack(self, **overrides):
        cluster = durable_cluster(n_nodes=2, **overrides)
        cluster.register_event("PING")
        counter = cluster.create_object(Counter, node=1)
        cluster.raise_event("PING", counter, from_node=0, user_data="once")
        heal, _ = intercept(cluster, MSG_STORE_ACK, lambda m: 0)
        return cluster, cluster.get_object(counter), heal

    def test_flush_timer_resends_after_the_link_heals(self):
        cluster, obj, heal = self.lost_ack()
        cluster.run(until=10.0)
        assert cluster.reliability_stats()["gave_up"] == 1
        stats = cluster.durability_stats()
        assert stats["pending"] == 1 and stats["delivered"] == 0
        heal()
        cluster.run(until=60.0)
        stats = cluster.durability_stats()
        assert stats["pending"] == 0 and stats["delivered"] == 1
        assert obj.seen == ["once"]
        assert ack_records(cluster) == [(0, 1)]
        assert cluster.quiescent()  # the flush timer quenched itself

    def test_recovery_announcement_flushes_at_once(self):
        cluster, obj, heal = self.lost_ack(outbox_flush_interval=None,
                                           max_retransmits=3)
        cluster.run(until=1.0)
        assert cluster.reliability_stats()["gave_up"] == 1
        heal()
        cluster.run(until=5.0)  # no timer: the ack stays owed
        assert cluster.durability_stats()["acks_owed"] == 1
        cluster.node_recovered(0)
        cluster.run(until=cluster.now + 3 * cluster.config.link_latency)
        stats = cluster.durability_stats()
        assert stats["pending"] == 0 and stats["delivered"] == 1
        assert obj.seen == ["once"]

    def test_given_up_acks_ride_the_next_window(self):
        cluster, obj, heal = self.lost_ack(outbox_flush_interval=None,
                                           max_retransmits=3)
        cluster.run(until=1.0)
        heal()
        cluster.raise_event("PING", obj.cap, from_node=0, user_data="next")
        cluster.run()
        assert obj.seen == ["once", "next"]
        stats = cluster.durability_stats()
        assert stats["pending"] == 0 and stats["delivered"] == 2
        # the lost send and its three retransmits, then one batch of two
        assert cluster.fabric.stats.count(MSG_STORE_ACK) == 4 + 1


class Member(DistObject):
    """A group member whose EVT handler computes 50 ms, then logs its
    node in ``runs``."""

    @entry
    def serve(self, ctx, runs):
        def handler(hctx, block):
            yield hctx.compute(0.05)
            runs.append(hctx.node)
            return Decision.RESUME

        yield ctx.attach_handler("EVT", handler)
        yield ctx.sleep(100.0)


class TestDurableGroupRaise:
    """A durable group raise journals its members' posts as one batch
    (``NodeStore.journal_post_batch``) and each resolves on its own."""

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    @pytest.mark.parametrize("crash", [False, True],
                             ids=["no-crash", "crash-mid-handler"])
    @pytest.mark.parametrize("sync", [True, False], ids=["sync", "async"])
    def test_one_commit_for_the_batch_and_every_post_resolves(
            self, scheduler, crash, sync):
        cluster = durable_cluster(n_nodes=3, scheduler=scheduler)
        cluster.register_event("EVT")
        gid = cluster.new_group()
        runs = []
        for node in range(3):
            cap = cluster.create_object(Member, node=node)
            cluster.spawn(cap, "serve", runs, at=node, group=gid)
        cluster.run(until=0.1)
        journal = cluster.kernels[0].store.journal
        assert journal.commits == 0
        raise_ = cluster.raise_and_wait if sync else cluster.raise_event
        future = raise_("EVT", gid, from_node=0)
        assert journal.commits == 1  # three post records, one commit
        if crash:  # node 2's member is mid-handler
            cluster.sim.call_at(0.105, cluster.crash_node, 2)
            cluster.sim.call_at(0.305, cluster.recover_node, 2)
        cluster.run(until=2.0)
        assert sorted(runs) == ([0, 1] if crash else [0, 1, 2])
        if not sync:
            assert future.result() == 3
        elif crash:
            with pytest.raises(DeadThreadError):
                future.result()
        else:
            assert future.result() == [None, None, None]
        stats = cluster.durability_stats()
        assert stats["pending"] == 0 and stats["recorded"] == 3
        assert cluster.metrics()["events.settle.open"] == 0
