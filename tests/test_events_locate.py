"""Tests for the §7.1 thread-location strategies."""

from importlib import import_module

import pytest

from repro import Decision, DistObject, entry
from repro.errors import DeadThreadError
from repro.events.locate import MulticastRegistry
from repro.events.locate.base import LOCATE_RETRIES
from repro.threads.ids import ThreadId
from repro.threads.thread import TERMINATING
from tests.conftest import Sleeper, location_state, make_cluster


def _deep_thread(cluster, depth):
    """Spawn a thread that migrates through `depth` nodes then holds."""
    n = cluster.config.n_nodes
    caps = [cluster.create_object(Sleeper, node=(i % (n - 1)) + 1)
            for i in range(depth)]
    thread = cluster.spawn(caps[0], "hop_and_hold", caps[1:], 1000.0, at=0)
    cluster.run(until=1.0)
    return thread


@pytest.mark.parametrize("name", ["PathLocator", "BroadcastLocator",
                                  "MulticastLocator", "CachedLocator"])
def test_what_the_e17_tracer_needs_from_the_locators(name):
    """``benchmarks/e17/trace.py`` looks each class up as an attribute of
    ``repro.events.locate`` and wraps ``vars(cls)["post"]``: the class
    body itself must bind ``post``, an inherited one is not wrapped."""
    assert "post" in vars(getattr(import_module("repro.events.locate"), name))


@pytest.mark.parametrize("locator", ["path", "broadcast", "multicast",
                                     "cached"])
class TestAllLocators:
    def test_finds_thread_at_root(self, locator):
        cluster = make_cluster(n_nodes=4, locator=locator)
        sleeper = cluster.create_object(Sleeper, node=0)
        thread = cluster.spawn(sleeper, "hold", 1000.0, at=0)
        cluster.run(until=0.5)
        cluster.raise_and_wait("TERMINATE", thread.tid, from_node=2)
        cluster.run()
        assert thread.state == "terminated"

    def test_finds_migrated_thread(self, locator):
        cluster = make_cluster(n_nodes=5, locator=locator)
        thread = _deep_thread(cluster, depth=3)
        assert thread.current_node != 0
        cluster.raise_and_wait("TERMINATE", thread.tid, from_node=0)
        cluster.run()
        assert thread.state == "terminated"

    def test_dead_thread_detected(self, locator):
        cluster = make_cluster(n_nodes=4, locator=locator)
        sleeper = cluster.create_object(Sleeper, node=2)
        thread = cluster.spawn(sleeper, "hold", 0.01, at=0)
        cluster.run()  # completes
        assert thread.state == "done"
        future = cluster.raise_and_wait("TERMINATE", thread.tid, from_node=1)
        cluster.run()
        with pytest.raises(DeadThreadError):
            future.result()

    def test_thread_that_returned_home(self, locator):
        """After remote calls return, the thread is innermost at its root
        again — all locators must find it there, not at stale nodes."""
        cluster = make_cluster(n_nodes=4, locator=locator)

        class HomeBody(DistObject):
            @entry
            def run(self, ctx, cap):
                yield ctx.invoke(cap, "echo_back")
                yield ctx.sleep(1000.0)

            @entry
            def echo_back(self, ctx):
                yield ctx.compute(1e-4)
                return "back"

        home = cluster.create_object(HomeBody, node=0)
        far = cluster.create_object(HomeBody, node=3)
        thread = cluster.spawn(home, "run", far, at=0)
        cluster.run(until=0.5)
        assert thread.current_node == 0
        cluster.raise_and_wait("TERMINATE", thread.tid, from_node=2)
        cluster.run()
        assert thread.state == "terminated"


    def test_same_chase_through_the_codec(self, locator, request):
        """A locate message names the thread and carries the notice; the
        origin's side of the exchange stays at the origin, so delivering
        decoded copies changes nothing — not even the message counts."""
        def chase():
            cluster = make_cluster(n_nodes=5, locator=locator)
            thread = _deep_thread(cluster, depth=3)
            live = cluster.raise_and_wait("TERMINATE", thread.tid,
                                          from_node=0)
            cluster.run()
            dead = cluster.raise_and_wait("TERMINATE", thread.tid,
                                          from_node=4)
            cluster.run()
            assert thread.state == "terminated" and live.done
            with pytest.raises(DeadThreadError):
                dead.result()
            assert not cluster.events.post.locator._open
            return cluster.now, cluster.message_stats()

        plain = chase()
        request.getfixturevalue("serializing_wire")
        assert chase() == plain


@pytest.mark.parametrize("locator", ["path", "cached"])
def test_tid_rooted_on_another_shard_is_a_dead_target(locator):
    """Threads are per process: one shard of a sharded run answers a
    raise at a tid rooted on another shard with the §7.2 notice instead
    of sending a walk whose verdict could never come back."""
    from repro.threads.ids import ThreadId
    cluster = make_cluster(n_nodes=4, transport="sharded", shard_count=2,
                           shard_index=0, locator=locator)
    assert sorted(cluster.kernels) == [0, 1]
    future = cluster.raise_and_wait("TERMINATE", ThreadId(root=3, seq=1),
                                    from_node=0)
    cluster.run()
    with pytest.raises(DeadThreadError):
        future.result()
    assert cluster.transport_stats()["cross_sent"] == 0


class TestMessageCosts:
    def _posting_cost(self, locator, n_nodes, depth):
        cluster = make_cluster(n_nodes=n_nodes, locator=locator)
        thread = _deep_thread(cluster, depth=depth)
        before = cluster.fabric.stats.sent
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.5)
        return cluster.fabric.stats.sent - before

    def test_broadcast_cost_scales_with_cluster_size(self):
        small = self._posting_cost("broadcast", n_nodes=4, depth=2)
        large = self._posting_cost("broadcast", n_nodes=12, depth=2)
        # 'communication intensive and wasteful': grows with n even though
        # the thread is equally deep
        assert large > small

    def test_path_cost_scales_with_depth_not_cluster(self):
        shallow = self._posting_cost("path", n_nodes=12, depth=1)
        deep = self._posting_cost("path", n_nodes=12, depth=6)
        assert deep > shallow
        same_depth_bigger_cluster = self._posting_cost("path", n_nodes=6,
                                                       depth=1)
        assert shallow == same_depth_bigger_cluster

    def test_multicast_cost_bounded_by_members(self):
        # Thread holding at one node: group = {root, holder}; multicast
        # posting beats broadcast in a large cluster.
        mcast = self._posting_cost("multicast", n_nodes=12, depth=1)
        bcast = self._posting_cost("broadcast", n_nodes=12, depth=1)
        assert mcast < bcast

    def test_local_post_costs_nothing(self):
        cluster = make_cluster(n_nodes=4, locator="path")
        sleeper = cluster.create_object(Sleeper, node=0)
        thread = cluster.spawn(sleeper, "hold", 1000.0, at=0)
        cluster.run(until=0.5)
        before = cluster.fabric.stats.sent
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.2)
        assert cluster.fabric.stats.sent == before


class TestPathLocatorSpecifics:
    def test_hop_count_equals_path_length(self):
        cluster = make_cluster(n_nodes=8, locator="path")
        thread = _deep_thread(cluster, depth=4)
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.5)
        routed = cluster.tracer.select("event", "routed")
        assert routed
        # depth-4 thread: root(0) -> 4 hops along the chain
        assert routed[-1].get("hops") == 4

    def test_raise_from_nonroot_walks_via_root(self):
        cluster = make_cluster(n_nodes=6, locator="path")
        sleeper = cluster.create_object(Sleeper, node=3)
        thread = cluster.spawn(sleeper, "hold", 1000.0, at=2)
        cluster.run(until=0.5)
        before = cluster.fabric.stats.count("locate.path")
        cluster.raise_event("INTERRUPT", thread.tid, from_node=5)
        cluster.run(until=cluster.now + 0.5)
        # 5 -> root(2) -> 3
        assert cluster.fabric.stats.count("locate.path") - before == 2


class Visitor(DistObject):
    """Computes on its node for a while, then returns to its caller."""

    @entry
    def visit(self, ctx, seconds, stamps):
        stamps.append(ctx.now)
        yield ctx.compute(seconds)


class Returner(DistObject):
    """Attach a PING handler that logs where it ran, visit another
    node, come back and hold."""

    @entry
    def go(self, ctx, cap, stamps, log):
        def ping(hctx, block):
            log.append(hctx.node)
            yield hctx.compute(1e-6)
            return Decision.RESUME

        yield ctx.attach_handler("PING", ping)
        yield ctx.invoke(cap, "visit", 0.05, stamps)
        yield ctx.sleep(1000.0)


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
class TestPathArrival:
    """``PathLocator._arrived``'s three answers: the innermost frame takes
    the notice, a forwarding pointer passes it on, anything else
    restarts from the root."""

    def test_stale_pointer_restarts_from_the_root_and_delivers(
            self, scheduler):
        cluster = make_cluster(n_nodes=3, locator="path", scheduler=scheduler)
        cluster.register_event("PING")
        stamps, log = [], []
        visitor = cluster.create_object(Visitor, node=1)
        home = cluster.create_object(Returner, node=0)
        thread = cluster.spawn(home, "go", visitor, stamps, log, at=0)
        cluster.run(until=0.01)
        assert [frame.node for frame in thread.frames] == [0, 1]
        # Raised on the root half a latency before the visit returns:
        # the root's pointer sends the notice to node 1, which the thread
        # has left by the time it lands (the reply is still in flight).
        returns_at = stamps[0] + 0.05
        before = cluster.fabric.stats.count("locate.path")
        cluster.sim.call_at(returns_at - 5e-4, lambda: cluster.raise_event(
            "PING", thread.tid, from_node=0))
        cluster.run(until=returns_at + 0.1)
        assert log == [0]
        # root -> 1 (stale), then 1 -> root after the retry delay
        assert cluster.fabric.stats.count("locate.path") - before == 2
        assert cluster.metrics()["events.settle.executed"] == 1
        assert cluster.metrics()["events.settle.open"] == 0

    def test_terminating_thread_restarts_until_the_retries_run_out(
            self, scheduler):
        cluster = make_cluster(n_nodes=3, locator="path", scheduler=scheduler)
        sleeper = cluster.create_object(Sleeper, node=0)
        far = cluster.create_object(Sleeper, node=1)
        thread = cluster.spawn(sleeper, "hop_and_hold", [far], 1000.0, at=0)
        cluster.run(until=0.5)
        # Its termination under way (the state the unwinder holds while
        # it crosses nodes): its innermost node refuses the notice, and
        # it is still live, so each walk restarts.
        thread.state = TERMINATING
        before = cluster.fabric.stats.count("locate.path")
        future = cluster.raise_and_wait("INTERRUPT", thread.tid,
                                        from_node=2)
        cluster.run(until=cluster.now + 1.0)
        with pytest.raises(DeadThreadError):
            future.result()
        # 2 -> root -> 1, then root -> 1 again from 1 on every retry
        assert (cluster.fabric.stats.count("locate.path") - before
                == 2 * (1 + LOCATE_RETRIES))
        assert cluster.metrics()["events.settle.noticed"] == 1
        assert cluster.metrics()["events.settle.open"] == 0

    def test_a_confirmed_dead_next_hop_costs_no_message(
            self, scheduler):
        cluster = make_cluster(n_nodes=4, locator="path", scheduler=scheduler,
                               swim_interval=0.05)
        sleeper = cluster.create_object(Sleeper, node=0)
        far = cluster.create_object(Sleeper, node=1)
        thread = cluster.spawn(sleeper, "hop_and_hold", [far], 1000.0, at=0)
        cluster.run(until=0.5)
        # Cut off, node 1 is confirmed dead by the others' gossip while
        # it, and the thread on it, live on.
        cluster.fabric.faults.partition({1}, {0, 2, 3})
        cluster.run(until=cluster.now + 60 * 0.05)
        assert cluster.kernels[0].membership.is_dead(1) and thread.alive
        before = cluster.fabric.stats.count("locate.path")
        future = cluster.raise_and_wait("INTERRUPT", thread.tid,
                                        from_node=0)
        cluster.run(until=cluster.now + 0.5)
        with pytest.raises(DeadThreadError):
            future.result()
        # the root's pointer names a dead node on every walk: lost, never
        # sent
        assert cluster.fabric.stats.count("locate.path") == before
        assert cluster.metrics()["events.settle.noticed"] == 1
        assert cluster.metrics()["events.settle.open"] == 0


class TestMulticastMaintenance:
    def test_membership_tracks_location(self):
        cluster = make_cluster(n_nodes=4, locator="multicast")
        thread = _deep_thread(cluster, depth=2)
        members = cluster.events.locator.groups.members(thread.tid)
        assert 0 in members  # root
        assert thread.current_node in members

    def test_group_dissolved_on_termination(self):
        cluster = make_cluster(n_nodes=4, locator="multicast")
        thread = _deep_thread(cluster, depth=2)
        cluster.raise_event("TERMINATE", thread.tid, from_node=0)
        cluster.run()
        groups = cluster.events.locator.groups
        assert groups.members(thread.tid) == frozenset()
        assert groups.joins == groups.leaves


class TestMulticastRegistry:
    def test_join_leave(self):
        reg = MulticastRegistry()
        assert reg.join("g", 1) is True
        assert reg.join("g", 1) is False
        assert reg.members("g") == frozenset({1})
        assert reg.leave("g", 1) is True
        assert reg.leave("g", 1) is False
        assert reg.members("g") == frozenset()

    def test_groups_of(self):
        reg = MulticastRegistry()
        reg.join("a", 1)
        reg.join("b", 1)
        reg.join("a", 2)
        assert reg.groups_of(1) == frozenset({"a", "b"})

    def test_dissolve(self):
        reg = MulticastRegistry()
        reg.join("g", 1)
        reg.dissolve("g")
        assert reg.members("g") == frozenset()

    def test_dissolve_counts_each_member_as_a_leave(self):
        reg = MulticastRegistry()
        for node in (1, 2, 3):
            reg.join("g", node)
        reg.dissolve("g")
        assert reg.leaves == 3
        assert reg.joins - reg.leaves == 0

    def test_dissolve_missing_or_empty_group_counts_nothing(self):
        reg = MulticastRegistry()
        reg.dissolve("ghost")
        assert reg.leaves == 0

    def test_join_leave_balance_invariant(self):
        """joins - leaves must always equal the number of live
        memberships, whichever mix of leave/dissolve removed them."""
        reg = MulticastRegistry()
        reg.join("a", 1)
        reg.join("a", 2)
        reg.join("b", 1)
        reg.join("b", 3)
        reg.leave("a", 2)
        reg.dissolve("b")
        live = sum(len(reg.members(g)) for g in ("a", "b"))
        assert reg.joins - reg.leaves == live == 1


class Wanderer(DistObject):
    """Attaches a handler, then keeps invoking between two objects."""

    @entry
    def wander(self, ctx, other, dwell):
        def on_ping(hctx, block):
            yield hctx.compute(1e-4)
            return Decision.RESUME

        yield ctx.attach_handler("PING", on_ping)
        while True:
            yield ctx.invoke(other, "stay", dwell)
            yield ctx.sleep(dwell)

    @entry
    def stay(self, ctx, dwell):
        yield ctx.sleep(dwell)


def _wander(locator, **cfg):
    """A thread rooted at node 0 migrates 1 <-> 2 and handles notices
    raised on every node, then is terminated. Returns the cluster, every
    thread id the run created (surrogates included) and the thread's
    location state after each notice."""
    cluster = make_cluster(n_nodes=4, locator=locator, **cfg)
    cluster.register_event("PING")
    a = cluster.create_object(Wanderer, node=1)
    b = cluster.create_object(Wanderer, node=2)
    thread = cluster.spawn(a, "wander", b, 0.05, at=0)
    cluster.run(until=0.02)
    during = []
    for i in range(12):
        cluster.raise_event("PING", thread.tid, from_node=i % 4)
        cluster.run(until=cluster.now + 0.03)
        during.append(location_state(cluster, thread.tid))
    cluster.raise_event("TERMINATE", thread.tid, from_node=3)
    cluster.run()
    assert thread.state == "terminated"
    # twelve PINGs, one TERMINATE
    assert cluster.metrics()["events.execute.delivered"] == 13
    tids = {ThreadId.parse(r.get("tid"))
            for r in cluster.tracer.select("thread", "create")}
    assert len(tids) > 2  # the thread and its surrogates
    return cluster, tids, during


_NOWHERE = {"multicast": [], "hints": []}


class TestLocationStateOwner:
    """Only a strategy that reads location state keeps any (§7.1)."""

    @pytest.mark.parametrize("locator", ["path", "broadcast"])
    def test_stateless_strategies_keep_nothing(self, locator):
        cluster, tids, during = _wander(locator)
        assert set(vars(cluster.events.locator)) == {
            "cluster", "enqueue", "_open"}
        assert during == [_NOWHERE] * len(during)

    @pytest.mark.parametrize("locator, cfg, keeps", [
        ("multicast", {}, {"multicast"}),
        ("cached", {}, {"hints"}),
        ("cached", {"cache_fallback": "multicast"}, {"multicast", "hints"}),
    ], ids=["multicast", "cached", "cached-multicast"])
    def test_stateful_strategies_keep_and_clear_their_own(self, locator,
                                                          cfg, keeps):
        cluster, tids, during = _wander(locator, **cfg)
        assert {kind for state in during for kind, nodes in state.items()
                if nodes} == keeps
        if "multicast" in keeps:  # the root is a member for life
            assert all(0 in state["multicast"] for state in during)
        assert all(location_state(cluster, tid) == _NOWHERE for tid in tids)
        locator = cluster.events.locator
        groups = getattr(getattr(locator, "base", locator), "groups", None)
        if groups is not None:
            assert groups.joins == groups.leaves


class TwoStage(DistObject):
    """Holds at its own node, then migrates into ``next_cap`` and holds
    there — lets a test post before and after a known migration."""

    @entry
    def stage(self, ctx, next_cap, first_hold, second_hold):
        yield ctx.sleep(first_hold)
        result = yield ctx.invoke(next_cap, "hold_here", second_hold)
        return result

    @entry
    def hold_here(self, ctx, seconds):
        yield ctx.sleep(seconds)
        return "done"


class TestCachedLocator:
    def _held_thread(self, cluster, node):
        sleeper = cluster.create_object(Sleeper, node=node)
        thread = cluster.spawn(sleeper, "hold", 1000.0, at=0)
        cluster.run(until=0.5)
        return thread

    def test_hint_installed_on_delivery(self):
        cluster = make_cluster(n_nodes=4, locator="cached")
        thread = self._held_thread(cluster, node=2)
        assert cluster.events.locator.hints[0].peek(thread.tid) is None
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.2)
        # The posting kernel learned the thread's location from the
        # delivery; the delivering kernel knows it trivially.
        assert cluster.events.locator.hints[0].peek(thread.tid) == 2
        assert cluster.events.locator.hints[2].peek(thread.tid) == 2

    def test_hit_fast_path_costs_one_message(self):
        cluster = make_cluster(n_nodes=8, locator="cached")
        thread = _deep_thread(cluster, depth=3)
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.5)  # warm the cache
        before = cluster.fabric.stats.snapshot()
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.5)
        delta = cluster.fabric.stats.delta_since(before)
        assert delta["sent"] == 1
        assert delta.get("type:locate.cached", 0) == 1

    def test_cold_cache_falls_back_to_base(self):
        cluster = make_cluster(n_nodes=8, locator="cached")
        thread = _deep_thread(cluster, depth=3)
        before = cluster.fabric.stats.snapshot()
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.5)
        delta = cluster.fabric.stats.delta_since(before)
        # No hint yet: the whole post rides the path fallback — no
        # speculative cached message is wasted.
        assert delta.get("type:locate.cached", 0) == 0
        assert delta.get("type:locate.path", 0) == 3
        assert cluster.metrics()["events.execute.delivered"] == 1

    def test_stale_hint_forwarded_along_tcb_pointer(self):
        cluster = make_cluster(n_nodes=4, locator="cached")
        a = cluster.create_object(TwoStage, node=1)
        b = cluster.create_object(TwoStage, node=2)
        thread = cluster.spawn(a, "stage", b, 0.5, 1000.0, at=0)
        cluster.run(until=0.2)
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.1)
        assert cluster.events.locator.hints[0].peek(thread.tid) == 1
        cluster.run(until=1.0)  # the thread migrates 1 -> 2
        assert thread.current_node == 2
        before = cluster.fabric.stats.snapshot()
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.2)
        delta = cluster.fabric.stats.delta_since(before)
        # Stale hint to node 1, then the notice itself chases the TCB
        # next_node pointer to node 2 — no fallback round.
        assert delta.get("type:locate.cached", 0) == 2
        assert delta.get("type:locate.path", 0) == 0
        assert cluster.metrics()["events.execute.delivered"] == 2
        # The chase refreshed the hints at origin and at the stale node.
        assert cluster.events.locator.hints[0].peek(thread.tid) == 2
        assert cluster.events.locator.hints[1].peek(thread.tid) == 2

    def test_fallback_base_strategy_is_configurable(self):
        cluster = make_cluster(n_nodes=6, locator="cached",
                               cache_fallback="broadcast")
        thread = self._held_thread(cluster, node=3)
        cluster.events.locator.hints[0].invalidate(thread.tid)
        before = cluster.fabric.stats.snapshot()
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.5)
        delta = cluster.fabric.stats.delta_since(before)
        assert delta.get("type:locate.bcast", 0) == 5
        assert cluster.metrics()["events.execute.delivered"] >= 1

    def test_dead_target_detected_and_notified(self):
        """§7.2 still holds behind the cache: posting to a dead thread
        fails over to the base strategy and raises TARGET_DEAD."""
        cluster = make_cluster(n_nodes=4, locator="cached")
        sleeper = cluster.create_object(Sleeper, node=2)
        victim = cluster.spawn(sleeper, "hold", 1000.0, at=0)
        cluster.run(until=0.5)
        cluster.raise_event("INTERRUPT", victim.tid, from_node=1)
        cluster.run(until=cluster.now + 0.2)  # hints now point at node 2
        cluster.raise_event("TERMINATE", victim.tid, from_node=0)
        cluster.run()
        assert victim.state == "terminated"
        for table in cluster.events.locator.hints.values():
            assert table.peek(victim.tid) is None
        future = cluster.raise_and_wait("INTERRUPT", victim.tid,
                                        from_node=1)
        cluster.run()
        with pytest.raises(DeadThreadError):
            future.result()
        assert cluster.metrics()["events.post.dead_targets"] >= 1

    def test_hint_table_is_bounded_lru(self):
        from repro.events.locate import LocationHintTable

        table = LocationHintTable(node_id=0, capacity=2)
        table.install("t1", 1)
        table.install("t2", 2)
        table.install("t3", 3)  # evicts t1
        assert table.peek("t1") is None
        assert table.peek("t2") == 2
        assert table.evictions == 1
        assert table.get("t2") == 2  # refreshes LRU order
        table.install("t4", 4)  # evicts t3, not t2
        assert table.peek("t3") is None
        assert table.peek("t2") == 2
        stats = table.stats()
        assert stats["size"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 0


class TestChasing:
    def test_notice_chases_moving_thread(self):
        """A thread that keeps migrating between nodes is still caught."""
        cluster = make_cluster(n_nodes=3, locator="path")

        class Bouncer(DistObject):
            @entry
            def bounce(self, ctx, other, rounds):
                for _ in range(rounds):
                    yield ctx.invoke(other, "quick")
                    yield ctx.sleep(0.002)
                yield ctx.sleep(100.0)
                return "settled"

            @entry
            def quick(self, ctx):
                yield ctx.compute(5e-4)
                return None

        a = cluster.create_object(Bouncer, node=1)
        b = cluster.create_object(Bouncer, node=2)
        thread = cluster.spawn(a, "bounce", b, 50, at=0)
        cluster.run(until=0.01)  # mid-bouncing
        assert thread.alive
        cluster.raise_event("TERMINATE", thread.tid, from_node=0)
        cluster.run()
        assert thread.state == "terminated"
