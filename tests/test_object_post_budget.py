"""The scheduler-event budget of a post, counted exactly.

``scheduler_stats()["scheduled"]`` is every callback the simulator was
asked to run; its delta over a batch of posts is host-independent and
repeats exactly, so the numbers here are equalities, not floors. An
object post on the master handler thread is three events — arrive
(``Poster._handle_object_post``), the master's step that starts the
handler, and the handler's own ``compute`` — because the master is
handed its work and reports the handler's exit by direct call. The same
file pins the order those folded hops must keep: post *k* is concluded
before handler *k+1* runs its first statement.
"""

import pytest

from repro import Decision, DistObject, entry, on_event
from tests.conftest import make_cluster

N = 16


class Target(DistObject):
    def __init__(self):
        super().__init__()
        self.hits = 0

    @on_event("WORK")
    def on_work(self, ctx, block):
        self.hits += 1
        yield ctx.compute(1e-5)

    @on_event("NOP")
    def on_nop(self, ctx, block):
        self.hits += 1
        return
        yield  # a generator function that yields nothing


class Holder(DistObject):
    @entry
    def hold(self, ctx, seen):
        def on_work(hctx, block):
            yield hctx.compute(1e-5)
            seen.append(block.user_data)
            return Decision.RESUME

        yield ctx.attach_handler("WORK", on_work)
        yield ctx.sleep(100.0)


def _scheduled(cluster) -> int:
    return cluster.scheduler_stats()["scheduled"]


def _object_posts(event: str, home: int = 0, **config) -> int:
    """Scheduler events spent on N posts raised in one instant from
    node 0 at an object on ``home``, after one warm-up post (it creates
    the master handler thread)."""
    cluster = make_cluster(n_nodes=2, **config)
    for name in ("WORK", "NOP"):
        cluster.register_event(name)
    cap = cluster.create_object(Target, node=home)
    cluster.raise_event(event, cap, from_node=0)
    cluster.run(until=1.0)
    before = _scheduled(cluster)
    for _ in range(N):
        cluster.raise_event(event, cap, from_node=0)
    cluster.run(until=2.0)
    assert cluster.get_object(cap).hits == N + 1
    assert cluster.quiescent()
    return _scheduled(cluster) - before


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
class TestHomeNodePost:
    def test_master_thread_three_events_per_post(self, scheduler):
        assert _object_posts("WORK", scheduler=scheduler) == 3 * N

    def test_two_when_the_handler_yields_nothing(self, scheduler):
        assert _object_posts("NOP", scheduler=scheduler) == 2 * N

    def test_per_event_thread_pays_its_creation(self, scheduler):
        """E3's other mode adds the ``thread_create_cost`` timer; the
        one-shot thread's first step stands where the master's did."""
        per_event = dict(scheduler=scheduler, object_event_mode="per-event")
        assert _object_posts("WORK", **per_event) == 4 * N
        assert _object_posts("NOP", **per_event) == 3 * N


def test_remote_durable_post():
    """Sixteen journaled posts over the reliable channel, one instant:
    the receiving node spends the same three (two) per post, the rest
    is message transits, ack timers and one store.ack window for the
    batch — 88 and 72 while the master took its work and reported its
    exit through futures, i.e. two more per post."""
    assert _object_posts("WORK", home=1, durable_delivery=True) == 56
    assert _object_posts("NOP", home=1, durable_delivery=True) == 40


def test_thread_notice_costs_what_it_did():
    """The thread path is untouched: a tid notice with a one-handler
    chain is context switch + ``surrogate_cost`` timer + the handler's
    compute; a queue of them shares one suspension."""
    cluster = make_cluster(n_nodes=2)
    cluster.register_event("WORK")
    cap = cluster.create_object(Holder, node=0)
    seen = []
    thread = cluster.spawn(cap, "hold", seen, at=0)
    cluster.run(until=1.0)
    before = _scheduled(cluster)
    cluster.raise_event("WORK", thread.tid, from_node=0, user_data="one")
    cluster.run(until=2.0)
    assert _scheduled(cluster) - before == 3
    before = _scheduled(cluster)
    for k in range(N):
        cluster.raise_event("WORK", thread.tid, from_node=0, user_data=k)
    cluster.run(until=3.0)
    assert _scheduled(cluster) - before == 2 * N + 1
    assert seen == ["one", *range(N)]


# ----------------------------------------------------------------------
# the order the fold keeps
# ----------------------------------------------------------------------

class Ordered(DistObject):
    """Records, as each handler's first statement, how many earlier
    posts have concluded by then."""

    def __init__(self, concluded, log):
        super().__init__()
        self.concluded = concluded
        self.log = log

    @on_event("WORK")
    def on_work(self, ctx, block):
        self.log.append((block.user_data, self.concluded()))
        yield ctx.compute(1e-5)
        if block.user_data % 4 == 3:
            raise RuntimeError("poison pill")
        return block.user_data * 10


def test_post_k_concludes_before_handler_k_plus_one_starts():
    """Sixteen posts queued on the master in one instant run FIFO, and
    each is acked in the journal, its blocked raiser resumed, or
    dead-lettered before the next handler's first statement."""
    cluster = make_cluster(n_nodes=1, durable_delivery=True,
                           poison_threshold=1)
    cluster.register_event("WORK")
    raisers, log = [], []

    def concluded():
        stats = cluster.durability_stats()
        return (stats["delivered"] + stats.get("quarantined", 0),
                sum(future.done for future in raisers),
                len(cluster.dead_letters()))

    cap = cluster.create_object(Ordered, concluded, log, node=0)
    raisers += [cluster.raise_and_wait("WORK", cap, from_node=0, user_data=k)
                for k in range(N)]
    cluster.run(until=1.0)
    assert log == [(k, (k, k, k // 4)) for k in range(N)]
    assert [f.result() for f in raisers if not f.failed] == [
        k * 10 for k in range(N) if k % 4 != 3]
    assert cluster.durability_stats()["pending"] == 0
