"""Property-based tests: locators always find a live thread.

Random migration patterns, random posting nodes, each §7.1 strategy —
an asynchronously raised event must reach the thread (and never be
delivered twice for a single raise).
"""

from hypothesis import given, settings, strategies as st

from repro import Decision, DistObject, entry
from tests.conftest import make_cluster


class Wanderer(DistObject):
    @entry
    def wander(self, ctx, caps, plan, counter_key):
        """Visit objects per ``plan`` (indices into caps), then hold."""
        ctx.attributes.per_thread_memory[counter_key] = 0

        def on_poke(hctx, block):
            hctx.attributes.per_thread_memory[counter_key] += 1
            yield hctx.compute(0)
            return Decision.RESUME

        yield ctx.attach_handler("POKE", on_poke)
        yield from self._visit(ctx, caps, plan)
        yield ctx.sleep(1e6)
        return "held"

    def _visit(self, ctx, caps, plan):
        if plan:
            yield ctx.invoke(caps[plan[0]], "leg", caps, plan[1:])

    @entry
    def leg(self, ctx, caps, plan):
        if plan:
            result = yield ctx.invoke(caps[plan[0]], "leg", caps, plan[1:])
            return result
        yield ctx.sleep(1e6)
        return "deep"


@settings(max_examples=25, deadline=None)
@given(
    locator=st.sampled_from(["path", "broadcast", "multicast"]),
    n_nodes=st.integers(min_value=2, max_value=8),
    plan=st.lists(st.integers(min_value=0, max_value=7), max_size=6),
    post_from=st.integers(min_value=0, max_value=7),
    posts=st.integers(min_value=1, max_value=4),
)
def test_post_always_reaches_live_thread(locator, n_nodes, plan,
                                         post_from, posts):
    cluster = make_cluster(n_nodes=n_nodes, locator=locator)
    cluster.register_event("POKE")
    caps = [cluster.create_object(Wanderer, node=i % n_nodes)
            for i in range(8)]
    plan = [index % len(caps) for index in plan]
    thread = cluster.spawn(caps[0], "wander", caps, plan, "pokes", at=0)
    cluster.run(until=5.0)
    assert thread.alive
    for _ in range(posts):
        cluster.raise_event("POKE", thread.tid, from_node=post_from % n_nodes)
        cluster.run(until=cluster.now + 1.0)
    # exactly-once per raise: the handler bumped the counter `posts` times
    assert thread.attributes.per_thread_memory["pokes"] == posts
    assert thread.alive
