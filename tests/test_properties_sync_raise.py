"""Property-based tests for synchronous raising and surrogate identity.

Random group sizes, placements and handler service times: a
``raise_and_wait`` to a group must collect exactly one value per member,
block for at least the slowest member's service time, and never hang.
Handlers must always observe the *target's* identity (impersonation).
"""

from hypothesis import given, settings, strategies as st

from repro import Decision, DistObject, entry
from tests.conftest import make_cluster


class Member(DistObject):
    @entry
    def wait_for_ping(self, ctx, label, service):
        def handler(hctx, block):
            yield hctx.sleep(service)
            # identity seen by the handler == the suspended thread's
            assert hctx.tid == ctx.tid
            assert hctx.real_tid != hctx.tid  # a surrogate ran this
            return (Decision.RESUME, (label, str(hctx.tid)))

        yield ctx.attach_handler("PING", handler)
        yield ctx.sleep(1e6)


@settings(max_examples=25, deadline=None)
@given(
    members=st.integers(min_value=1, max_value=6),
    n_nodes=st.integers(min_value=2, max_value=5),
    services=st.lists(st.floats(min_value=0.0, max_value=0.2,
                                allow_nan=False), min_size=6, max_size=6),
    raise_from=st.integers(min_value=0, max_value=4),
)
def test_group_sync_raise_collects_every_member(members, n_nodes,
                                                services, raise_from):
    cluster = make_cluster(n_nodes=n_nodes)
    cluster.register_event("PING")
    obj = cluster.create_object(Member, node=1 % n_nodes)
    gid = cluster.new_group()
    tids = []
    for i in range(members):
        thread = cluster.spawn(obj, "wait_for_ping", f"m{i}",
                               services[i], at=i % n_nodes, group=gid)
        tids.append(str(thread.tid))
    cluster.run(until=1.0)
    start = cluster.now
    future = cluster.raise_and_wait("PING", gid,
                                    from_node=raise_from % n_nodes)
    cluster.run(until=start + 60.0)
    values = future.result()
    # exactly one value per member, each from the right thread
    assert len(values) == members
    assert sorted(label for label, _ in values) == \
        sorted(f"m{i}" for i in range(members))
    assert sorted(tid for _, tid in values) == sorted(tids)
    # the raiser blocked at least as long as the slowest handler
    assert future.done
    # every member survived (handlers resumed them)
    for tid in tids:
        from repro.threads.ids import ThreadId

        assert ThreadId.parse(tid) in cluster.live_threads


@settings(max_examples=20, deadline=None)
@given(service=st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
def test_sync_window_tracks_service_time(service):
    cluster = make_cluster(n_nodes=3)
    cluster.register_event("PING")
    obj = cluster.create_object(Member, node=1)
    thread = cluster.spawn(obj, "wait_for_ping", "x", service, at=2)
    cluster.run(until=1.0)
    start = cluster.now
    future = cluster.raise_and_wait("PING", thread.tid, from_node=0)
    cluster.run(until=start + service + 10.0)
    assert future.done
    # the raiser could not have been resumed before the handler slept
    label, tid = future.result()
    assert label == "x"
