"""Property-based tests for the invocation engine.

Random call trees over random placements must compute the right values,
leave no TCB/thread residue, and keep the per-node forwarding chains
consistent with the thread's actual frame stack at any quiescent point.
"""

from hypothesis import given, settings, strategies as st

from repro import DistObject, entry
from tests.conftest import make_cluster


class TreeNode(DistObject):
    """Evaluates arithmetic call trees by invoking child objects."""

    @entry
    def evaluate(self, ctx, tree, caps):
        """tree: int leaf, or ("add"|"mul", left, right, cap_index)."""
        if isinstance(tree, int):
            yield ctx.compute(1e-5)
            return tree
        op, left, right, index = tree
        left_value = yield ctx.invoke(caps[index % len(caps)], "evaluate",
                                      left, caps)
        right_value = yield ctx.invoke(caps[(index + 1) % len(caps)],
                                       "evaluate", right, caps)
        return (left_value + right_value if op == "add"
                else left_value * right_value)


def model_eval(tree):
    if isinstance(tree, int):
        return tree
    op, left, right, _ = tree
    a, b = model_eval(left), model_eval(right)
    return a + b if op == "add" else a * b


trees = st.recursive(
    st.integers(min_value=-5, max_value=5),
    lambda children: st.tuples(st.sampled_from(["add", "mul"]),
                               children, children,
                               st.integers(min_value=0, max_value=7)),
    max_leaves=8)


@settings(max_examples=30, deadline=None)
@given(tree=trees,
       n_nodes=st.integers(min_value=1, max_value=6),
       n_objects=st.integers(min_value=1, max_value=5))
def test_call_trees_compute_model_value(tree, n_nodes, n_objects):
    cluster = make_cluster(n_nodes=n_nodes)
    caps = [cluster.create_object(TreeNode, node=i % n_nodes)
            for i in range(n_objects)]
    thread = cluster.spawn(caps[0], "evaluate", tree, caps, at=0)
    cluster.run()
    assert thread.completion.result() == model_eval(tree)
    # no residue anywhere
    assert thread.tid not in cluster.live_threads
    for kernel in cluster.kernels.values():
        assert thread.tid not in kernel.thread_table


class Parker(DistObject):
    @entry
    def descend(self, ctx, caps, plan):
        if plan:
            result = yield ctx.invoke(caps[plan[0] % len(caps)], "descend",
                                      caps, plan[1:])
            return result
        yield ctx.sleep(1e6)
        return "deep"


@settings(max_examples=30, deadline=None)
@given(plan=st.lists(st.integers(min_value=0, max_value=9), max_size=8),
       n_nodes=st.integers(min_value=2, max_value=6))
def test_forwarding_chain_matches_frames(plan, n_nodes):
    """At quiescence, walking next_node pointers from the root reaches the
    innermost node, and frame counts per node match the stack."""
    cluster = make_cluster(n_nodes=n_nodes)
    caps = [cluster.create_object(Parker, node=(i % (n_nodes - 1)) + 1
                                  if n_nodes > 1 else 0)
            for i in range(6)]
    thread = cluster.spawn(caps[0], "descend", caps, plan, at=0)
    cluster.run(until=10.0)
    assert thread.alive

    # 1. TCB frame counts match *arrival episodes* per node: a TCB entry
    # is created per remote arrival; locally-nested frames share it.
    per_node: dict[int, int] = {thread.tid.root: 1}  # the root anchor
    previous = thread.tid.root
    for frame in thread.frames:
        if frame.node != previous:
            per_node[frame.node] = per_node.get(frame.node, 0) + 1
        previous = frame.node
    for node, kernel in cluster.kernels.items():
        tcb = kernel.thread_table.get(thread.tid)
        expected = per_node.get(node, 0)
        if expected == 0:
            assert tcb is None
        else:
            assert tcb is not None and tcb.frames == expected

    # 2. the forwarding walk terminates at the innermost node
    seen = set()
    node = thread.tid.root
    while True:
        assert node not in seen, "forwarding cycle"
        seen.add(node)
        tcb = cluster.kernels[node].thread_table.get(thread.tid)
        assert tcb is not None
        if tcb.innermost:
            assert node == thread.current_node
            break
        assert tcb.next_node is not None
        node = tcb.next_node
