"""A compute chain across the sharded backend's window boundaries.

Each shard runs its window as ``run(until=window_end)``, and a folded
``compute`` wake-up moves the clock only as far as the running drain's
``until``: a handler whose compute ends past the window's end is woken
by a scheduled callback in the next window, after the barrier has
injected that window's arrivals. A fold that carried a shard past its
window end would make those arrivals land in the shard's past (the
injection raises). Here handlers on a ring of four nodes, two per
shard, compute in steps that straddle the 5 ms windows and post to the
next node when done, and posts from the other shard arrive inside such
a compute; every node's log of ``(virtual time, chain, hop, step)``
must be the same on ``sharded`` as on one ``sim`` process, folded or
hopped.
"""

import hashlib
from functools import partial
from unittest import mock

from repro import Cluster, ClusterConfig, DistObject, on_event
from repro.kernel.config import shard_bounds
from repro.objects.capability import Capability
from repro.sim import Simulator
from repro.transport.sharded import ShardContext, run_sharded

N_NODES, SHARDS = 4, 2
#: the cross-node latency, which is also the sharded window
LATENCY = 5e-3
#: each handler's computes: 6.9 ms in all, so every handler run crosses
#: at least one window boundary, and some cross two
STEPS = (2.3e-3, 2.3e-3, 2.3e-3)
#: handler runs per chain, one per node it visits
HOPS = 9
#: chain -> (its first node and) its start: one chain per shard, the
#: second after the first has ended, so most computes are the only work
#: due by their end and fold on ``sim``
STARTS = {0: 0.7e-3, 2: 0.15}
#: one-handler posts ``(from, to, at)`` across shards, timed to arrive
#: inside a chain handler's compute that crosses a window end: chain 0's
#: first run computes from 0.7 ms to 3.0, 5.3 and 7.6 ms, and the first
#: poke arrives at 5.1 ms, in the window after the one it was sent in
POKES = ((2, 1, 0.1e-3), (3, 0, 21.0e-3), (0, 3, 0.153))


class ChainSink(DistObject):
    """Computes ``STEPS``, logging each step's end, then posts the chain
    on to the next node on the ring."""

    def __init__(self, cluster, shard_count):
        super().__init__()
        self._cluster = cluster
        self._shard_count = shard_count
        self.records = []

    @on_event("CHAIN")
    def on_chain(self, ctx, block):
        chain, hop = block.user_data
        for step, seconds in enumerate(STEPS):
            yield ctx.compute(seconds)
            self.records.append((round(ctx.now, 9), chain, hop, step))
        if hop + 1 < HOPS:
            nxt = _sink_cap((ctx.node + 1) % N_NODES, self._shard_count)
            self._cluster.raise_event("CHAIN", nxt, from_node=ctx.node,
                                      user_data=(chain, hop + 1))


def _sink_cap(node: int, shard_count: int) -> Capability:
    """Each shard creates one sink per local node first, in node order,
    with oids counted from 1."""
    for shard in range(shard_count):
        lo, hi = shard_bounds(N_NODES, shard_count, shard)
        if lo <= node < hi:
            return Capability(oid=node - lo + 1, home=node, transport="rpc",
                              cls_name="ChainSink")
    raise ValueError(node)


def ring_scenario(ctx):
    """The chains of ``STARTS``, each raised on its first node, and the
    ``POKES``."""
    cluster = ctx.cluster
    cluster.register_event("CHAIN")
    sinks = {}
    for node in ctx.local_nodes:
        cap = cluster.create_object(ChainSink, cluster, ctx.shard_count,
                                    node=node)
        assert cap == _sink_cap(node, ctx.shard_count)
        sinks[node] = cluster.get_object(cap)
    posts = [(node, node, start, (node, 0)) for node, start in STARTS.items()]
    posts += [(src, dst, at, (-1 - pos, HOPS - 1))
              for pos, (src, dst, at) in enumerate(POKES)]
    for src, dst, at, user_data in posts:
        if src in ctx.local_nodes:
            cluster.sim.call_at(at, partial(
                cluster.raise_event, "CHAIN", _sink_cap(dst, ctx.shard_count),
                from_node=src, user_data=user_data))

    def finish():
        return {node: hashlib.sha256(repr(sinks[node].records).encode())
                .hexdigest() for node in ctx.local_nodes} | {
            "steps": sum(len(sink.records) for sink in sinks.values()),
            "crossings": sum(
                int(a[0] // LATENCY) != int(b[0] // LATENCY)
                for sink in sinks.values()
                for a, b in zip(sink.records, sink.records[1:])
                if a[1:3] == b[1:3])}

    return finish


def _config(**backend):
    return {"n_nodes": N_NODES, "link_latency": LATENCY, **backend}


def _sim_digests():
    cluster = Cluster(ClusterConfig(**_config()))
    ctx = ShardContext(cluster=cluster, shard_index=0, shard_count=1,
                       n_nodes=N_NODES, local_nodes=range(N_NODES))
    finish = ring_scenario(ctx)
    cluster.run(max_events=100_000)
    return finish(), cluster.scheduler_stats()["scheduled"]


def test_a_compute_chain_across_windows_matches_one_process():
    folded, folded_scheduled = _sim_digests()
    with mock.patch.object(Simulator, "advance_to", lambda self, when: False):
        hopped, hopped_scheduled = _sim_digests()
    assert folded == hopped
    assert folded_scheduled < hopped_scheduled  # the computes did fold
    assert folded["steps"] == (len(STARTS) * HOPS + len(POKES)) * len(STEPS)
    assert folded["crossings"] > 0
    report = run_sharded(
        ClusterConfig(**_config(transport="sharded", shard_count=SHARDS)),
        f"{__name__}:ring_scenario")
    sharded = {}
    for result in report.shard_results:
        for key, value in result.items():
            sharded[key] = sharded.get(key, 0) + value if key in (
                "steps", "crossings") else value
    assert sharded == folded
    assert report.cross_shard_messages > 0
