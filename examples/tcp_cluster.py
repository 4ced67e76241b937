#!/usr/bin/env python3
"""A cluster on real TCP sockets: the stock stack off the simulator.

``ClusterConfig(transport="tcp")`` swaps the deterministic simulator
for loopback TCP connections and wall-clock timers — and *nothing
else*: the same reliable channels, durable outbox and supervision
stack run unchanged (the point of the transport port).  This example
turns the reliability knobs on and drives

1. a cross-node invocation (the logical thread migrates to node 2 and
   back over real sockets), and
2. a burst of durable object-directed events fanned across the nodes,

then prints the wire counters to show actual frames moved.

Run:  PYTHONPATH=src python examples/tcp_cluster.py
"""

import time

from repro import Cluster, ClusterConfig, DistObject, entry, on_event

PING = "PING"


class Counter(DistObject):
    """Counts PING events; also serves a plain invocation."""

    def __init__(self):
        super().__init__()
        self.pings = 0

    @entry
    def describe(self, ctx):
        yield ctx.compute(1e-4)
        return f"counter lives on node {ctx.node}"

    @on_event(PING)
    def on_ping(self, ctx, block):
        yield ctx.compute(1e-5)
        self.pings += 1


def run_until(cluster, predicate, budget=15.0, slice_=0.2):
    """Drive the wall-clock loop in slices until ``predicate()``."""
    deadline = time.perf_counter() + budget
    while not predicate():
        if time.perf_counter() >= deadline:
            raise TimeoutError("tcp example did not settle in time")
        cluster.run(until=cluster.now + slice_)


def main() -> None:
    cluster = Cluster(ClusterConfig(
        n_nodes=3, transport="tcp",
        reliable_delivery=True, durable_delivery=True,
        link_latency=1e-3, trace_net=False))
    try:
        cluster.register_event(PING)
        counters = [cluster.create_object(Counter, node=n)
                    for n in range(3)]

        # -- invocation over the wire ---------------------------------
        thread = cluster.spawn(counters[2], "describe", at=0)
        run_until(cluster, lambda: thread.completion.done)
        print(thread.completion.result())

        # -- durable events over the wire -----------------------------
        posts = 30
        for i in range(posts):
            cluster.raise_event(PING, counters[i % 3], from_node=(i + 1) % 3)
        objs = [cluster.get_object(cap) for cap in counters]
        # every handler ran *and* every origin heard so: the acks of a
        # burst travel together, one ack window after the last handler
        run_until(cluster, lambda: sum(o.pings for o in objs) >= posts
                  and cluster.durability_stats()["pending"] == 0)
        print(f"delivered {sum(o.pings for o in objs)} durable pings: "
              f"{[o.pings for o in objs]} per node")

        wire = cluster.transport_stats()
        store = cluster.durability_stats()
        print(f"wire: {wire['frames_sent']} frames / "
              f"{wire['bytes_sent']} bytes over {wire['attached']} "
              f"loopback sockets")
        print(f"durability: {store['commits']} journal commits, "
              f"{store['pending']} outbox entries left pending")
        assert store["pending"] == 0
    finally:
        cluster.close()


if __name__ == "__main__":
    main()
