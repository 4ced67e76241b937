#!/usr/bin/env python3
"""Thread location strategies head to head (§7.1 of the paper).

A thread migrates deep into a 16-node cluster; an event is posted to it
under each of the four locator strategies. The message counts make the
paper's argument concrete: broadcast pays O(n) per post, path-following
pays one message per migration hop, multicast pays per group member —
and the hint cache pays one message once it knows where the thread is.

Run:  python examples/locate_strategies.py
"""

from repro import Cluster, ClusterConfig
from repro.bench.workloads import deep_thread


def main() -> None:
    n_nodes, depth, posts = 16, 5, 10
    print(f"cluster: {n_nodes} nodes; thread migrated {depth} hops; "
          f"{posts} event posts\n")
    print(f"{'locator':<10} {'msgs/post':>10} {'latency/post (ms)':>18}")
    for locator in ("broadcast", "path", "multicast", "cached"):
        cluster = Cluster(ClusterConfig(n_nodes=n_nodes, locator=locator))
        thread = deep_thread(cluster, depth=depth)
        before = cluster.fabric.stats.sent
        for _ in range(posts):
            cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
            cluster.run(until=cluster.now + 0.2)
        msgs = (cluster.fabric.stats.sent - before) / posts
        samples = cluster.events.delivery_latencies.last(posts)
        latency = sum(l for _, l in samples) / len(samples)
        print(f"{locator:<10} {msgs:>10.1f} {latency * 1e3:>18.2f}")
    print("\nbroadcast scales with cluster size (wasteful, §7.1); "
          "path with migration depth; multicast with group membership; "
          "cached amortises to one direct message per post.")


if __name__ == "__main__":
    main()
