#!/usr/bin/env python3
"""Cooperative parallel search (§1 of the paper).

Four workers minimise over a shared candidate space; one slice hides a
sharp optimum. With notification ON, the lucky worker raises a BOUND
event to the thread group the moment it finds it, and everyone else
prunes aggressively. With notification OFF, each worker only prunes on
its own discoveries. The explored-candidate counts show what the paper's
"asynchronously notify each other of partial results" buys.

Run:  python examples/parallel_search.py
"""

from repro import Cluster, ClusterConfig
from repro.apps.search import run_search


def main() -> None:
    print(f"{'mode':<14} {'best':>6} {'explored':>9} {'pruned':>7} "
          f"{'events':>7} {'vtime (ms)':>11}")
    for notify in (True, False):
        cluster = Cluster(ClusterConfig(n_nodes=4))
        result = run_search(cluster, workers=4, space=400, seed=7,
                            notify=notify)
        mode = "notify" if notify else "no-notify"
        print(f"{mode:<14} {result.best:>6.2f} {result.explored:>9} "
              f"{result.pruned:>7} {result.events_raised:>7} "
              f"{result.virtual_time * 1e3:>11.1f}")
    print("\nwith BOUND events, workers prune most of the space the "
          "moment one of them finds the sharp optimum.")


if __name__ == "__main__":
    main()
