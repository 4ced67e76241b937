#!/usr/bin/env python3
"""Quickstart: objects, threads, invocation and a first event.

Builds a 3-node cluster, creates a passive object on a remote node,
invokes it (the logical thread migrates there and back), then interrupts
a long-running thread with an asynchronous event.

Run:  python examples/quickstart.py
"""

from repro import Cluster, ClusterConfig, Decision, DistObject, entry


class Greeter(DistObject):
    """A passive object with two entry points."""

    @entry
    def greet(self, ctx, who):
        # ctx.compute burns virtual CPU time on this node
        yield ctx.compute(1e-4)
        return f"hello {who} (ran on node {ctx.node})"

    @entry
    def nap(self, ctx):
        """Sleeps until an INTERRUPT event wakes it."""

        def on_interrupt(hctx, block):
            # handler procedures travel in per-thread memory and run
            # wherever the thread is suspended
            hctx.attributes.per_thread_memory["woken"] = hctx.now
            yield hctx.compute(0)
            return Decision.RESUME

        yield ctx.attach_handler("INTERRUPT", on_interrupt)
        memory = ctx.attributes.per_thread_memory
        memory["woken"] = None
        while memory["woken"] is None:
            yield ctx.sleep(0.25)  # interruption points
        return memory["woken"]


def main() -> None:
    cluster = Cluster(ClusterConfig(n_nodes=3))

    # --- invocation: the same logical thread crosses machines -----------
    greeter = cluster.create_object(Greeter, node=2)
    thread = cluster.spawn(greeter, "greet", "world", at=0)
    cluster.run()
    print(thread.completion.result())
    print(f"virtual time: {cluster.now * 1e3:.3f} ms, "
          f"messages: {cluster.fabric.stats.sent}")

    # --- events: interrupt a sleeping thread ----------------------------
    sleeper = cluster.spawn(greeter, "nap", at=1)
    cluster.run(until=cluster.now + 1.0)        # let it settle into sleep
    cluster.raise_event("INTERRUPT", sleeper.tid, from_node=0)
    cluster.run()
    woken = sleeper.completion.result()
    print(f"sleeper woken by INTERRUPT at t={woken:.3f}s "
          f"(before its 5s nap ended: {cluster.now < 6.0})")


if __name__ == "__main__":
    main()
