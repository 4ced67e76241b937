"""Cooperative parallel search with partial-result notification (§1).

The paper's introduction motivates the facility with exactly this
pattern: "an important distributed programming technique involves
starting up multiple processes (or threads) to perform a task
(concurrently) and then asynchronously notify each other of partial
results obtained (unexpected discoveries, quicker heuristic searches,
etc.). A generalized notification scheme is useful in implementing such
algorithms."

Here: a branch-and-bound minimisation. Workers each own a slice of the
candidate space. Whenever a worker improves the global best, it raises a
``BOUND`` user event to the application's thread group; every member's
handler tightens its local bound (kept in per-thread memory), letting it
prune candidates whose lower bound cannot beat it. Disabling notification
(the ablation in ``benchmarks/bench_a1_ablations.py``) makes every worker
prune only on its own discoveries — measurably more work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.objects.base import DistObject, entry
from repro.sim.rng import RngRegistry

#: the user event carrying an improved bound
BOUND_EVENT = "BOUND"


@dataclass(frozen=True)
class Candidate:
    """One point of the search space.

    ``lower_bound`` is what a worker can tell cheaply; ``value`` is the
    true cost, discovered only by paying ``explore_cost``.
    """

    lower_bound: float
    value: float


def generate_candidates(seed: int, total: int,
                        optimum_at: float = 0.35) -> list[Candidate]:
    """A reproducible search space with one sharp optimum.

    Values are drawn uniformly; one candidate (at the given relative
    position) is far better than the rest, so whichever worker owns it
    can prune everyone else's work — *if* they hear about it.
    """
    rng = RngRegistry(seed).stream("search-space")
    candidates = []
    for _ in range(total):
        value = rng.uniform(50.0, 100.0)
        slack = rng.uniform(0.0, 10.0)
        candidates.append(Candidate(lower_bound=value - slack, value=value))
    sharp_index = int(total * optimum_at) % total
    candidates[sharp_index] = Candidate(lower_bound=1.0, value=1.5)
    return candidates


class SearchCoordinator(DistObject):
    """Collects per-worker statistics and the final answer."""

    def __init__(self):
        super().__init__()
        self.reports: list[dict] = []

    @entry
    def report(self, ctx, worker_label, best, explored, pruned):
        yield ctx.compute(1e-6)
        self.reports.append({"worker": worker_label, "best": best,
                             "explored": explored, "pruned": pruned})

    @entry
    def summary(self, ctx):
        yield ctx.compute(0)
        if not self.reports:
            return None
        return {
            "best": min(r["best"] for r in self.reports),
            "explored": sum(r["explored"] for r in self.reports),
            "pruned": sum(r["pruned"] for r in self.reports),
            "workers": len(self.reports),
        }


class SearchWorker(DistObject):
    """Explores a slice of candidates, sharing improved bounds by event."""

    @entry
    def search(self, ctx, coordinator_cap, label, candidates,
               explore_cost=1e-3, notify=True):
        memory = ctx.attributes.per_thread_memory
        memory["bound"] = math.inf

        def on_bound(hctx, block):
            incoming = block.user_data
            mem = hctx.attributes.per_thread_memory
            if incoming < mem.get("bound", math.inf):
                mem["bound"] = incoming
            yield hctx.compute(0)

        yield ctx.attach_handler(BOUND_EVENT, on_bound)
        explored = pruned = 0
        best_here = math.inf
        for candidate in candidates:
            bound = min(memory["bound"], best_here)
            if candidate.lower_bound >= bound:
                pruned += 1
                continue
            yield ctx.compute(explore_cost)  # also an interruption point
            explored += 1
            if candidate.value < best_here:
                best_here = candidate.value
                if notify and candidate.value < memory["bound"]:
                    memory["bound"] = candidate.value
                    gid = ctx.gid
                    if gid is not None:
                        yield ctx.raise_event(BOUND_EVENT, gid,
                                              user_data=candidate.value)
        yield ctx.invoke(coordinator_cap, "report", label,
                         best_here, explored, pruned)
        return best_here


@dataclass
class SearchRunResult:
    best: float
    explored: int
    pruned: int
    virtual_time: float
    events_raised: int


def run_search(cluster, workers: int = 4, space: int = 400,
               seed: int = 7, notify: bool = True,
               explore_cost: float = 1e-3) -> SearchRunResult:
    """Build and run the cooperative search on an existing cluster."""
    if not cluster.names.event_exists(BOUND_EVENT):
        cluster.register_event(BOUND_EVENT)
    coordinator = cluster.create_object(SearchCoordinator, node=0)
    worker_obj = cluster.create_object(SearchWorker, node=1)
    candidates = generate_candidates(seed, space)
    slice_size = -(-len(candidates) // workers)
    gid = cluster.new_group()
    threads = []
    n = cluster.config.n_nodes
    before_posts = cluster.metrics()["events.route.posts"]
    for i in range(workers):
        chunk = candidates[i * slice_size:(i + 1) * slice_size]
        threads.append(cluster.spawn(
            worker_obj, "search", coordinator, f"w{i}", chunk,
            explore_cost, notify, at=i % n, group=gid))
    cluster.run()
    probe = cluster.spawn(coordinator, "summary", at=0)
    cluster.run()
    summary = probe.completion.result()
    raised = cluster.metrics()["events.route.posts"] - before_posts
    return SearchRunResult(best=summary["best"],
                           explored=summary["explored"],
                           pruned=summary["pruned"],
                           virtual_time=cluster.now,
                           events_raised=raised)
