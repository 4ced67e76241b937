"""Determinism: identical configurations produce identical executions.

The whole experiment suite rests on this — message counts and virtual
latencies must be exact, not averages over nondeterministic runs.
"""

from repro import Cluster, ClusterConfig
from repro.apps import run_pager_workload
from repro.apps.search import run_search
from repro.bench.workloads import bouncing_thread, ctrl_c_app
from repro.apps.termination import press_ctrl_c


def _ctrl_c_fingerprint(seed):
    rig = ctrl_c_app(workers=4, n_nodes=6)
    cluster = rig.cluster
    press_ctrl_c(cluster, rig.root.tid)
    cluster.run()
    return (cluster.now, cluster.fabric.stats.snapshot(),
            cluster.tracer.signature())


def _search_fingerprint(seed, notify=True):
    cluster = Cluster(ClusterConfig(n_nodes=4, seed=seed))
    result = run_search(cluster, workers=4, space=200, seed=seed,
                        notify=notify)
    return (result.best, result.explored, result.pruned,
            result.virtual_time, cluster.fabric.stats.snapshot())


def _cached_locator_fingerprint(seed):
    """Hint-cache maintenance, chasing and fallback under a migrating
    target — the cached locator must not break bit-identical replay."""
    cluster = Cluster(ClusterConfig(n_nodes=6, seed=seed, locator="cached"))
    thread = bouncing_thread(cluster, dwell=0.05, nodes=(1, 2))
    for _ in range(8):
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=cluster.now + 0.03)
    cluster.raise_event("TERMINATE", thread.tid, from_node=3)
    cluster.run()
    hint_stats = {node: table.stats()
                  for node, table in cluster.events.locator.hints.items()}
    return (cluster.now, cluster.fabric.stats.snapshot(),
            cluster.tracer.signature(), hint_stats,
            cluster.events.delivery_latencies.summary())


def _pager_fingerprint(seed):
    cluster = Cluster(ClusterConfig(n_nodes=4, seed=seed))
    result = run_pager_workload(cluster, faulters=3, keys_per_thread=2,
                                writes=2, private_copies=True)
    return (result.vm_faults, result.page_transfers, result.merged_pages,
            result.virtual_time, cluster.fabric.stats.snapshot())


class TestDeterminism:
    def test_ctrl_c_run_is_bit_identical(self):
        assert _ctrl_c_fingerprint(0) == _ctrl_c_fingerprint(0)

    def test_search_run_is_bit_identical(self):
        assert _search_fingerprint(7) == _search_fingerprint(7)

    def test_pager_run_is_bit_identical(self):
        assert _pager_fingerprint(3) == _pager_fingerprint(3)

    def test_cached_locator_run_is_bit_identical(self):
        assert _cached_locator_fingerprint(11) == _cached_locator_fingerprint(11)

    def test_different_search_seeds_differ(self):
        # the candidate space is seeded: different seeds, different work
        a = _search_fingerprint(1)
        b = _search_fingerprint(2)
        assert a != b

    def test_trace_signature_stable_across_runs(self):
        def run():
            cluster = Cluster(ClusterConfig(n_nodes=3, seed=5))
            from tests.conftest import Echo
            cap = cluster.create_object(Echo, node=2)
            cluster.spawn(cap, "echo", 42, at=0)
            cluster.run()
            return cluster.tracer.signature()

        assert run() == run()

    def test_experiment_tables_reproducible(self):
        from repro.bench.experiments import run_e4

        first = run_e4(lock_counts=(1, 4)).table.rows
        second = run_e4(lock_counts=(1, 4)).table.rows
        assert first == second
