"""Tests for the sharded barrier: batched windows with quiescent
skip-ahead, the owner-map routing helper and worker teardown
diagnostics.

The load-bearing property is *observational purity*: what a sharded run
delivers, node by node and source by source, is what the single-process
``sim`` backend delivers for the same scenario — the barrier may only
change wall-clock and round-trip counts.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.bench.scale import (
    ScaleSpec,
    _scenario_args,
    combine_digest,
    posts_scenario,
    run_scale_local,
    run_scale_sharded,
    sink_cap,
)
from repro.errors import NetworkError
from repro.kernel.config import (
    ClusterConfig,
    shard_bounds,
    shard_owner_map,
)
from repro.transport import sharded
from repro.transport.sharded import ShardContext, run_sharded

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: small enough to keep each multi-process run under a second
SMALL = ScaleSpec(n_nodes=8, shard_count=2, posts_per_node=15)

#: posts 20 windows apart: most conservative windows are quiescent
SPARSE = ScaleSpec(n_nodes=8, shard_count=2, posts_per_node=10,
                   interval=0.1)


def outcome_scenario(ctx):
    """``posts_scenario`` that also reports each local sink's exact
    ``(node, seen, by_source)`` row, so shards can be merged into the
    single-process digest material."""
    finish = posts_scenario(ctx)

    def outcome():
        result = finish()
        result["outcome"] = []
        for node in ctx.local_nodes:
            sink = ctx.cluster.get_object(
                sink_cap(ctx.n_nodes, ctx.shard_count, node))
            result["outcome"].append(
                (node, sink.seen, sorted(sink.by_source.items())))
        return result

    return outcome


def audited_scenario(ctx):
    """``posts_scenario`` that also reports the worker's own audit and
    open-post gauge: the conftest hook audits only the clusters a test
    builds in its own process."""
    finish = posts_scenario(ctx)

    def audited():
        result = finish()
        result["audit"] = ctx.cluster.audit()
        result["open"] = ctx.cluster.metrics()["events.settle.open"]
        result["pending"] = ctx.cluster.sim.pending
        return result

    return audited


def dying_scenario(ctx):
    """Shard 1's worker dies silently mid-setup (teardown diagnostics)."""
    if ctx.shard_index == 1:
        os._exit(3)
    return lambda: {"raised": 0, "executed": 0, "per_node": {}, "sha": "0"}


def unencodable_scenario(ctx):
    """Shard 0 sends a payload the codec has no shape for to a node of
    shard 1: the window's batch cannot be encoded."""
    if ctx.shard_index == 0:
        from repro.net.message import Message
        ctx.cluster.fabric.send(Message(
            src=0, dst=ctx.n_nodes - 1, mtype="t.cross", payload={1j: 2}))
    return lambda: {}


# ----------------------------------------------------------------------
# owner map
# ----------------------------------------------------------------------

class TestOwnerMap:
    @pytest.mark.parametrize("n_nodes,shard_count",
                             [(1, 1), (8, 2), (10, 3), (128, 8)])
    def test_matches_shard_bounds(self, n_nodes, shard_count):
        owner = shard_owner_map(n_nodes, shard_count)
        assert sorted(owner) == list(range(n_nodes))
        for shard in range(shard_count):
            lo, hi = shard_bounds(n_nodes, shard_count, shard)
            for node in range(lo, hi):
                assert owner[node] == shard

    def test_owner_shard_uses_shared_map(self):
        ctx = ShardContext(cluster=None, shard_index=0, shard_count=3,
                           n_nodes=10, local_nodes=range(0, 4))
        assert ctx.owner_shard(0) == 0
        assert ctx.owner_shard(9) == 2
        # the map is built once and reused
        assert ctx._owner_map is not None
        assert ctx.owner_shard(5) == shard_owner_map(10, 3)[5]

    def test_owner_shard_rejects_unknown_node(self):
        ctx = ShardContext(cluster=None, shard_index=0, shard_count=2,
                           n_nodes=8, local_nodes=range(0, 4))
        with pytest.raises(NetworkError, match="outside the cluster"):
            ctx.owner_shard(8)


# ----------------------------------------------------------------------
# observational purity of the barrier (multi-process)
# ----------------------------------------------------------------------

class TestBarrierDeterminism:
    @pytest.mark.skipif(not FORK_AVAILABLE,
                        reason="outcome_scenario needs the inherited module")
    @pytest.mark.parametrize("spec", [SMALL, SPARSE],
                             ids=["dense", "sparse"])
    def test_sharded_equals_sim_reference(self, spec):
        report = run_sharded(
            spec.cluster_config(transport="sharded",
                                shard_count=spec.shard_count),
            "tests.test_sharded_barrier:outcome_scenario",
            scenario_args=_scenario_args(spec))
        reference = run_scale_local(replace(spec, shard_count=1))
        # the per-node rows of every shard, merged, are exactly the
        # material the one-process run hashes
        merged = sorted(row for result in report.shard_results
                        for row in result["outcome"])
        sha = hashlib.sha256(repr(merged).encode()).hexdigest()
        assert combine_digest([{"sha": sha}]) == reference["digest"]
        assert (sum(r["executed"] for r in report.shard_results)
                == reference["executed"] == spec.total_posts)
        every_window = math.ceil(
            report.virtual_time
            / spec.cluster_config().link_latency - 1e-9)
        assert report.windows <= every_window
        if spec is SPARSE:
            # quiescent windows were skipped, not barriered
            assert report.windows < every_window

    @pytest.mark.skipif(not FORK_AVAILABLE,
                        reason="fork start method unavailable")
    def test_fork_vs_spawn_digest_identical(self, monkeypatch):
        # _start_method guards _reset_process_counters: a forked worker
        # must allocate the ids a freshly imported one does
        runs = {}
        for method in ("fork", "spawn"):
            monkeypatch.setattr(sharded, "_start_method", lambda m=method: m)
            runs[method] = run_scale_sharded(SMALL)
        assert runs["fork"]["digest"] == runs["spawn"]["digest"]
        assert runs["fork"]["windows"] == runs["spawn"]["windows"]


# ----------------------------------------------------------------------
# the standing invariant inside the shard workers
# ----------------------------------------------------------------------

class TestShardedAudit:
    @pytest.mark.skipif(not FORK_AVAILABLE,
                        reason="audited_scenario needs the inherited module")
    @pytest.mark.parametrize("durable", [False, True],
                             ids=["plain", "reliable+durable"])
    def test_every_worker_ends_with_no_open_post(self, durable):
        spec = replace(SMALL, remote_fraction=0.5, config={
            "reliable_delivery": durable, "durable_delivery": durable})
        report = run_sharded(
            spec.cluster_config(transport="sharded",
                                shard_count=spec.shard_count),
            "tests.test_sharded_barrier:audited_scenario",
            scenario_args=_scenario_args(spec))
        assert report.cross_shard_messages > 0
        assert (sum(r["executed"] for r in report.shard_results)
                == spec.total_posts)
        for result in report.shard_results:
            assert result["pending"] == 0  # so the audit read the table
            assert result["audit"] == []
            assert result["open"] == 0


# ----------------------------------------------------------------------
# worker teardown diagnostics
# ----------------------------------------------------------------------

class TestWorkerTeardown:
    @pytest.mark.skipif(not FORK_AVAILABLE,
                        reason="dying_scenario needs the inherited module")
    def test_dead_worker_raises_clear_error(self):
        config = ClusterConfig(n_nodes=4, transport="sharded",
                               shard_count=2)
        with pytest.raises(NetworkError,
                           match=r"shard 1 .*(died|failed|exited)"):
            run_sharded(config, "tests.test_sharded_barrier:dying_scenario",
                        scenario_args={})

    @pytest.mark.skipif(not FORK_AVAILABLE,
                        reason="unencodable_scenario needs the inherited "
                               "module")
    def test_unencodable_cross_shard_payload_fails_the_run(self):
        config = ClusterConfig(n_nodes=4, transport="sharded",
                               shard_count=2)
        with pytest.raises(
                NetworkError,
                match=r"(?s)shard 0 failed.*CodecError: t\.cross: "
                      r".*builtins\.complex"):
            run_sharded(config,
                        "tests.test_sharded_barrier:unencodable_scenario",
                        scenario_args={})
