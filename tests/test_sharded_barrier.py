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
from importlib import import_module

import pytest

from repro.bench.scale import combine_digest, posts, run_posts, shard_posts
from repro.errors import NetworkError
from repro.events.block import EventBlock
from repro.kernel.config import (
    ClusterConfig,
    shard_bounds,
    shard_owner_map,
)
from repro.transport import sharded
from repro.transport.sharded import ShardContext, run_sharded

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: the scale post scenario on 8 nodes and 2 shards
N_NODES, SHARDS = 8, 2

#: small enough to keep each multi-process run under a second
SMALL = dict(posts_per_node=15)

#: posts 20 windows apart: most conservative windows are quiescent
SPARSE = dict(posts_per_node=10, interval=0.1)


def _sharded(args, **knobs):
    """The sharded cluster config of ``posts(N_NODES, **args)``."""
    return ClusterConfig(**posts(N_NODES, **args).config, **knobs,
                         transport="sharded", shard_count=SHARDS)


def audited_scenario(ctx):
    """``shard_posts`` that also reports the worker's own audit and
    open-post gauge: the conftest hook audits only the clusters a test
    builds in its own process."""
    finish = shard_posts(ctx)

    def audited():
        result = finish()
        result["audit"] = ctx.cluster.audit()
        result["open"] = ctx.cluster.metrics()["events.settle.open"]
        result["pending"] = ctx.cluster.sim.pending
        return result

    return audited


def lossy_audited_scenario(ctx):
    """``audited_scenario`` on which shard 0's fabric drops every
    message: each post shard 0 raises at another node is lost, on its
    own shard or across the barrier."""
    if ctx.shard_index == 0:
        ctx.cluster.fabric.faults.drop_rate = 1.0
    return audited_scenario(ctx)


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
    @pytest.mark.parametrize("args", [SMALL, SPARSE],
                             ids=["dense", "sparse"])
    def test_sharded_equals_sim_reference(self, args):
        report = run_sharded(_sharded(args), "repro.bench.scale:shard_posts",
                             scenario_args=args)
        reference = run_posts(N_NODES, **args)
        # the per-sink rows of every shard, merged, are exactly the
        # material the one-process run hashes
        merged = sorted(tuple(row) for result in report.shard_results
                        for row in result["sinks"])
        sha = hashlib.sha256(repr(merged).encode()).hexdigest()
        assert combine_digest([{"sha": sha}]) == reference["digest"]
        assert (sum(r["executed"] for r in report.shard_results)
                == reference["executed"]
                == N_NODES * args["posts_per_node"])
        every_window = math.ceil(
            report.virtual_time
            / posts(N_NODES, **args).config["link_latency"] - 1e-9)
        assert report.windows <= every_window
        if args is SPARSE:
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
            runs[method] = run_posts(N_NODES, SHARDS, **SMALL)
        assert runs["fork"]["digest"] == runs["spawn"]["digest"]
        assert runs["fork"]["windows"] == runs["spawn"]["windows"]


class TestBlockIds:
    @pytest.fixture
    def restored_counters(self, monkeypatch):
        """The process's id counters come back after the test."""
        for module_name, counter in sharded.PROCESS_COUNTERS:
            module = import_module(module_name)
            monkeypatch.setattr(module, counter, getattr(module, counter))

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_each_shard_numbers_blocks_in_its_own_residue_class(
            self, restored_counters, shards):
        for shard in range(shards):
            sharded._reset_process_counters(shard, shards)
            ids = [EventBlock("E").block_id for _ in range(4)]
            assert ids == [shard + 1 + shards * i for i in range(4)]


# ----------------------------------------------------------------------
# the standing invariant inside the shard workers
# ----------------------------------------------------------------------

class TestShardedAudit:
    @pytest.mark.skipif(not FORK_AVAILABLE,
                        reason="audited_scenario needs the inherited module")
    @pytest.mark.parametrize("durable", [False, True],
                             ids=["plain", "reliable+durable"])
    def test_every_worker_ends_with_no_open_post(self, durable):
        args = dict(SMALL, remote_fraction=0.5)
        report = run_sharded(
            _sharded(args, reliable_delivery=durable,
                     durable_delivery=durable),
            "tests.test_sharded_barrier:audited_scenario",
            scenario_args=args)
        assert report.cross_shard_messages > 0
        assert (sum(r["executed"] for r in report.shard_results)
                == N_NODES * args["posts_per_node"])
        for result in report.shard_results:
            assert result["pending"] == 0  # so the audit read the table
            assert result["audit"] == []
            assert result["open"] == 0

    @pytest.mark.skipif(not FORK_AVAILABLE,
                        reason="lossy_audited_scenario needs the inherited "
                               "module")
    def test_a_lost_cross_shard_post_is_open_on_its_raisers_shard(self):
        # A post is opened on the shard that raised it, wherever its
        # target lives, so shard 0's audit lists every post it raised at
        # another node: the ones to its own nodes and the ones that
        # never crossed the barrier. Shard 1's posts to shard 0 ran
        # there, and their conclusions came back with the barrier.
        args = dict(SMALL, remote_fraction=0.5)
        report = run_sharded(
            _sharded(args), "tests.test_sharded_barrier:lossy_audited_scenario",
            scenario_args=args)
        lo, hi = shard_bounds(N_NODES, SHARDS, 0)
        lost = sorted(target for grid in posts(N_NODES, **args).arrivals
                      if lo <= grid.node < hi
                      for target in grid.targets if target != grid.node)
        assert sum(target >= hi for target in lost) > 0  # cross-shard
        shard0, shard1 = report.shard_results
        assert shard0["pending"] == 0
        assert len(lost) == len(shard0["audit"]) == shard0["open"] == 34
        assert sorted(row.target.home for row in shard0["audit"]) == lost
        for row in shard0["audit"]:
            assert row.kind == "open at idle"
            assert row.stage == f"in flight to node {row.target.home}"
        assert shard1["audit"] == [] and shard1["open"] == 0


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
