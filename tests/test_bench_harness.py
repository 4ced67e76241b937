"""Tests for the benchmark harness, workloads and experiment plumbing."""

import json

import pytest

from repro import Cluster, ClusterConfig
from repro.bench.experiments import object_storm
from repro.bench.harness import Result, Table, ratio
from repro.bench.scenario import run_scenario
from repro.bench.workloads import (
    ctrl_c_app,
    deep_thread,
    lock_chain,
    transport_workload,
)
from repro.errors import BenchmarkError
from repro.net import Message, MatrixLatency


class TestTable:
    def test_add_and_column(self):
        table = Table(title="t", columns=["a", "b"])
        table.add(1, "x")
        table.add(2, "y")
        assert table.column("a") == [1, 2]
        assert table.column("b") == ["x", "y"]

    def test_row_arity_checked(self):
        table = Table(title="t", columns=["a", "b"])
        with pytest.raises(BenchmarkError):
            table.add(1)

    def test_unknown_column(self):
        table = Table(title="t", columns=["a"])
        with pytest.raises(BenchmarkError):
            table.column("zzz")

    def test_render_contains_everything(self):
        table = Table(title="demo", columns=["k", "v"])
        table.add("alpha", 3.14159)
        table.note("a note")
        text = table.render()
        assert "demo" in text
        assert "alpha" in text
        assert "3.14159" in text
        assert "note: a note" in text

    def test_render_empty_table(self):
        table = Table(title="empty", columns=["only"])
        assert "only" in table.render()

    def test_ratio(self):
        assert ratio(6, 3) == 2
        assert ratio(1, 0) == float("inf")

    def test_dicts(self):
        table = Table(title="t", columns=["a", "b"])
        table.add(1, "x")
        assert table.dicts() == [{"a": 1, "b": "x"}]


class TestWorkloadBuilders:
    def test_deep_thread_depth(self):
        cluster = Cluster(ClusterConfig(n_nodes=5))
        thread = deep_thread(cluster, depth=3)
        assert thread.alive
        assert len(thread.frames) == 3
        assert thread.current_node != 0

    def test_object_event_storm_counts(self):
        cluster = run_scenario(object_storm("master", events=7)).cluster
        assert cluster.kernels[1].objects.events_served == 7

    def test_lock_chain_rig(self):
        rig = lock_chain(locks=3)
        manager = rig.cluster.get_object(rig.manager_cap)
        assert manager.acquires == 3
        assert len(rig.thread.attributes.handlers_for("TERMINATE")) == 3

    def test_ctrl_c_rig_group(self):
        rig = ctrl_c_app(workers=2, n_nodes=4)
        assert len(rig.cluster.groups.members(rig.gid)) == 3

    def test_transport_workload_shapes(self):
        run = transport_workload("rpc", workers=2, rounds=2)
        assert set(run.per_thread_traces) == {"w0", "w1"}
        assert run.final_total >= 2


class TestMatrixLatency:
    def test_explicit_link_and_default(self):
        model = MatrixLatency(default=0.5)
        model.set_link(0, 1, 0.1)
        msg = Message(src=0, dst=1, mtype="x")
        assert model.delay(0, 1, msg) == 0.1
        assert model.delay(1, 0, msg) == 0.1  # symmetric
        assert model.delay(0, 2, msg) == 0.5  # default
        assert model.delay(2, 2, msg) == model.local

    def test_asymmetric_link(self):
        model = MatrixLatency()
        model.set_link(0, 1, 0.2, symmetric=False)
        msg = Message(src=0, dst=1, mtype="x")
        assert model.delay(0, 1, msg) == 0.2
        assert model.delay(1, 0, msg) == model.default

    def test_negative_rejected(self):
        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            MatrixLatency(default=-1.0)
        model = MatrixLatency()
        with pytest.raises(NetworkError):
            model.set_link(0, 1, -0.1)

    def test_rack_topology_affects_invocation_time(self):
        """Two racks: cross-rack invocations pay the uplink."""
        from repro import Cluster, ClusterConfig
        from tests.conftest import Echo

        model = MatrixLatency(default=1e-4)   # fast intra-rack default
        for a in (0, 1):
            for b in (2, 3):
                model.set_link(a, b, 5e-3)    # slow uplink
        cluster = Cluster(ClusterConfig(n_nodes=4, thread_create_cost=0),
                          latency=model)
        near = cluster.create_object(Echo, node=1)
        far = cluster.create_object(Echo, node=3)
        cluster.spawn(near, "echo", 1, at=0)
        cluster.run()
        near_time = cluster.now
        cluster.spawn(far, "echo", 1, at=0)
        cluster.run()
        far_time = cluster.now - near_time
        assert far_time > 5 * near_time


class TestExperimentSmoke:
    """The ``python -m repro.bench`` CLI end to end; the experiments
    themselves are run and checked by ``tests/test_experiments.py``."""

    def test_main_module_subset(self, capsys):
        from repro.bench.__main__ import main

        assert main(["e4"]) == 0
        assert "TERMINATE-chained" in capsys.readouterr().out
        assert main(["nope"]) == 2
        assert main(["report", "e4"]) == 0
        assert "measured at" in capsys.readouterr().out


class TestLedgerWriter:
    def test_re_recording_keeps_the_committed_host_and_wall(
            self, tmp_path, monkeypatch):
        """``--write`` rewrites the deterministic sections, never the
        reference the wall floors compare with."""
        from repro.bench import harness
        from repro.bench.experiments import ALL_EXPERIMENTS

        committed = (harness.RESULTS_DIR / "e12.json").read_text(
            encoding="utf-8")
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        (tmp_path / "e12.json").write_text(committed, encoding="utf-8")
        old = harness.read_ledger("e12")
        # what one fresh reading on a faster host looks like
        fresh = Result(Table(title="t", columns=["a"]), wall={
            **{key: value * 2 for key, value in old["full"]["wall"].items()},
            "new.key": 1})
        harness.write_ledger("e12", ALL_EXPERIMENTS["e12"], fresh,
                             Result(Table(title="t", columns=["a"])))
        new = harness.read_ledger("e12")
        assert json.dumps(new["host"]) == json.dumps(old["host"])
        assert json.dumps(new["full"]["wall"]) == json.dumps(
            {**old["full"]["wall"], "new.key": 1})
