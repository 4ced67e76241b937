"""Integration tests for the §6 applications: distributed ^C, monitoring,
scoped exception handling, and the pager workload."""

import pytest

from repro import DistObject, entry, on_event
from repro.apps import (
    install_ctrl_c,
    invoke_guarded,
    press_ctrl_c,
    repairing,
    run_pager_workload,
    termination_report,
)
from repro.locks import LockManager
from repro.monitor import MonitorServer, install_monitor
from tests.conftest import make_cluster


class CleanupAware(DistObject):
    """An object that records ABORT notifications (application cleanup)."""

    def __init__(self):
        super().__init__()
        self.aborted_tids = []

    @on_event("ABORT")
    def on_abort(self, ctx, block):
        yield ctx.compute(1e-5)
        data = block.user_data or {}
        self.aborted_tids.append(str(data.get("tid")))


class CtrlCApp(CleanupAware):
    """The §6.3 application shape: a root that fans out workers."""

    @entry
    def main(self, ctx, worker_cap, mgr_cap, n_workers):
        yield from install_ctrl_c(ctx)
        for i in range(n_workers):
            yield ctx.invoke_async(worker_cap, "work", mgr_cap,
                                   f"lock-{i}", claimable=False)
        yield ctx.sleep(10_000.0)
        return "never"

    @entry
    def work(self, ctx, mgr_cap, lock_name):
        if mgr_cap is not None:
            yield ctx.invoke(mgr_cap, "acquire", lock_name)
        yield ctx.sleep(10_000.0)
        return "never"


class TestDistributedCtrlC:
    def _run(self, n_workers=3, n_nodes=4):
        cluster = make_cluster(n_nodes=n_nodes)
        mgr = cluster.create_object(LockManager, node=n_nodes - 1)
        root_obj = cluster.create_object(CtrlCApp, node=0)
        worker_obj = cluster.create_object(CtrlCApp, node=1)
        gid = cluster.new_group()
        root = cluster.spawn(root_obj, "main", worker_obj, mgr,
                             n_workers, at=0, group=gid)
        cluster.run(until=1.0)
        return cluster, mgr, root_obj, worker_obj, gid, root

    def test_all_threads_terminated_no_orphans(self):
        cluster, mgr, root_obj, worker_obj, gid, root = self._run()
        assert len(cluster.groups.members(gid)) == 4
        press_ctrl_c(cluster, root.tid)
        cluster.run()
        report = termination_report(cluster, gid,
                                    caps=[root_obj, worker_obj])
        assert report["surviving_members"] == []
        assert report["orphans"] == []
        assert root.state == "terminated"

    def test_objects_notified_via_abort(self):
        cluster, mgr, root_obj, worker_obj, gid, root = self._run()
        press_ctrl_c(cluster, root.tid)
        cluster.run()
        # the worker object hosted the workers; the root object hosted
        # the root thread: both observed ABORT during unwinding
        assert cluster.get_object(worker_obj).aborted_tids
        assert cluster.get_object(root_obj).aborted_tids

    def test_locks_released_across_the_group(self):
        cluster, mgr, root_obj, worker_obj, gid, root = self._run()
        manager = cluster.get_object(mgr)
        assert sum(1 for lk in manager._locks.values()
                   if lk.holder is not None) == 3
        press_ctrl_c(cluster, root.tid)
        cluster.run()
        assert all(lk.holder is None
                   for lk in manager._locks.values())
        assert manager.cleanup_releases == 3

    def test_scales_with_worker_count(self):
        cluster, mgr, root_obj, worker_obj, gid, root = self._run(
            n_workers=10, n_nodes=6)
        press_ctrl_c(cluster, root.tid)
        cluster.run()
        report = termination_report(cluster, gid)
        assert report["surviving_members"] == []
        assert report["orphans"] == []

    def test_ctrl_c_on_already_finished_app(self):
        cluster = make_cluster(n_nodes=2)

        class Quick(DistObject):
            @entry
            def main(self, ctx):
                yield from install_ctrl_c(ctx)
                return "fast"

        obj = cluster.create_object(Quick, node=0)
        gid = cluster.new_group()
        root = cluster.spawn(obj, "main", at=0, group=gid)
        cluster.run()
        assert root.completion.result() == "fast"
        press_ctrl_c(cluster, root.tid)  # dead target: no crash
        cluster.run()
        assert cluster.metrics()["events.post.dead_targets"] >= 1


class TestMonitoring:
    def test_samples_follow_thread_across_nodes(self):
        cluster = make_cluster(n_nodes=3)
        server = cluster.create_object(MonitorServer, node=2)

        class Roamer(DistObject):
            @entry
            def start(self, ctx, far, srv):
                yield from install_monitor(ctx, srv, period=0.05)
                yield ctx.compute(0.2)          # sampled here
                yield ctx.invoke(far, "churn")  # sampled there
                yield ctx.compute(0.2)          # and here again
                return "done"

            @entry
            def churn(self, ctx):
                yield ctx.compute(0.2)
                return None

        home = cluster.create_object(Roamer, node=0)
        far = cluster.create_object(Roamer, node=1)
        thread = cluster.spawn(home, "start", far, server, at=0)
        cluster.run()
        assert thread.completion.result() == "done"
        samples = cluster.get_object(server).samples[str(thread.tid)]
        assert {s.node for s in samples} == {0, 1}
        assert {s.entry for s in samples} == {"start", "churn"}

    def test_liveliness_and_progress_queries(self):
        cluster = make_cluster(n_nodes=2)
        server = cluster.create_object(MonitorServer, node=1)

        class Busy(DistObject):
            @entry
            def spin(self, ctx, srv):
                yield from install_monitor(ctx, srv, period=0.05)
                for _ in range(10):
                    yield ctx.compute(0.05)
                return "done"

        busy = cluster.create_object(Busy, node=0)
        thread = cluster.spawn(busy, "spin", server, at=0)
        cluster.run()
        probe = cluster.spawn(server, "progressing", thread.tid, at=0)
        cluster.run()
        assert probe.completion.result() is True
        live = cluster.spawn(server, "liveliness", at=0)
        cluster.run()
        report = live.completion.result()
        assert str(thread.tid) in report

    def test_monitoring_stops_with_thread(self):
        cluster = make_cluster(n_nodes=2)
        server = cluster.create_object(MonitorServer, node=1)

        class Short(DistObject):
            @entry
            def brief(self, ctx, srv):
                yield from install_monitor(ctx, srv, period=0.05)
                yield ctx.compute(0.12)
                return "done"

        obj = cluster.create_object(Short, node=0)
        thread = cluster.spawn(obj, "brief", server, at=0)
        cluster.run()
        count = len(cluster.get_object(server).samples.get(
            str(thread.tid), []))
        cluster.run(until=cluster.now + 1.0)
        after = len(cluster.get_object(server).samples.get(
            str(thread.tid), []))
        assert after == count  # no ghost samples after completion


class TestScopedExceptionHandling:
    def test_invoke_guarded_repairs(self):
        cluster = make_cluster(n_nodes=2)

        class Math(DistObject):
            @entry
            def divide(self, ctx, a, b):
                yield ctx.compute(0)
                return a / b

            @entry
            def guarded_divide(self, ctx, cap, a, b):
                result = yield from invoke_guarded(
                    ctx, cap, "divide", a, b,
                    handlers={"DIV_ZERO": repairing(float("inf"))})
                return result

        math = cluster.create_object(Math, node=1)
        caller = cluster.create_object(Math, node=0)
        thread = cluster.spawn(caller, "guarded_divide", math, 1, 0, at=0)
        cluster.run()
        assert thread.completion.result() == float("inf")

    def test_handler_scope_ends_with_invocation(self):
        cluster = make_cluster(n_nodes=2)

        class Math(DistObject):
            @entry
            def divide(self, ctx, a, b):
                yield ctx.compute(0)
                return a / b

            @entry
            def two_phase(self, ctx, cap):
                ok = yield from invoke_guarded(
                    ctx, cap, "divide", 1, 0,
                    handlers={"DIV_ZERO": repairing(-1)})
                # handler detached now: the second fault is unguarded
                bad = yield ctx.invoke(cap, "divide", 1, 0)
                return ok, bad

        math = cluster.create_object(Math, node=1)
        caller = cluster.create_object(Math, node=0)
        thread = cluster.spawn(caller, "two_phase", math, at=0)
        cluster.run()
        assert thread.state == "failed"
        with pytest.raises(ZeroDivisionError):
            thread.completion.result()


class TestPagerApp:
    def test_workload_all_faults_served(self):
        cluster = make_cluster(n_nodes=4)
        result = run_pager_workload(cluster, faulters=4,
                                    keys_per_thread=2, writes=2)
        assert result.faults_served >= 1
        assert result.vm_faults == result.faults_served
        assert all(value is not None for value in result.per_thread)

    def test_private_copy_mode_merges(self):
        cluster = make_cluster(n_nodes=4)
        result = run_pager_workload(cluster, faulters=4,
                                    keys_per_thread=2, writes=2,
                                    private_copies=True)
        assert result.merged_pages >= 1
        assert result.faults_served >= 4  # one per faulting node at least

    def test_shared_mode_faults_once_per_page(self):
        cluster = make_cluster(n_nodes=3)
        result = run_pager_workload(cluster, faulters=3,
                                    keys_per_thread=1, writes=1)
        segment_pages = 8
        assert result.vm_faults <= segment_pages


class TestWorkloadOverPager:
    """The E13 open-loop generator driven over a real application.

    The E13 bench exercises the generator against synthetic sink
    objects; this wires the same generator — bursty arrivals, Zipf
    target popularity, multi-tenant raisers, periodic fan-out storms —
    over the §6.4 user-level VM manager. Each arrival spawns a real
    ``touch`` thread against the pageable region (the Zipf target picks
    the key, the tenant picks the raiser node); every ``fanout_every``-th
    arrival becomes a read storm over the whole key population instead.
    """

    def test_open_loop_schedule_drives_the_pager(self):
        from repro import Cluster, ClusterConfig
        from repro.apps.pager_app import PagedRegion
        from repro.bench.workloads import (
            FANOUT,
            WorkloadSpec,
            build_schedule,
            drive,
            summarize,
        )
        from repro.dsm.pager import PagerServer
        from repro.kernel.config import TRANSPORT_DSM

        spec = WorkloadSpec(seed=17, duration=0.5, rate=60.0,
                            arrival="bursty", burst_factor=6.0,
                            burst_fraction=0.2, n_targets=5, zipf_s=1.2,
                            fanout_every=8, tenants=(0, 1, 2, 3))

        def run_once() -> dict:
            cluster = Cluster(ClusterConfig(n_nodes=4))
            pager_cap = cluster.create_object(PagerServer, node=0)
            region_cap = cluster.create_object(PagedRegion, node=1,
                                               transport=TRANSPORT_DSM)
            keys = [f"k{i}" for i in range(spec.n_targets)]
            schedule = build_schedule(spec)
            threads = []

            def fire(arrival):
                node = arrival.tenant % cluster.config.n_nodes
                if arrival.target == FANOUT:
                    # fan-out storm: one thread reads every key
                    threads.append(cluster.spawn(region_cap, "read_all",
                                                 pager_cap, keys, at=node))
                else:
                    threads.append(cluster.spawn(
                        region_cap, "touch", pager_cap,
                        [keys[arrival.target]], 2, at=node))

            drive(cluster, schedule, fire)
            cluster.run()

            assert len(threads) == len(schedule), \
                f"spawned {len(threads)} of {len(schedule)} arrivals"
            results = [t.completion.result() for t in threads]
            stats = cluster.dsm.protocol_stats()
            violations = cluster.dsm.log.check()
            return {
                "arrivals": len(schedule),
                "storms": sum(1 for a in schedule if a.target == FANOUT),
                "vm_faults": stats["vm_faults"],
                "faults_served": cluster.get_object(pager_cap).faults_served,
                "page_transfers": stats["page_transfers"],
                "virtual_time": round(cluster.now, 9),
                "consistency_violations": len(violations),
                "touch_sum": sum(r for r in results if isinstance(r, int)),
                "summary": summarize(schedule, spec.duration),
            }

        run = run_once()
        shape = run["summary"]

        # The generator produced a real open-loop schedule, shapes on.
        assert run["arrivals"] > 10, run
        assert run["storms"] == shape["fanouts"] > 0, run
        assert len(shape["tenant_counts"]) == len(spec.tenants), shape
        assert shape["hot_target_share"] > 1.0 / spec.n_targets, shape

        # The schedule drove the real app: faults raised, served by the
        # user-level pager, pages moved between nodes, strict
        # consistency held throughout.
        assert run["vm_faults"] > 0 and run["faults_served"] > 0, run
        assert run["page_transfers"] > 0, run
        assert run["consistency_violations"] == 0, run
        # Pages stay materialised once the pager serves them, so faults
        # are bounded by the touch population, not the arrival count.
        assert run["faults_served"] <= run["vm_faults"], run

        # Same-seed replays are bit-identical end to end, app included.
        assert run_once() == run, \
            "same-seed workload-over-pager runs diverged"
