"""The experiment registry: :data:`ALL_EXPERIMENTS`, one entry per
section of EXPERIMENTS.md.

The paper (a design paper) contains exactly one table — the §5.3
addressing/blocking options — and no figures; every other paper
experiment here (E2–E9, A1) quantifies a specific claim made in the
prose, as indexed in DESIGN.md. Each is a ``run_*`` returning a
:class:`~repro.bench.harness.Result` with the ``check_*`` asserting the
claim's shape right beside it. The beyond-paper experiments (C1, D1,
E11–E14, E16) keep their ``run``/``check`` pairs in their own modules
and are registered at the bottom of this file.
"""

from __future__ import annotations

from repro import Decision, DistObject, entry
from repro.apps.pager_app import run_pager_workload
from repro.apps.termination import press_ctrl_c, termination_report
from repro.baselines import SCENARIOS, run_all
from repro.bench.chaos import check_chaos, run_chaos_sweep
from repro.bench.durability import check_durability, run_durability_sweep
from repro.bench.harness import Experiment, Result, Table, ratio
from repro.bench.membership import check_e16, run_e16
from repro.bench.overload import check_overload, run_overload_sweep
from repro.bench.scale import check_e14, run_e14
from repro.bench.soak import check_soak, run_soak
from repro.bench.supervise import check_supervise, run_supervise_sweep
from repro.bench.workloads import (
    bouncing_thread,
    build_cluster,
    ctrl_c_app,
    deep_thread,
    lock_chain,
    measure_posts,
    object_event_storm,
    transport_workload,
)


# ---------------------------------------------------------------------------
# T1 — the §5.3 table: addressing and blocking options
# ---------------------------------------------------------------------------

def run_table1() -> Result:
    """Reproduce the paper's raise-call table, measured.

    For each of the six call forms: who received the event, whether the
    raiser blocked, and the raiser-observed virtual latency.
    """
    table = Table(
        title="Table 1 (§5.3): raise-call addressing and blocking",
        columns=["call", "recipients (paper)", "recipients (measured)",
                 "raiser blocked", "raiser latency (ms)"])

    class Probe(DistObject):
        @entry
        def fire(self, ctx, sync, target):
            start = ctx.now
            if sync:
                yield ctx.raise_and_wait("T1EVT", target)
            else:
                yield ctx.raise_event("T1EVT", target)
            return ctx.now - start

    class CountingSink(DistObject):
        def __init__(self, hits):
            super().__init__()
            self.hits = hits

        @entry
        def absorb(self, ctx, label):
            hits = self.hits

            def handler(hctx, block):
                hits.append(label)
                yield hctx.compute(1e-5)
                return Decision.RESUME

            yield ctx.attach_handler("T1EVT", handler)
            yield ctx.sleep(1e6)

        from repro.objects.base import on_event as _on

        @_on("T1EVT")
        def obj_handler(self, ctx, block):
            self.hits.append("object")
            yield ctx.compute(1e-5)
            return "object-ack"

    def rig():
        cluster = build_cluster(n_nodes=4)
        cluster.register_event("T1EVT")
        hits: list[str] = []
        sink = cluster.create_object(CountingSink, hits, node=2)
        probe = cluster.create_object(Probe, node=1)
        victim = cluster.spawn(sink, "absorb", "tid-target", at=3)
        gid = cluster.new_group()
        for i in range(3):
            cluster.spawn(sink, "absorb", f"g{i}", at=i, group=gid)
        cluster.run(until=0.1)
        return cluster, hits, sink, probe, victim, gid

    cases = [
        ("raise(e, tid)", "thread tid", False, "victim"),
        ("raise(e, gtid)", "threads in group gtid", False, "group"),
        ("raise(e, oid)", "object oid", False, "object"),
        ("raise_and_wait(e, tid)", "thread tid, synchronously", True,
         "victim"),
        ("raise_and_wait(e, gtid)", "threads of group, synchronously",
         True, "group"),
        ("raise_and_wait(e, oid)", "object oid, synchronously", True,
         "object"),
    ]
    for call, paper_recipients, sync, target_kind in cases:
        cluster, hits, sink, probe, victim, gid = rig()
        target = {"victim": victim.tid, "group": gid,
                  "object": sink}[target_kind]
        thread = cluster.spawn(probe, "fire", sync, target, at=1)
        cluster.run()
        latency = thread.completion.result()
        measured = sorted(set(hits))
        table.add(call, paper_recipients, ",".join(measured) or "-",
                  "yes" if sync else "no", latency * 1e3)
    table.note("async raiser latency is one local scheduling step; "
               "sync raiser blocks across locate+deliver+handle+resume")
    return Result(table)


def check_table1(result: Result) -> None:
    rows = {row["call"]: row for row in result.table.dicts()}
    # every call form delivered to exactly the recipients the paper lists
    for form in ("raise", "raise_and_wait"):
        assert rows[f"{form}(e, tid)"]["recipients (measured)"] == \
            "tid-target"
        assert rows[f"{form}(e, gtid)"]["recipients (measured)"] == \
            "g0,g1,g2"
        assert rows[f"{form}(e, oid)"]["recipients (measured)"] == "object"
    for call, row in rows.items():
        assert row["raiser blocked"] == ("yes" if "wait" in call else "no")
    # synchronous raising costs the raiser real (virtual) time; async not
    assert rows["raise(e, tid)"]["raiser latency (ms)"] == 0.0
    assert rows["raise_and_wait(e, tid)"]["raiser latency (ms)"] > 1.0


# ---------------------------------------------------------------------------
# E2 — §7.1 thread location strategies
# ---------------------------------------------------------------------------

def run_e2(cluster_sizes=(2, 4, 8, 16, 32), depths=(1, 4),
           posts: int = 20) -> Result:
    table = Table(
        title="E2 (§7.1): locating a migrating thread",
        columns=["locator", "nodes", "migration depth",
                 "msgs/post", "latency/post (ms)", "mcast joins"])
    for locator in ("broadcast", "path", "multicast"):
        for n in cluster_sizes:
            for depth in depths:
                if depth >= n:
                    continue
                cluster = build_cluster(n_nodes=n, locator=locator)
                thread = deep_thread(cluster, depth=depth)
                joins = (cluster.events.locator.groups.joins
                         if locator == "multicast" else 0)
                msgs, latency = measure_posts(cluster, thread, posts)
                table.add(locator, n, depth, msgs, latency * 1e3, joins)
    # The fourth locator: hint-cached direct posting. Three cases — a
    # warm cache posting to a located thread (the steady state the cache
    # buys), a cold cache (first post ever: pure fallback cost), and an
    # adversarially migrating target (every hint is stale on arrival).
    for n in cluster_sizes:
        for depth in depths:
            if depth >= n:
                continue
            cluster = build_cluster(n_nodes=n, locator="cached")
            thread = deep_thread(cluster, depth=depth)
            msgs, latency = measure_posts(cluster, thread, posts, warmup=1)
            table.add("cached (hot)", n, depth, msgs, latency * 1e3, 0)
            cluster = build_cluster(n_nodes=n, locator="cached")
            thread = deep_thread(cluster, depth=depth)
            msgs, latency = measure_posts(cluster, thread, 1)
            table.add("cached (cold)", n, depth, msgs, latency * 1e3, 0)
    for n in cluster_sizes:
        if n < 3:
            continue
        cluster = build_cluster(n_nodes=n, locator="cached")
        thread = bouncing_thread(cluster, dwell=0.05)
        msgs, latency = measure_posts(cluster, thread, posts, warmup=1)
        table.add("cached (migrating)", n, 1, msgs, latency * 1e3, 0)
    table.note("paper: broadcast 'communication intensive and wasteful'; "
               "path finds the thread 'in n steps'; multicast addresses "
               "the thread directly at membership-maintenance cost")
    table.note("cached: hints amortise location to 1 msg/post for a "
               "located thread; cold posts pay the fallback "
               "(cache_fallback=path), stale hints chase TCB pointers")
    return Result(table)


def check_e2(result: Result) -> None:
    """The paper's cost curves plus the cached locator's amortised win."""
    rows = result.table.dicts()
    cell = {(row["locator"], row["nodes"], row["migration depth"]): row
            for row in rows}
    sizes = sorted({row["nodes"] for row in rows})
    depths = sorted({row["migration depth"] for row in rows
                     if row["locator"] == "path"})

    def msgs(locator, nodes, depth):
        return cell[locator, nodes, depth]["msgs/post"]

    big, small = sizes[-1], sizes[0]
    mid = sizes[len(sizes) // 2]
    deep = depths[-1]
    # Broadcast grows with cluster size at fixed depth — "communication
    # intensive and wasteful".
    assert msgs("broadcast", big, 1) > msgs("broadcast", small, 1)
    # Path-following is independent of cluster size, linear in depth.
    assert msgs("path", mid, 1) == msgs("path", big, 1)
    if deep > 1:
        assert msgs("path", big, deep) > msgs("path", big, 1)
    # Multicast is bounded by group membership, not cluster size, and
    # beats broadcast in large clusters.
    assert msgs("multicast", big, 1) == msgs("multicast", mid, 1)
    assert msgs("multicast", big, 1) < msgs("broadcast", big, 1)
    for row in rows:
        if row["locator"] == "path":
            # Path never exceeds n hops (the paper's bound) ...
            assert row["msgs/post"] <= row["nodes"]
            # ... and pays latency per hop, where broadcast and
            # multicast pay one round trip.
            if row["migration depth"] == 4:
                assert row["latency/post (ms)"] > 3.0
        if row["locator"] == "broadcast":
            assert row["latency/post (ms)"] < 2.0
        # Migrating target: stale hints chase TCB forwarding pointers;
        # the post still delivers (asserted inside run_e2) and stays
        # cheaper than a broadcast.
        if row["locator"] == "cached (migrating)" and row["nodes"] >= 8:
            assert row["msgs/post"] < msgs("broadcast", row["nodes"], 1)
    for n in sizes:
        for depth in depths:
            if depth >= n:
                continue
            # Hot cache: steady-state posts cost exactly one direct
            # message and one network latency, regardless of cluster
            # size and migration depth.
            assert msgs("cached (hot)", n, depth) == 1.0
            assert cell["cached (hot)", n, depth]["latency/post (ms)"] < 1.1
            # ... strictly beating broadcast and multicast at 8+ nodes,
            # and never worse than path.
            if n >= 8:
                assert msgs("cached (hot)", n, depth) < \
                    msgs("broadcast", n, depth)
                assert msgs("cached (hot)", n, depth) < \
                    msgs("multicast", n, depth)
            assert msgs("cached (hot)", n, depth) <= msgs("path", n, depth)
            # Cold cache: the very first post pays exactly the fallback
            # strategy's price (cache_fallback=path), nothing extra.
            assert msgs("cached (cold)", n, depth) == msgs("path", n, depth)


# ---------------------------------------------------------------------------
# E3 — §4.3/§7 master handler thread vs thread-per-event
# ---------------------------------------------------------------------------

def run_e3(event_counts=(10, 50, 200),
           create_cost: float = 2e-4) -> Result:
    table = Table(
        title="E3 (§7): object-event execution — master thread vs "
              "per-event threads",
        columns=["mode", "events", "threads created",
                 "creation overhead (ms)", "virtual time (ms)",
                 "time/event (us)"])
    for mode in ("master", "per-event"):
        for events in event_counts:
            cluster = object_event_storm(mode, events,
                                         thread_create_cost=create_cost)
            manager = cluster.kernels[1].objects
            table.add(mode, events, manager.handler_threads_created,
                      manager.handler_threads_created * create_cost * 1e3,
                      cluster.now * 1e3, cluster.now / events * 1e6)
    table.note(f"thread_create_cost={create_cost}s; the master thread "
               f"'eliminates thread-creation costs'")
    return Result(table)


def check_e3(result: Result) -> None:
    row = {(r["mode"], r["events"]): r for r in result.table.dicts()}
    counts = sorted({events for _mode, events in row})
    for events in counts:
        master, per_event = row["master", events], row["per-event", events]
        # the master thread is created once; per-event mode pays per event
        assert master["threads created"] == 1
        assert per_event["threads created"] == events
        # ... which the virtual clock reflects
        assert master["virtual time (ms)"] < per_event["virtual time (ms)"]
    # per-event creation overhead grows linearly with event count; the
    # master's is constant — "eliminating thread-creation costs"
    few, many = counts[0], counts[-1]
    assert row["master", many]["creation overhead (ms)"] == \
        row["master", few]["creation overhead (ms)"]
    assert row["per-event", many]["creation overhead (ms)"] == \
        many / few * row["per-event", few]["creation overhead (ms)"]


# ---------------------------------------------------------------------------
# E4 — §4.2 chaining: distributed lock cleanup
# ---------------------------------------------------------------------------

def run_e4(lock_counts=(1, 2, 4, 8, 16)) -> Result:
    table = Table(
        title="E4 (§4.2): TERMINATE-chained lock cleanup",
        columns=["locks held", "chain depth", "released on TERMINATE",
                 "released %", "cleanup msgs", "virtual time (ms)"])
    for locks in lock_counts:
        rig = lock_chain(locks)
        cluster = rig.cluster
        manager = cluster.get_object(rig.manager_cap)
        chain_depth = len(rig.thread.attributes.handlers_for("TERMINATE"))
        before = cluster.fabric.stats.sent
        start = cluster.now
        cluster.raise_event("TERMINATE", rig.thread.tid, from_node=2)
        cluster.run()
        released = manager.cleanup_releases
        table.add(locks, chain_depth, released,
                  100.0 * released / locks,
                  cluster.fabric.stats.sent - before,
                  (cluster.now - start) * 1e3)
    table.note("'all locked data are unlocked, regardless of their "
               "location and scope'")
    return Result(table)


def check_e4(result: Result) -> None:
    rows = result.table.dicts()
    for row in rows:
        # every lock released, no matter how many were chained
        assert row["released %"] == 100.0
        # chain depth tracks the number of acquires
        assert row["chain depth"] == row["locks held"]
    # cleanup cost is linear in chain depth (each handler is one
    # surrogate invocation of the lock manager)
    msgs = {row["locks held"]: row["cleanup msgs"] for row in rows}
    assert msgs[16] > msgs[8] > msgs[1]
    assert 1 <= (msgs[16] - msgs[8]) / 8 <= 4


# ---------------------------------------------------------------------------
# E5 — §6.3 distributed ^C
# ---------------------------------------------------------------------------

def run_e5(worker_counts=(2, 4, 8, 16), n_nodes: int = 8) -> Result:
    table = Table(
        title="E5 (§6.3): distributed ^C — clean group termination",
        columns=["workers", "group size", "survivors", "orphans",
                 "locks leaked", "objects ABORT-notified",
                 "time to quiescence (ms)", "messages"])
    for workers in worker_counts:
        rig = ctrl_c_app(workers, n_nodes=n_nodes)
        cluster = rig.cluster
        group_size = len(cluster.groups.members(rig.gid))
        before_msgs = cluster.fabric.stats.sent
        start = cluster.now
        press_ctrl_c(cluster, rig.root.tid)
        cluster.run()
        report = termination_report(cluster, rig.gid,
                                    caps=[rig.root_obj, rig.worker_obj])
        manager = cluster.get_object(rig.manager_cap)
        leaked = sum(1 for lk in manager._locks.values()
                     if lk.holder is not None)
        table.add(workers, group_size, len(report["surviving_members"]),
                  len(report["orphans"]), leaked,
                  len(report["aborted_oids"]),
                  (cluster.now - start) * 1e3,
                  cluster.fabric.stats.sent - before_msgs)
    table.note("baseline comparison: see E8 — UNIX signals cannot reach "
               "remote or passive recipients at all")
    return Result(table)


def check_e5(result: Result) -> None:
    rows = result.table.dicts()
    for row in rows:
        # the whole point: nothing survives, nothing leaks, nothing is
        # orphaned
        assert row["survivors"] == 0
        assert row["orphans"] == 0
        assert row["locks leaked"] == 0
        assert row["objects ABORT-notified"] >= 1
        # group = workers + root
        assert row["group size"] == row["workers"] + 1
    # message cost scales with the number of threads to hunt down
    msgs = {row["workers"]: row["messages"] for row in rows}
    assert msgs[16] > msgs[4] > msgs[2]
    # but the time to quiescence stays flat: members terminate in parallel
    times = [row["time to quiescence (ms)"] for row in rows]
    assert max(times) < 2 * min(times)


# ---------------------------------------------------------------------------
# E6 — §6.4 external pager
# ---------------------------------------------------------------------------

def run_e6(faulter_counts=(1, 2, 4, 8), n_nodes: int = 8) -> Result:
    table = Table(
        title="E6 (§6.4): user-level VM manager (external pager)",
        columns=["faulters", "mode", "vm faults", "faults served",
                 "page transfers", "merged pages", "virtual time (ms)"])
    for faulters in faulter_counts:
        for private in (False, True):
            cluster = build_cluster(n_nodes=n_nodes)
            result = run_pager_workload(cluster, faulters=faulters,
                                        keys_per_thread=3, writes=2,
                                        private_copies=private)
            table.add(faulters, "private-copy" if private else "shared",
                      result.vm_faults, result.faults_served,
                      result.page_transfers, result.merged_pages,
                      result.virtual_time * 1e3)
    table.note("'if another thread faults on the same memory, the server "
               "can supply a copy of the page, and later merge the pages'")
    return Result(table)


def check_e6(result: Result) -> None:
    rows = result.table.dicts()
    for row in rows:
        # every fault was served by the user-level pager
        assert row["faults served"] == row["vm faults"] > 0
    shared = {row["faulters"]: row for row in rows
              if row["mode"] == "shared"}
    private = {row["faulters"]: row for row in rows
               if row["mode"] == "private-copy"}
    # private-copy mode faults once per (page, node): more pager work ...
    assert private[8]["faults served"] >= shared[8]["faults served"]
    # ... then reconciles by merging
    assert private[8]["merged pages"] >= 1
    assert all(row["merged pages"] == 0 for row in shared.values())
    # fault volume grows with concurrency
    assert shared[8]["vm faults"] >= shared[1]["vm faults"]


# ---------------------------------------------------------------------------
# E7 — §2 transport transparency (RPC vs DSM)
# ---------------------------------------------------------------------------

def run_e7(workers: int = 3, rounds: int = 5) -> Result:
    table = Table(
        title="E7 (§2): identical event behaviour under RPC and DSM "
              "transports",
        columns=["transport", "per-thread handler traces equal",
                 "marks delivered", "invoke msgs", "dsm msgs",
                 "virtual time (ms)"])
    runs = {t: transport_workload(t, workers=workers, rounds=rounds)
            for t in ("rpc", "dsm")}

    def marks(run):
        return {label: [d for k, d in t if k == "MARK"]
                for label, t in run.per_thread_traces.items()}

    equal = marks(runs["rpc"]) == marks(runs["dsm"])
    for transport, run in runs.items():
        invoke_msgs = sum(v for k, v in run.messages.items()
                          if k.startswith("invoke."))
        dsm_msgs = sum(v for k, v in run.messages.items()
                       if k.startswith("rpc."))
        table.add(transport, "yes" if equal else "NO",
                  sum(len(v) for v in marks(run).values()),
                  invoke_msgs, dsm_msgs, run.virtual_time * 1e3)
    table.note("same application code; RPC ships the thread, DSM ships "
               "the pages — handler recipients and order are identical")
    return Result(table)


def check_e7(result: Result) -> None:
    by_transport = {row["transport"]: row for row in result.table.dicts()}
    # the design goal: the mechanism works identically under either
    # transport — same handlers, same recipients, same order
    for row in by_transport.values():
        assert row["per-thread handler traces equal"] == "yes"
        assert row["marks delivered"] == 3
    # but the substrate differs: RPC ships threads, DSM ships pages
    assert by_transport["rpc"]["invoke msgs"] > 0
    assert by_transport["dsm"]["invoke msgs"] == 0
    assert by_transport["dsm"]["dsm msgs"] > 0


# ---------------------------------------------------------------------------
# E8 — §9 facility comparison
# ---------------------------------------------------------------------------

def run_e8(seeds: int = 20) -> Result:
    table = Table(
        title="E8 (§9): correct-recipient delivery by facility",
        columns=["scenario"] + ["unix", "mach", "doct"])
    totals = {name: dict.fromkeys(("unix", "mach", "doct"), 0)
              for name in SCENARIOS}
    n_seeds = seeds
    for seed in range(seeds):
        results = run_all(seed=seed)
        for facility, rows in results.items():
            for row in rows:
                totals[row.scenario][facility] += int(row.correct)
    for scenario in SCENARIOS:
        table.add(scenario,
                  *(f"{totals[scenario][f] / n_seeds:.0%}"
                    for f in ("unix", "mach", "doct")))
    overall = {f: sum(totals[s][f] for s in SCENARIOS) /
               (n_seeds * len(SCENARIOS)) for f in ("unix", "mach", "doct")}
    table.add("OVERALL", *(f"{overall[f]:.0%}"
                           for f in ("unix", "mach", "doct")))
    table.note("unix occasionally 'wins' scenario 1 because the "
               "arbitrary-thread choice lands on the intended thread by "
               "luck (1/8 chance in this workload)")
    return Result(table)


def check_e8(result: Result) -> None:
    pct = {row["scenario"]: {f: int(row[f].rstrip("%"))
                             for f in ("unix", "mach", "doct")}
           for row in result.table.dicts()}
    # the paper's design handles every scenario; the baselines do not
    assert pct["OVERALL"]["doct"] == 100
    assert pct["OVERALL"]["unix"] < 40
    assert pct["OVERALL"]["mach"] < 60
    # specific claims from §9
    for scenario in ("passive-object", "remote-thread",
                     "per-application-customization"):
        assert pct[scenario]["unix"] == pct[scenario]["mach"] == 0
    # Mach thread-ports DO handle in-task thread targeting
    assert pct["specific-thread-in-shared-space"]["mach"] == 100
    # UNIX hits the right thread only by luck (~1/8 here)
    assert 0 < pct["specific-thread-in-shared-space"]["unix"] < 50


# ---------------------------------------------------------------------------
# E9 — §3 synchronous vs asynchronous raising
# ---------------------------------------------------------------------------

def run_e9(service_times=(0.0, 1e-3, 1e-2, 1e-1)) -> Result:
    table = Table(
        title="E9 (§3): raiser blocking window, sync vs async",
        columns=["handler service time (ms)", "async window (ms)",
                 "sync window (ms)", "sync/async ratio"])

    class Probe(DistObject):
        @entry
        def fire(self, ctx, target, sync):
            start = ctx.now
            if sync:
                yield ctx.raise_and_wait("E9EVT", target)
            else:
                yield ctx.raise_event("E9EVT", target)
            return ctx.now - start

    class Sink(DistObject):
        @entry
        def absorb(self, ctx, service):
            def handler(hctx, block):
                yield hctx.sleep(service)
                return Decision.RESUME

            yield ctx.attach_handler("E9EVT", handler)
            yield ctx.sleep(1e6)

    for service in service_times:
        cluster = build_cluster(n_nodes=3)
        cluster.register_event("E9EVT")
        sink = cluster.create_object(Sink, node=2)
        probe = cluster.create_object(Probe, node=1)
        victim = cluster.spawn(sink, "absorb", service, at=2)
        cluster.run(until=0.1)
        windows = {}
        for sync in (False, True):
            thread = cluster.spawn(probe, "fire", victim.tid, sync, at=1)
            cluster.run(until=cluster.now + service + 1.0)
            windows[sync] = thread.completion.result()
        table.add(service * 1e3, windows[False] * 1e3, windows[True] * 1e3,
                  ratio(windows[True], max(windows[False], 1e-12)))
    table.note("'Synchronous send will block, until it is explicitly "
               "resumed by a handler. Asynchronous send … does not block'")
    return Result(table)


def check_e9(result: Result) -> None:
    rows = result.table.dicts()
    for row in rows:
        # asynchronous raising never blocks the raiser
        assert row["async window (ms)"] == 0.0
        # synchronous raising blocks at least for locate+deliver+resume
        assert row["sync window (ms)"] > 1.0
    # the sync window tracks the handler's service time one-for-one
    windows = {row["handler service time (ms)"]: row["sync window (ms)"]
               for row in rows}
    assert abs((windows[100.0] - windows[0.0]) - 100.0) <= 5.0


# ---------------------------------------------------------------------------
# A1 — ablations of design choices
# ---------------------------------------------------------------------------

def run_ablations() -> Result:
    """Toggle the design choices DESIGN.md calls out, one at a time."""
    table = Table(
        title="A1: ablations of design choices",
        columns=["ablation", "setting", "metric", "value"])

    # 1. partial-result notification (§1): cooperative search
    from repro.apps.search import run_search
    for notify in (True, False):
        cluster = build_cluster(n_nodes=4)
        result = run_search(cluster, workers=4, space=400, seed=7,
                            notify=notify)
        table.add("partial-result notification",
                  "on" if notify else "off",
                  "candidates explored", result.explored)

    # 2. ABORT-on-unwind (§6.3): object cleanup notification
    for notify_abort in (True, False):
        cluster = build_cluster(n_nodes=4,
                                notify_abort_on_unwind=notify_abort)
        from repro.bench.workloads import CtrlCWorkload
        from repro.locks import LockManager
        mgr = cluster.create_object(LockManager, node=3)
        root_obj = cluster.create_object(CtrlCWorkload, node=0)
        worker_obj = cluster.create_object(CtrlCWorkload, node=1)
        gid = cluster.new_group()
        root = cluster.spawn(root_obj, "main", worker_obj, mgr, 4, True,
                             at=0, group=gid)
        cluster.run(until=2.0)
        press_ctrl_c(cluster, root.tid)
        cluster.run()
        aborts = (len(cluster.get_object(root_obj).aborted_tids)
                  + len(cluster.get_object(worker_obj).aborted_tids))
        table.add("ABORT on unwind",
                  "on" if notify_abort else "off",
                  "object ABORT deliveries", aborts)

    # 3. handler context placement (§4.1): messages per delivery when the
    # thread is far from the attaching object
    class FarHome(DistObject):
        @entry
        def arm_and_go(self, ctx, far, use_current):
            if use_current:
                def probe(hctx, block):
                    yield hctx.compute(1e-6)
                    return Decision.RESUME
                yield ctx.attach_handler("A1EVT", probe)
            else:
                yield ctx.attach_handler("A1EVT", "attached_probe")
            result = yield ctx.invoke(far, "hold_far")
            return result

        @entry
        def hold_far(self, ctx):
            yield ctx.sleep(1e6)

        from repro.objects.base import handler_entry as _he

        @_he
        def attached_probe(self, ctx, block):
            yield ctx.compute(1e-6)
            return Decision.RESUME

    for use_current in (True, False):
        cluster = build_cluster(n_nodes=4)
        cluster.register_event("A1EVT")
        home = cluster.create_object(FarHome, node=0)
        far = cluster.create_object(FarHome, node=3)
        thread = cluster.spawn(home, "arm_and_go", far, use_current, at=0)
        cluster.run(until=1.0)
        before = cluster.fabric.stats.sent
        for _ in range(10):
            cluster.raise_event("A1EVT", thread.tid, from_node=3)
            cluster.run(until=cluster.now + 0.2)
        table.add("handler context",
                  "current (per-thread memory)" if use_current
                  else "attaching object",
                  "msgs/delivery", (cluster.fabric.stats.sent - before) / 10)

    # 4. DSM false sharing: fields per page under write-write sharing
    class Pair(DistObject):
        dsm_fields = {"a": 0, "b": 0}

        @entry
        def write_field(self, ctx, name, n):
            for i in range(n):
                yield ctx.write(name, i)

    for fields_per_page in (1, 2):
        cluster = build_cluster(n_nodes=3,
                                dsm_fields_per_page=fields_per_page)
        cap = cluster.create_object(Pair, node=0, transport="dsm")
        cluster.spawn(cap, "write_field", "a", 20, at=1)
        cluster.spawn(cap, "write_field", "b", 20, at=2)
        cluster.run()
        table.add("DSM layout", f"{fields_per_page} field(s)/page",
                  "invalidations",
                  cluster.dsm.protocol_stats()["invalidations"])
    return Result(table)


def check_ablations(result: Result) -> None:
    value = {(row["ablation"], row["setting"]): row["value"]
             for row in result.table.dicts()}
    # §1: partial-result notification prunes real work
    assert value["partial-result notification", "on"] < \
        value["partial-result notification", "off"]
    # §6.3: without ABORT-on-unwind, objects get no cleanup notification
    assert value["ABORT on unwind", "on"] > 0
    assert value["ABORT on unwind", "off"] == 0
    # §4.1: current-context handlers are cheaper than unscheduled
    # invocations back to the attaching object (thread far from home)
    assert value["handler context", "current (per-thread memory)"] < \
        value["handler context", "attaching object"]
    # DSM false sharing: packing contended fields onto one page costs
    # invalidations that split layouts avoid
    assert value["DSM layout", "2 field(s)/page"] > \
        value["DSM layout", "1 field(s)/page"]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _one_size(run, check, **params) -> Experiment:
    """An experiment that takes about a second at full size: quick = full."""
    return Experiment(run, check, full=params, quick=params)


_CHAOS = dict(locators=["path", "cached"], seed=11, duplicate_rate=0.05,
              crash_period=0.8, down_time=0.5)
_DURABLE = dict(seed=7, drop_rate=0.1, crash_period=0.5, down_time=0.4)

ALL_EXPERIMENTS: dict[str, Experiment] = {
    "table1": _one_size(run_table1, check_table1),
    "e2": _one_size(run_e2, check_e2, cluster_sizes=(2, 4, 8, 16, 32),
                 depths=(1, 4), posts=10),
    "e3": _one_size(run_e3, check_e3, event_counts=(10, 50, 200)),
    "e4": _one_size(run_e4, check_e4, lock_counts=(1, 2, 4, 8, 16)),
    "e5": _one_size(run_e5, check_e5, worker_counts=(2, 4, 8, 16), n_nodes=8),
    "e6": _one_size(run_e6, check_e6, faulter_counts=(1, 2, 4, 8), n_nodes=8),
    "e7": _one_size(run_e7, check_e7),
    "e8": _one_size(run_e8, check_e8, seeds=20),
    "e9": _one_size(run_e9, check_e9, service_times=(0.0, 1e-3, 1e-2, 1e-1)),
    "a1": _one_size(run_ablations, check_ablations),
    "chaos": Experiment(
        run_chaos_sweep, check_chaos,
        full=dict(_CHAOS, drop_rates=[0.0, 0.05, 0.1, 0.2], posts=150,
                  partition_period=1.7, partition_length=0.3),
        quick=dict(_CHAOS, drop_rates=[0.0, 0.1, 0.2], posts=60)),
    "durability": Experiment(
        run_durability_sweep, check_durability,
        full=dict(_DURABLE, checkpoint_intervals=[8, 32, 128, None],
                  posts=240),
        quick=dict(_DURABLE, checkpoint_intervals=[8, 32, None], posts=120)),
    "e11": _one_size(run_supervise_sweep, check_supervise,
                  seed=7, posts=60, buddy_posts=40),
    "e12": Experiment(run_soak, check_soak, full=dict(posts=1_000_000),
                      quick=dict(posts=20_000),
                      floor=("burst_posts_per_sec", 0.8)),
    "e13": Experiment(run_overload_sweep, check_overload,
                      full=dict(duration=2.0), quick=dict(duration=0.5)),
    "e14": Experiment(
        run_e14, check_e14,
        full=dict(sim_nodes=(4, 16, 64, 128),
                  sharded=((16, 2), (64, 4), (128, 8)), posts_per_node=200,
                  locator_nodes=(4, 16, 64, 128), locator_posts=10,
                  tcp_posts=30),
        quick=dict(sim_nodes=(4, 16), sharded=((16, 2), (16, 4)),
                   posts_per_node=60, locator_nodes=(4, 16),
                   locator_posts=5, tcp_posts=10)),
    "e16": Experiment(
        run_e16, check_e16,
        full=dict(swim_nodes=(4, 16, 64, 128, 256), converge_nodes=(64,),
                  churn_nodes=(16, 64, 128), sharded=((64, 4), (128, 8))),
        quick=dict(swim_nodes=(4, 32), converge_nodes=(32,),
                   churn_nodes=(16, 64), sharded=((16, 2),)),
        floor=("churn-64-heap.msgs_per_sec", 0.5)),
}
