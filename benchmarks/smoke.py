#!/usr/bin/env python3
"""Quick-mode smoke checks for CI: ``python benchmarks/smoke.py <name>``.

One runner, nine checks (``--list`` prints the names; CI's ``smoke``
matrix runs one per job). Each is a reduced sweep of one experiment —
seconds, not minutes — that asserts the experiment's guarantees and
re-checks same-seed bit-identity; what each asserts is in its function's
docstring. ``e2``, ``chaos``, ``durability`` and ``supervise`` rewrite
their ``BENCH_*.json`` in quick mode; ``soak``, ``overload`` and
``churn`` compare against the committed ``BENCH_*.json`` baseline, with
``SMOKE_MIN_FRACTION`` overriding each floor's fraction for slower
runners without disabling the regression gate.
"""

import argparse
import json
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "src")]


def floor_fraction(default: float) -> float:
    """Share of a committed baseline a check must still reach."""
    return float(os.environ.get("SMOKE_MIN_FRACTION", default))


def baseline(name: str) -> dict:
    """The committed ``BENCH_<name>.json``."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def emit(table, name: str, **meta) -> None:
    """Rewrite ``BENCH_<name>.json`` (callers mark it ``quick=True``)."""
    from repro.bench.harness import emit_json
    emit_json(table, REPO_ROOT / f"BENCH_{name}.json", **meta)


def rerun(run, message: str, first=None, view=lambda result: result):
    """Same-seed re-run: ``run()`` again must equal ``first`` (made here
    when not given) under ``view``. Returns the first result."""
    if first is None:
        first = run()
    assert view(first) == view(run()), message
    return first


def check_e2() -> None:
    """Reduced locate sweep: ``cached`` costs no more messages per post
    than ``path`` and exactly one once hot. Emits ``BENCH_locate.json``."""
    from bench_e2_locate import _rows, assert_e2_shape
    from repro.bench.experiments import run_e2

    table = run_e2(cluster_sizes=(2, 8, 16), depths=(1, 4), posts=5)
    assert_e2_shape(table)
    rows = _rows(table)
    cached = {(r["nodes"], r["migration depth"]): r["msgs/post"]
              for r in rows if r["locator"] == "cached (hot)"}
    path = {(r["nodes"], r["migration depth"]): r["msgs/post"]
            for r in rows if r["locator"] == "path"}
    for key, msgs in cached.items():
        assert msgs <= path[key], \
            f"cached (hot) {msgs} msgs/post exceeds path {path[key]} at {key}"
    emit(table, "locate", experiment="e2_locate",
         cluster_sizes=[2, 8, 16], depths=[1, 4], posts=5, quick=True)
    print(table.render())
    print("\nsmoke OK: cached (hot) <= path msgs/post on every row")


def check_chaos() -> None:
    """Reduced drop-rate sweep with periodic crash/recover: exactly-once
    handler execution, zero lost-or-hung posts. Emits
    ``BENCH_chaos.json``."""
    from bench_chaos import assert_chaos_shape
    from repro.bench.chaos import ChaosSpec, run_chaos, run_chaos_sweep

    drop_rates = [0.0, 0.1, 0.2]
    locators = ["path", "cached"]
    base = ChaosSpec(seed=11, posts=60, duplicate_rate=0.05,
                     crash_period=0.8, down_time=0.5)
    table, reports = run_chaos_sweep(drop_rates, locators, base)
    assert_chaos_shape(table, reports)
    spec = ChaosSpec(seed=23, locator="cached", posts=40, drop_rate=0.1)
    rerun(lambda: run_chaos(spec).digest,
          "same-seed chaos runs must be bit-identical")
    emit(table, "chaos", experiment="chaos",
         drop_rates=drop_rates, locators=locators, seed=base.seed,
         posts=base.posts, n_nodes=base.n_nodes,
         crash_period=base.crash_period,
         duplicate_rate=base.duplicate_rate, quick=True,
         digests=[r.digest for r in reports])
    print(table.render())
    print("\nsmoke OK: every post executed exactly once or surfaced a "
          "notice; same-seed runs bit-identical")


def check_durability() -> None:
    """Reduced checkpoint-interval sweep with ``durable_delivery`` on:
    zero journaled posts lost, checkpoint-bounded recovery replay,
    sub-2x fault-free journal overhead. Emits
    ``BENCH_durability.json``."""
    from bench_durability import assert_durability_shape
    from repro.bench.chaos import ChaosSpec, run_chaos
    from repro.bench.durability import (
        measure_fault_free_overhead,
        run_durability_sweep,
    )

    checkpoint_intervals = [8, 32, None]
    base = ChaosSpec(seed=7, durable=True, posts=120, drop_rate=0.1,
                     crash_period=0.5, down_time=0.4)
    overhead = measure_fault_free_overhead(base)
    table, reports = run_durability_sweep(checkpoint_intervals, base)
    assert_durability_shape(table, reports, overhead)
    spec = ChaosSpec(seed=19, durable=True, posts=60, drop_rate=0.1,
                     crash_period=0.6, down_time=0.4, checkpoint_interval=16)
    rerun(lambda: run_chaos(spec).digest,
          "same-seed durable chaos runs must be bit-identical")
    emit(table, "durability", experiment="durability",
         checkpoint_intervals=[i if i is not None else "off"
                               for i in checkpoint_intervals],
         seed=base.seed, posts=base.posts, n_nodes=base.n_nodes,
         drop_rate=base.drop_rate, crash_period=base.crash_period,
         replay_cost=base.replay_cost, fault_free_overhead=overhead,
         quick=True, digests=[r.digest for r in reports])
    print(table.render())
    print(f"\nfault-free overhead: {overhead['journal_appends']} appends "
          f"for {overhead['messages_sent']} messages "
          f"({overhead['appends_per_message']} appends/message)")
    print("smoke OK: zero journaled posts lost; recovery replay bounded "
          "by the checkpoint interval; same-seed runs bit-identical")


def check_supervise() -> None:
    """The E11 sweep: every chaos post executed once, noticed, or
    quarantined with zero wedged handlers under injected hang/raise/
    poison faults; durable posts exactly-once-or-quarantined;
    buddy-breaker delivery totals identical on/off with the supervised
    mean stall at most half the bare one. Emits
    ``BENCH_supervise.json``."""
    from bench_e11_supervise import assert_supervise_shape
    from repro.bench.supervise import (
        SuperviseSpec,
        deterministic_view,
        run_handler_faults,
        run_supervise_sweep,
    )

    spec = SuperviseSpec(seed=7, posts=60, buddy_posts=40)
    table, results = run_supervise_sweep(spec)
    assert_supervise_shape(results)
    probe = SuperviseSpec(seed=19, posts=40)
    rerun(lambda: run_handler_faults(probe, supervised=True, durable=True),
          "same-seed supervised runs must be bit-identical",
          view=deterministic_view)
    emit(table, "supervise", experiment="supervise", seed=spec.seed,
         posts=spec.posts, buddy_posts=spec.buddy_posts,
         hang_rate=spec.hang_rate, raise_rate=spec.raise_rate,
         poison_rate=spec.poison_rate, drop_rate=spec.drop_rate,
         crash_period=spec.crash_period, quick=True,
         results={w: {m: deterministic_view(r) for m, r in modes.items()}
                  for w, modes in results.items()})
    print(table.render())
    faults = results["handler-faults"]
    buddy = results["buddy-breaker"]
    print(f"\nsmoke OK: accounted {faults['off']['accounted_rate']} -> "
          f"{faults['on']['accounted_rate']}, hung "
          f"{faults['off']['hung_handlers']} -> "
          f"{faults['on']['hung_handlers']}; buddy mean stall "
          f"{buddy['off']['mean_latency']}s -> "
          f"{buddy['on']['mean_latency']}s; same-seed runs bit-identical")


def check_soak() -> None:
    """Scaled-down E12 soak (20k posts) on the wheel backend: the phase
    invariants (no lost posts, outbox drained — run_soak's phases raise
    on violation) and no >20% burst throughput regression against the
    committed ``BENCH_soak.json`` (measured on the dev machine)."""
    from repro.bench.soak import SoakSpec, deterministic_view, run_soak

    baseline_burst = baseline("soak")["phases"]["burst"]["wall_posts_per_sec"]
    min_fraction = floor_fraction(0.8)
    floor = baseline_burst * min_fraction

    spec = SoakSpec(posts=20_000, scheduler="wheel")
    table, payload = run_soak(spec)
    table.show()

    # Same-seed determinism: every column but wall-clock is bit-identical.
    rerun(lambda: run_soak(spec)[1], first=payload,
          message="same-seed soak phases not deterministic",
          view=lambda p: {phase: deterministic_view(row)
                          for phase, row in p["phases"].items()})

    burst = payload["phases"]["burst"]["wall_posts_per_sec"]
    assert burst >= floor, (
        f"burst throughput regression: {burst} posts/s is below "
        f"{min_fraction:.0%} of the committed baseline "
        f"{baseline_burst} posts/s (floor {floor:.1f})")

    print(f"\nsmoke OK: {payload['total_posts']} posts, burst "
          f"{burst} posts/s >= {min_fraction:.0%} of committed baseline "
          f"{baseline_burst}; deterministic columns bit-identical "
          "across same-seed runs")


def check_overload() -> None:
    """Scaled-down E13 open-loop slice (0.5s arrival window): zero posts
    silently lost, every shed post noticed, zero durable posts lost with
    the outbox drained, bounded p99 against the uncontrolled contrast,
    goodput at 2x against the committed ``BENCH_overload.json``. Goodput
    is deterministic (virtual-time executions over capacity), so the
    floor fraction only absorbs the scaled-down window's edge effects,
    not runner speed."""
    from dataclasses import replace

    from repro.bench.overload import (
        OverloadSpec,
        deterministic_view,
        run_overload,
    )

    base_goodput = baseline("overload")["knee"]["x2.0"]["on"]["goodput_frac"]
    min_fraction = floor_fraction(0.9)
    floor = base_goodput * min_fraction

    spec = OverloadSpec(duration=0.5, offered_x=2.0, policy="drop")
    on = run_overload(spec, control=True)
    off = run_overload(spec, control=False)

    # Zero silent losses, every shed post noticed (run_overload already
    # asserts per-post accounting; re-check the headline counters).
    assert on["lost"] == 0 and off["lost"] == 0, (on, off)
    assert on["shed_dropped"] > 0, on
    assert on["notices"] >= on["shed_dropped"], on
    # Bounded p99: the admission watermark caps queueing where the
    # uncontrolled run's tail grows with the arrival window.
    assert on["p99_latency"] <= 0.5 * off["p99_latency"], (on, off)
    # Goodput at 2x overload holds against the committed baseline.
    assert on["goodput_frac"] >= floor, (
        f"goodput regression: {on['goodput_frac']} below "
        f"{min_fraction:.0%} of the committed baseline {base_goodput} "
        f"(floor {floor:.4f})")

    # Durable defer: every post deferred-then-executed, none lost
    # (run_overload asserts the outbox drained and lost == 0).
    defer = run_overload(replace(spec, policy="defer", durable=True),
                         control=True)
    assert defer["shed_deferred"] > 0, defer
    assert defer["executed"] == defer["offered_posts"], defer

    # Same-seed determinism: every column but wall-clock bit-identical.
    rerun(lambda: run_overload(spec, control=True), first=on,
          message="same-seed overload runs not deterministic",
          view=deterministic_view)

    print(f"smoke OK: {on['offered_posts']} posts at 2x, goodput "
          f"{on['goodput_frac']} >= floor {floor:.4f}, p99 "
          f"{on['p99_latency']}s vs uncontrolled {off['p99_latency']}s, "
          f"{on['shed_dropped']} shed all noticed, "
          f"{defer['shed_deferred']} durable posts deferred and drained; "
          "deterministic columns bit-identical across same-seed runs")


def check_churn() -> None:
    """SWIM membership guarantees:

    * a seeded churn chaos run (drops + scheduled leave/crash/rejoin with
      gossip membership on) accounts for every post — executed exactly
      once, noticed, or quarantined — on both the heap and timing-wheel
      scheduler backends, with bit-identical digests across backends and
      across same-seed repeats;
    * a small sharded churn run loses zero posts and every stable node's
      view converges (no suspects, no deads) once churn ends;
    * the scaling shape holds: SWIM's per-node failure-detection load is
      flat as the cluster grows;
    * the acceptance-size (64-node) churn run's message throughput stays
      within the floor fraction of the committed
      ``BENCH_membership.json``, so a hot-path regression in the
      membership layer fails CI instead of landing silently.
    """
    from repro.bench.membership import (
        check_scaling,
        run_churn_row,
        run_churn_sharded,
        run_detection_row,
    )

    # -- churn invariant, heap vs wheel differential -------------------
    heap = run_churn_row(16, scheduler="heap")
    wheel = run_churn_row(16, scheduler="wheel")
    assert heap["accounted"] == 1.0, heap
    assert wheel["accounted"] == 1.0, wheel
    assert heap["digest"] == wheel["digest"], (
        "heap vs wheel churn digests diverged: "
        f"{heap['digest'][:16]} != {wheel['digest'][:16]}")
    rerun(lambda: run_churn_row(16, scheduler="heap"), first=heap,
          message="same-seed churn runs must be bit-identical",
          view=lambda row: row["digest"])
    assert heap["churn_events"] > 0 and heap["rejoins"] > 0, heap

    # -- sharded churn: zero losses, converged views -------------------
    sharded = run_churn_sharded(16, 2)
    assert sharded["executed"] == sharded["raised"], sharded
    assert sharded["converged"], sharded
    assert sharded["cross_shard"] > 0, "churn run never crossed a shard"

    # -- O(1) failure-detection load -----------------------------------
    check_scaling([run_detection_row(n) for n in (4, 32)])

    # -- throughput regression floor vs the committed baseline ---------
    base_row = next(r for r in baseline("membership")["rows"]["churn"]
                    if r["nodes"] == 64 and r["scheduler"] == "heap")
    min_fraction = floor_fraction(0.5)
    floor = base_row["msgs_per_sec"] * min_fraction
    row = run_churn_row(64)
    assert row["digest"] == base_row["digest"], (
        "64-node churn digest drifted from the committed baseline: "
        f"{row['digest'][:16]} != {base_row['digest'][:16]}")
    assert row["msgs_per_sec"] >= floor, (
        f"churn throughput regression: {row['msgs_per_sec']:.0f} msgs/s "
        f"is below {min_fraction:.0%} of the committed baseline "
        f"{base_row['msgs_per_sec']:.0f} msgs/s (floor {floor:.0f})")

    print(f"\nsmoke OK: churn accounted=1.0 on heap+wheel "
          f"(digest {heap['digest'][:12]}, identical), sharded 16n/2s "
          f"converged with {sharded['executed']}/{sharded['raised']} "
          f"posts, swim load flat, 64-node churn "
          f"{row['msgs_per_sec']:.0f} msgs/s >= {min_fraction:.0%} of "
          f"baseline {base_row['msgs_per_sec']:.0f}")


def check_transport() -> None:
    """Three quick proofs that the transport port holds its contract:

    1. **sim — bit-identity.** Three frozen chaos/durable/fastpath specs
       must reproduce their pre-port reference digests exactly, on both
       the heap and wheel schedulers.  Any change to the sim transport
       path that perturbs message scheduling order fails here first.
    2. **sharded — determinism + ground truth.** A 16-node / 4-shard
       multi-process run of the E14 scenario twice: same-seed digests
       must match each other, per-node delivery counts must match the
       independently computed expected distribution, and nothing may be
       lost across the pipe barriers.
    3. **tcp — real sockets end to end.** The loopback example cluster
       with reliable+durable knobs on: the invocation completes, every
       durable post lands, the outbox drains.
    """
    import subprocess
    from collections import Counter

    from repro.bench.chaos import ChaosSpec, run_chaos
    from repro.bench.scale import (
        ScaleSpec,
        _node_targets,
        _scenario_args,
        run_scale_sharded,
    )

    #: same-seed reference digests frozen at the pre-port HEAD; the sim
    #: backend must stay bit-identical to these
    reference_digests = {
        "chaos": (
            "49b1db13dad533366ef6c9742bdcedde966064d7c3ca5fd14f750b1e637aa056",
            ChaosSpec(seed=23, locator="cached", posts=40, drop_rate=0.1)),
        "durable": (
            "3327ab851341d539023b96a2a25ea58e6c91d3a28463f8c931d9190655cb11ba",
            ChaosSpec(seed=31, posts=40, drop_rate=0.1, durable=True,
                      crash_period=0.8, down_time=0.5)),
        "fastpath": (
            "337c61956bfa83b586ada5d156a6e42a9e599bb428087e9cb02e8ab9680cb2b7",
            ChaosSpec(seed=7, posts=50, drop_rate=0.05, duplicate_rate=0.05)),
        "chaos-wheel": (
            "49b1db13dad533366ef6c9742bdcedde966064d7c3ca5fd14f750b1e637aa056",
            ChaosSpec(seed=23, locator="cached", posts=40, drop_rate=0.1,
                      scheduler="wheel")),
    }
    for name, (want, spec) in reference_digests.items():
        report = run_chaos(spec)
        assert report.digest == want, (
            f"sim transport broke bit-identity: {name} digest "
            f"{report.digest} != frozen reference {want}")
        assert not report.violations, (name, report.violations)
    print(f"sim OK: {len(reference_digests)} frozen digests reproduced "
          "bit-identically (heap + wheel)")

    spec = ScaleSpec(n_nodes=16, shard_count=4, posts_per_node=50)
    first = run_scale_sharded(spec)
    rerun(lambda: run_scale_sharded(spec), first=first,
          message="sharded same-seed runs diverged",
          view=lambda result: result["digest"])
    assert first["executed"] == first["raised"] == spec.total_posts, first
    # independent ground truth: the deterministic target schedule
    expected = Counter()
    args = _scenario_args(spec)
    for node in range(spec.n_nodes):
        for target in _node_targets(args, node, spec.n_nodes):
            expected[target] += 1
    merged = Counter({int(k): v for k, v in first["per_node"].items()})
    assert merged == expected, (
        f"sharded per-node deliveries diverge from the schedule: "
        f"{merged} != {expected}")
    print(f"sharded OK: 16 nodes / 4 shards, {first['executed']} posts "
          f"({first['cross_shard']} cross-shard) reproducible at digest "
          f"{first['digest'][:12]}")

    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "tcp_cluster.py")],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, (
        f"tcp example failed:\n{proc.stdout}\n{proc.stderr}")
    assert "0 outbox entries left pending" in proc.stdout, proc.stdout
    print("tcp OK: loopback example ran reliable+durable end to end")
    print("transport smoke passed")


def check_workload_app() -> None:
    """E13 workload generator driven over a real application (the pager).

    The E13 bench exercises the open-loop generator against synthetic
    sink objects; this check wires the same generator — bursty arrivals,
    Zipf target popularity, multi-tenant raisers, periodic fan-out storms
    — over the §6.4 user-level VM manager. Each arrival spawns a real
    ``touch`` thread against the pageable region (the Zipf target picks
    the key, the tenant picks the raiser node); every ``fanout_every``-th
    arrival becomes a read storm over the whole key population instead.

    Asserts per-arrival accounting (every scheduled arrival spawned a
    thread and every thread completed), that the workload actually drove
    the pager (VM faults raised and served, pages transferred), that
    Zipf popularity shows up as fault locality (the hot key needs at
    most as many faults as touches — pages stay materialised), and
    same-seed determinism of the whole run.
    """
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

    spec = WorkloadSpec(seed=17, duration=0.5, rate=60.0, arrival="bursty",
                        burst_factor=6.0, burst_fraction=0.2,
                        n_targets=5, zipf_s=1.2, fanout_every=8,
                        tenants=(0, 1, 2, 3))

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
                # fan-out storm: one thread reads the whole key population
                threads.append(cluster.spawn(region_cap, "read_all",
                                             pager_cap, keys, at=node))
            else:
                threads.append(cluster.spawn(region_cap, "touch", pager_cap,
                                             [keys[arrival.target]], 2,
                                             at=node))

        drive(cluster, schedule, fire)
        cluster.run()

        assert len(threads) == len(schedule), \
            f"spawned {len(threads)} of {len(schedule)} scheduled arrivals"
        results = [t.completion.result() for t in threads]  # raises if failed
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

    # The generator produced a real open-loop schedule with the shapes on.
    assert run["arrivals"] > 10, run
    assert run["storms"] == shape["fanouts"] > 0, run
    assert len(shape["tenant_counts"]) == len(spec.tenants), shape
    assert shape["hot_target_share"] > 1.0 / spec.n_targets, shape

    # The schedule drove the real app: faults raised, served by the
    # user-level pager, pages moved between nodes, strict consistency
    # held throughout.
    assert run["vm_faults"] > 0 and run["faults_served"] > 0, run
    assert run["page_transfers"] > 0, run
    assert run["consistency_violations"] == 0, run
    # Pages stay materialised once the pager serves them, so faults are
    # bounded by the touch population, not by the arrival count.
    assert run["faults_served"] <= run["vm_faults"], run

    # Same-seed replays are bit-identical end to end, app included.
    rerun(run_once, first=run,
          message="same-seed workload-over-pager runs diverged")

    print(f"smoke OK: {run['arrivals']} open-loop arrivals "
          f"({run['storms']} fan-out storms, hot-key share "
          f"{shape['hot_target_share']}) drove the pager app: "
          f"{run['vm_faults']} VM faults, {run['faults_served']} served, "
          f"{run['page_transfers']} page transfers, 0 consistency "
          f"violations; same-seed replay bit-identical")


CHECKS = {
    "e2": check_e2,
    "chaos": check_chaos,
    "durability": check_durability,
    "supervise": check_supervise,
    "soak": check_soak,
    "overload": check_overload,
    "churn": check_churn,
    "transport": check_transport,
    "workload_app": check_workload_app,
}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", nargs="?", choices=list(CHECKS))
    parser.add_argument("--list", action="store_true",
                        help="print the check names and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(CHECKS))
    elif args.name is None:
        parser.error("name a check to run (--list prints them)")
    else:
        CHECKS[args.name]()


if __name__ == "__main__":
    main()
