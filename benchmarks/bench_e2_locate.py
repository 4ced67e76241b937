"""E2: cost of locating a migrating thread — the three §7.1 strategies
plus the hint-cached fourth locator (``locator="cached"``)."""

import pathlib

from repro.bench.experiments import run_e2
from repro.bench.harness import emit_json

REPO_ROOT = pathlib.Path(__file__).parent.parent


def _rows(table):
    return [dict(zip(table.columns, row)) for row in table.rows]


def assert_e2_shape(table):
    """The paper's cost curves plus the cached locator's amortised win.

    Shared with the CI smoke runner (``benchmarks/smoke.py e2``), which
    calls it on a reduced sweep.
    """
    rows = _rows(table)
    sizes = sorted({row["nodes"] for row in rows})
    depths = sorted({row["migration depth"] for row in rows
                     if row["locator"] == "path"})

    def msgs(locator, nodes, depth):
        for row in rows:
            if (row["locator"], row["nodes"],
                    row["migration depth"]) == (locator, nodes, depth):
                return row["msgs/post"]
        raise AssertionError(f"missing row {locator}/{nodes}/{depth}")

    def latency(locator, nodes, depth):
        for row in rows:
            if (row["locator"], row["nodes"],
                    row["migration depth"]) == (locator, nodes, depth):
                return row["latency/post (ms)"]
        raise AssertionError(f"missing row {locator}/{nodes}/{depth}")

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
    # Path never exceeds n hops (the paper's bound).
    for row in rows:
        if row["locator"] == "path":
            assert row["msgs/post"] <= row["nodes"]
    # Multicast is bounded by group membership, not cluster size, and
    # beats broadcast in large clusters.
    assert msgs("multicast", big, 1) == msgs("multicast", mid, 1)
    assert msgs("multicast", big, 1) < msgs("broadcast", big, 1)
    # Latency: path pays per-hop, broadcast/multicast one round trip.
    for row in rows:
        if row["locator"] == "path" and row["migration depth"] == 4:
            assert row["latency/post (ms)"] > 3.0
        if row["locator"] == "broadcast":
            assert row["latency/post (ms)"] < 2.0
    # --- the fourth locator -------------------------------------------
    for n in sizes:
        for depth in depths:
            if depth >= n:
                continue
            # Hot cache: steady-state posts cost exactly one direct
            # message and one network latency, regardless of cluster
            # size and migration depth.
            assert msgs("cached (hot)", n, depth) == 1.0
            assert latency("cached (hot)", n, depth) < 1.1
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
    # Migrating target: stale hints chase TCB forwarding pointers; the
    # post still delivers (asserted inside run_e2) and stays cheaper
    # than a broadcast.
    for row in rows:
        if row["locator"] == "cached (migrating)":
            if row["nodes"] >= 8:
                assert row["msgs/post"] < msgs("broadcast", row["nodes"], 1)


def test_e2_locate_strategies(benchmark, record):
    table = benchmark.pedantic(
        run_e2, kwargs={"cluster_sizes": (2, 4, 8, 16, 32),
                        "depths": (1, 4), "posts": 10},
        rounds=1, iterations=1)
    record("e2_locate", table)
    emit_json(table, REPO_ROOT / "BENCH_locate.json", experiment="e2_locate",
              cluster_sizes=[2, 4, 8, 16, 32], depths=[1, 4], posts=10)
    assert_e2_shape(table)
