"""Tests of the E17 benchmark itself.

Run explicitly (tier-1 ``testpaths`` stays ``tests``)::

    PYTHONPATH=src python -m pytest benchmarks/e17/test_e17.py -q
"""

from __future__ import annotations

import json
import time

import pytest

from e17 import run

run.bootstrap()  # puts src/ on the path before anything imports repro

from e17 import compare, metrics, trace, workloads  # noqa: E402

#: section scale at which every workload finishes in about a second
TINY = 0.03


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", (False, True))
def test_workload_section_passes_its_checks(workload, traced):
    section = run.run_section(workload, seed=5, traced=traced, scale=TINY)
    assert section["failed"] == 0
    assert section["executed"] == section["attempted"] > 0
    assert all(section["checks"].values()), section["checks"]
    assert set(section["end_to_end"]) == {m[0] for m in metrics.END_TO_END}
    assert all(value > 0 for value in section["end_to_end"].values())
    if traced:
        # layer self times plus `other` sum to the traced wall exactly
        assert section["checks"]["trace_sums_to_wall"]
        reported = set(section["per_layer"]) | {"trace.overhead_fraction"}
        assert reported == {m[0] for m in metrics.PER_LAYER}
        lines = (run.OUT_DIR / f"trace-{workload}.jsonl").read_text()
        spans = [json.loads(line) for line in lines.splitlines()]
        assert spans and all(s["end_ns"] >= s["start_ns"] for s in spans)
        assert any(s["post"] is not None for s in spans)


def test_benchmark_json_matches_the_metric_definitions():
    spec = run.load_spec()
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert ([w["name"] for w in spec["workloads"]]
            == list(workloads.WORKLOADS))
    assert spec["paths"] == ["benchmarks/e17"]


def test_nested_span_self_time_arithmetic(monkeypatch):
    ticks = iter([0,            # begin
                  10,           # enter a
                  15,           # enter b (child of a)
                  40,           # exit b: 25 long
                  50,           # exit a: 40 long, 25 covered -> 15 self
                  60,           # enter c
                  90,           # exit c: 30 self
                  100])         # end: 100 long, 70 covered -> 30 other
    monkeypatch.setattr(trace, "perf_counter_ns", lambda: next(ticks))
    tracer = trace.Tracer()
    tracer.begin()
    a = tracer.enter("x.layer:a", None, 0)
    b = tracer.enter("y.layer:b", None, 0)
    tracer.exit(b)
    tracer.exit(a)
    c = tracer.enter("x.layer:c", 7, 0)
    tracer.exit(c)
    tracer.end()
    assert tracer.spans == {"y.layer:b": [25, 1], "x.layer:a": [15, 1],
                            "x.layer:c": [30, 1], "other:root": [30, 1]}
    assert tracer.wall_ns == 100 == sum(s[0] for s in tracer.spans.values())
    by_id = {record[0]: record for record in tracer.records}
    # (id, name, start, end, parent, cause, post): b's parent is a, whose
    # parent is the root; c carries its own post id
    assert by_id[3][4] == 2 and by_id[2][4] == 1
    assert by_id[4][6] == 7


def test_tracing_patches_and_restores_every_wrapped_attribute():
    originals = {(owner, attr): vars(owner)[attr]
                 for owner, attr in trace.wrapped_attributes()}

    def current():
        return {key: vars(key[0])[key[1]] for key in originals}

    clock = workloads.SectionClock(time.time())
    assert workloads.local_burst(1, 0.01, clock)["failed"] == 0
    assert current() == originals  # an untraced run touches nothing

    tracer = trace.install()
    try:
        assert all(current()[key] is not originals[key] for key in originals)
        clock = workloads.SectionClock(time.time())
        outcome = workloads.local_burst(1, 0.01, clock)
        assert outcome["failed"] == 0
        assert tracer.spans["events.delivery:raise_external"][1] \
            == outcome["raises"]
    finally:
        trace.uninstall()
    assert current() == originals
    assert trace.current() is None


def test_seed_decides_the_inputs():
    assert workloads.chase_inputs(1, 200) == workloads.chase_inputs(1, 200)
    assert workloads.chase_inputs(1, 200) != workloads.chase_inputs(2, 200)
    assert (workloads.shard_targets(1, 3, 200)
            != workloads.shard_targets(2, 3, 200))


@pytest.mark.parametrize("workload", workloads.DETERMINISTIC)
def test_same_seed_reproduces_every_deterministic_count(workload):
    first = run.run_section(workload, seed=9, traced=False, scale=TINY)
    again = run.run_section(workload, seed=9, traced=False, scale=TINY)
    other = run.run_section(workload, seed=10, traced=False, scale=TINY)
    assert first["digest"] == again["digest"] != other["digest"]
    exact = [name for name, unit, _better in metrics.PER_LAYER
             if unit in metrics.EXACT_UNITS and name in first["counts"]]
    assert len(exact) > 25
    assert ([first["counts"][name] for name in exact]
            == [again["counts"][name] for name in exact])


def test_compare_verdicts():
    steady, lower = [100.0, 101.0, 99.0, 100.5], [80.0, 81.0, 79.0, 80.5]
    noisy = [70.0, 100.0, 130.0, 95.0]
    assert compare.verdict(steady, steady, 0.1, "higher") == "same"
    assert compare.verdict(steady, lower, 0.1, "higher") == "worse"
    assert compare.verdict(steady, lower, 0.1, "lower") == "better"
    assert compare.verdict(steady, noisy, 0.1, "higher") == "unresolved"
    # noisy, but every new section beats every base section
    assert compare.verdict(noisy, [150.0, 190.0, 230.0], 0.1,
                           "higher") == "better"
    # exact metrics: identical samples are the same, any move is a verdict
    assert compare.verdict([3.0, 3.0], [3.0, 3.0], 0.0, "lower") == "same"
    assert compare.verdict([3.0, 3.0], [4.0, 4.0], 0.0, "lower") == "worse"
