"""The bench scenario runner's own property: any small drawn
:class:`~repro.bench.scenario.Scenario` ends with every post accounted.

Each draw is a 2-5 node cluster whose node 0 raises and never crashes
(the chaos shape): sinks of any kind on the other nodes, grid or
open-loop arrivals, drops, duplicates, crash/recover and isolation of
the other nodes, durable delivery on or off, no handler faults. Its
:class:`~repro.bench.scenario.Outcome` is held to the checks the chaos
experiment applies: no post runs more often than it may, every post is
executed, noticed or quarantined (a durable post to an object: executed
or quarantined), every probe after the heal runs once, nothing is left
wedged and ``audit()`` reports nothing. One known defect is carved out
of the property by name and pinned as a strict xfail below.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.chaos import BASE_CONFIG
from repro.bench.scenario import (
    DURABLE,
    OBJECT,
    SETUP,
    SINK_KINDS,
    Faults,
    Grid,
    Scenario,
    Sinks,
    run_scenario,
)
from repro.bench.workloads import ARRIVAL_KINDS, FANOUT, WorkloadSpec

GROUP = "group"


@st.composite
def scenarios(draw):
    n_nodes = draw(st.integers(2, 5))
    others = tuple(range(1, n_nodes))
    kind = draw(st.sampled_from(SINK_KINDS + (GROUP,)))
    sinks = (Sinks(group=others) if kind == GROUP
             else Sinks(kind, others, compute=draw(
                 st.sampled_from([1e-6, 5e-3]))))
    if draw(st.booleans()):
        arrivals = WorkloadSpec(
            seed=draw(st.integers(0, 2**16)),
            duration=draw(st.sampled_from([0.1, 0.25])),
            rate=draw(st.sampled_from([10.0, 30.0])),
            arrival=draw(st.sampled_from(ARRIVAL_KINDS)),
            n_targets=max(1, len(sinks.nodes)),
            fanout_every=1 if kind == GROUP else 0)
        span = arrivals.duration
    else:
        posts = draw(st.integers(1, 8))
        targets = (tuple([FANOUT] * posts) if kind == GROUP else
                   tuple(draw(st.lists(st.integers(0, len(others) - 1),
                                       min_size=posts, max_size=posts))))
        grid = Grid(0, targets, gap=draw(st.sampled_from([0.01, 0.05])),
                    burst=draw(st.integers(1, 3)), pump=draw(st.booleans()))
        arrivals = (grid,)
        span = -(-posts // grid.burst) * grid.gap
    times = st.floats(0.0, span, allow_nan=False)
    nodes = st.sampled_from(others)
    lengths = st.sampled_from([0.05, 0.2, 0.5])
    faults = Faults(
        drop=draw(st.sampled_from([0.0, 0.1, 0.2])),
        duplicate=draw(st.sampled_from([0.0, 0.1])),
        crashes=tuple(draw(st.lists(st.tuples(times, nodes, lengths),
                                    max_size=2))),
        isolations=tuple(draw(st.lists(st.tuples(times, nodes, lengths),
                                       max_size=2))))
    return Scenario(
        # a handler registered at run time outlives a crash only
        # through the journal: the durable kind implies durable delivery
        config={**BASE_CONFIG, "n_nodes": n_nodes,
                "seed": draw(st.integers(0, 2**16)),
                "durable_delivery": kind == DURABLE or draw(st.booleans())},
        sinks=sinks, arrivals=arrivals, faults=faults, start=SETUP,
        settle=6.0, probe=True)


def rerun_after_crash(outcome) -> set[str]:
    """The known defect pinned below, one violation line per post it
    hit: a post to an object under reliable but not durable delivery
    whose node crashes after running it, before the ack got home, runs
    again when the origin retransmits to the recovered node, whose
    duplicate filter died with its memory."""
    scenario = outcome.scenario
    if (scenario.config["durable_delivery"]
            or scenario.sinks.kind != OBJECT):
        return set()
    crashed = {node for _at, node, _down in scenario.faults.crashes}
    return {f"post {pid}: handler executed {ran} times (duplicate run)"
            for pid, ran in enumerate(outcome.runs[:outcome.posts])
            if ran == 2 and scenario.sinks.nodes[
                outcome.targets[pid]] in crashed}


@settings(deadline=None)
@given(scenario=scenarios())
def test_every_post_is_accounted(scenario):
    outcome = run_scenario(scenario)
    violations = [v for v in outcome.violations
                  if v not in rerun_after_crash(outcome)]
    assert violations == [], violations[:3]
    assert outcome.raised == outcome.posts


#: the minimal draw of the defect above: node 1 is cut off as post 0
#: reaches it, runs the post, and crashes before the ack can get home
RERUN = Scenario(
    config={**BASE_CONFIG, "n_nodes": 2, "seed": 0,
            "durable_delivery": False},
    sinks=Sinks(OBJECT, (1,)),
    arrivals=(Grid(0, (0,), 0.01, pump=False),),
    faults=Faults(crashes=((0.0078125, 1, 0.05),),
                  isolations=((0.0, 1, 0.05),)),
    start=SETUP, settle=6.0, probe=True)


@pytest.mark.xfail(strict=True, reason="a non-durable object post runs "
                   "again after its receiver crashes and recovers")
def test_object_post_runs_once_across_a_receiver_crash():
    outcome = run_scenario(RERUN)
    assert outcome.runs[0] == 1, outcome.violations
