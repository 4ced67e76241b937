"""A muted trace category is off, and tracing is observation only.

Every ``tracer.emit("<category>", ...)`` in the library sits behind
``if "<category>" not in tracer.muted:`` so that a muted category pays
one set test per site reached and evaluates none of the record's fields.
The first test holds that shape for every site by reading the source;
the rest run three scenarios — a notice chasing a migrated thread down
its handler chain, a group ``raise_and_wait``, and remote reliable +
durable object posts under 1 % loss through a checkpoint — and hold what
the shape buys: no ``emit`` call and no ``str(tid)`` while everything is
muted, the same run whether traced or not, and a switch that is read at
the site, not bound when the cluster was built.
"""

import ast
import sys
from functools import cache
from pathlib import Path

import pytest

import repro
from repro import Decision, DistObject, entry, on_event
from repro.bench.workloads import MUTED_CATEGORIES
from repro.sim.trace import Tracer
from repro.threads.ids import ThreadId
from tests.conftest import make_cluster

SRC = Path(repro.__file__).resolve().parent
EVENT = "SITE"
DEPTH = 3


@cache
def _emit_calls():
    """``(file, guarding If or None, Call)`` for every ``.emit(...)`` call
    under ``src/repro`` outside the tracer's own module; the ``If`` is
    the statement whose whole body the call is."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "sim" / "trace.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"):
                stmt = parent[node]
                guard = parent[stmt]
                if not (isinstance(stmt, ast.Expr)
                        and isinstance(guard, ast.If)
                        and guard.body == [stmt] and not guard.orelse):
                    guard = None
                found.append((path, guard, node))
    return found


def _guards(test: ast.expr, tracer: str, category: str) -> bool:
    """``test`` is exactly ``"<category>" not in <tracer>.muted``."""
    return ast.unparse(test) == f"'{category}' not in {tracer}.muted"


def test_every_emit_site_tests_the_switch_first():
    bare = []
    for path, guard, call in _emit_calls():
        where = f"{path.relative_to(SRC)}:{call.lineno}"
        category = call.args[0] if call.args else None
        if not (isinstance(category, ast.Constant)
                and isinstance(category.value, str)):
            bare.append(f"{where}: category is not a string literal")
        elif guard is None:
            bare.append(f"{where}: not the whole body of an `if`")
        elif not _guards(guard.test, ast.unparse(call.func.value),
                         category.value):
            bare.append(f"{where}: `if {ast.unparse(guard.test)}` does not "
                        f"test {category.value!r} against the same "
                        f"tracer's .muted")
    assert not bare, "unguarded emit sites:\n" + "\n".join(bare)
    assert _emit_calls(), "the walk found no emit site at all"


def test_bench_mutes_exactly_the_categories_the_library_emits():
    emitted = {call.args[0].value for _, _, call in _emit_calls()}
    assert set(MUTED_CATEGORIES) == emitted


# ----------------------------------------------------------------------
# the three scenarios
# ----------------------------------------------------------------------

class Hop(DistObject):
    """One frame of a chased thread: attach a handler, then carry the
    thread one node deeper or hold at the innermost frame."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    @entry
    def descend(self, ctx, index, depth, deeper):
        log = self.log

        def handler(hctx, block):
            log.append((hctx.now, hctx.node, index, depth, block.user_data))
            yield hctx.compute(1e-6)
            if depth:
                return Decision.PROPAGATE
            if block.synchronous:
                yield hctx.resume_raiser(block, block.user_data)
            return Decision.RESUME

        yield ctx.attach_handler(EVENT, handler)
        if deeper:
            return (yield ctx.invoke(deeper[0], "descend", index,
                                     depth + 1, deeper[1:]))
        yield ctx.sleep(1e9)


class Sink(DistObject):
    def __init__(self, log):
        super().__init__()
        self.log = log

    @on_event(EVENT)
    def on_post(self, ctx, block):
        self.log.append((ctx.now, ctx.node, block.user_data))
        yield ctx.compute(1e-6)


def _build(mute, **config):
    """A cluster with every category the library emits muted, or none —
    after construction, the way E17 and ``repro.bench`` do it."""
    cluster = make_cluster(**config)
    if mute:
        cluster.tracer.mute(*{call.args[0].value
                              for _, _, call in _emit_calls()})
    cluster.register_event(EVENT)
    return cluster


def _chased(seed, threads, mute):
    """``threads`` threads, each migrated DEPTH nodes deep with a handler
    attached in every frame, in one group."""
    cluster = _build(mute, n_nodes=4, seed=seed)
    log = []
    gid = cluster.new_group()
    spawned = []
    for index in range(threads):
        caps = [cluster.create_object(Hop, log, node=(index + hop) % 4)
                for hop in range(1, DEPTH + 1)]
        spawned.append(cluster.spawn(caps[0], "descend", index, 0, caps[1:],
                                     at=0, group=gid))
    cluster.run(until=0.1)
    return cluster, log, gid, spawned


def _observed(cluster, log):
    return (cluster.now, cluster.message_stats(), cluster.scheduler_stats(),
            cluster.durability_stats(), log)


def thread_chain(seed, mute):
    cluster, log, _, (thread,) = _chased(seed, 1, mute)
    for pid in range(4):
        cluster.raise_event(EVENT, thread.tid, from_node=pid, user_data=pid)
    cluster.run(until=cluster.now + 1.0)
    assert len(log) == 4 * DEPTH
    return _observed(cluster, log)


def group_sync(seed, mute):
    cluster, log, gid, spawned = _chased(seed, 3, mute)
    future = cluster.raise_and_wait(EVENT, gid, from_node=2, user_data=7)
    cluster.run(until=cluster.now + 1.0)
    assert future.result() == [7] * len(spawned)  # one resume each
    assert len(log) == len(spawned) * DEPTH
    return _observed(cluster, log)


def durable_lossy(seed, mute):
    cluster = _build(mute, n_nodes=2, seed=seed, reliable_delivery=True,
                     durable_delivery=True)
    cluster.fabric.faults.drop_rate = 0.01
    log = []
    caps = [cluster.create_object(Sink, log, node=1) for _ in range(4)]
    posts = 400
    for pid in range(posts):
        cluster.sim.call_at(cluster.now + pid * 1e-4, cluster.raise_event,
                            EVENT, caps[pid % 4], 0, pid)
    cluster.run()
    stats = cluster.durability_stats()
    assert stats["pending"] == 0 and stats["checkpoints"] >= 1
    assert cluster.message_stats()["dropped"] >= 1
    assert sorted(row[2] for row in log) == list(range(posts))
    return _observed(cluster, log)


SCENARIOS = [thread_chain, group_sync, durable_lossy]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_muted_run_evaluates_no_record(scenario, monkeypatch):
    emits, strs = [], []
    emit, tid_str = Tracer.emit, ThreadId.__str__

    def spy_emit(self, category, name, **fields):
        emits.append(f"{category}/{name}")
        emit(self, category, name, **fields)

    def spy_str(self):
        caller = sys._getframe(1).f_code
        strs.append(f"{caller.co_filename}:{caller.co_name}")
        return tid_str(self)

    monkeypatch.setattr(Tracer, "emit", spy_emit)
    monkeypatch.setattr(ThreadId, "__str__", spy_str)
    scenario(3, mute=True)
    assert emits == []
    assert strs == []
    scenario(3, mute=False)  # the spies do see an unmuted run
    assert emits and strs


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_tracing_is_observation_only(scenario):
    assert scenario(5, mute=True) == scenario(5, mute=False)


def test_switch_is_read_at_the_site_not_bound_at_build():
    cluster, log, _, (thread,) = _chased(11, 1, mute=False)
    tracer, sim = cluster.tracer, cluster.sim
    t0 = cluster.now

    def raise_at(when, pid):
        sim.call_at(t0 + when, cluster.raise_event, EVENT, thread.tid, 1, pid)

    # the last seq stored before each raise's records, and at the end
    marks = [tracer.records[-1].seq]

    def mark():
        marks.append(tracer.records[-1].seq)

    # one run() holds all three raises: the switch moves between them
    raise_at(0.0, 0)
    sim.call_at(t0 + 0.1, tracer.mute, "event", "net")
    sim.call_at(t0 + 0.15, mark)
    raise_at(0.2, 1)
    sim.call_at(t0 + 0.3, tracer.unmute, "event")
    sim.call_at(t0 + 0.35, mark)
    raise_at(0.4, 2)
    cluster.run(until=t0 + 1.0)
    mark()
    assert [row[4] for row in log] == [0] * DEPTH + [1] * DEPTH \
        + [2] * DEPTH

    def during(pid, category):
        return [r for r in tracer.select(category, after=marks[pid])
                if r.seq <= marks[pid + 1]]

    assert len(during(0, "event")) == len(during(2, "event")) > 0
    assert during(1, "event") == []
    assert during(0, "net") and not during(1, "net") and not during(2, "net")
    # a category nobody muted is stored throughout
    assert len(during(0, "invoke")) == len(during(1, "invoke")) > 0
