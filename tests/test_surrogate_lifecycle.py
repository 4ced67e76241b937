"""The handler surrogate's lifecycle as a property.

A drawn program of notices, migrations, deaths, crashes and handler
faults (raises, watchdog expiries) runs against three threads, one per
handler context; after every step the cluster is quiescent and must look
the same way: each live user thread has at most one live surrogate — its
own, on its node, parked, frameless, its kept activation holding no
generator, object or block — finished owners have none, nothing reads as hung, and no
table still names a dead surrogate. The handler log is exactly-once and
LIFO per notice, and two same-seed runs of one program are equal. The
locator is drawn from all four (``cached`` falls back to ``multicast``,
so that draw keeps hints and groups both).

The example budget is the hypothesis profile's (``tests/conftest.py``):
CI runs this file again under ``--hypothesis-profile=ci``.
"""

from functools import partial

from hypothesis import given, settings, strategies as st

from repro import Decision, DistObject, entry, handler_entry
from repro.bench.scenario import hung_handlers
from repro.sim import Channel
from repro.threads.thread import KIND_SURROGATE, KIND_USER
from tests.conftest import location_state, make_cluster

CONTEXTS = ("current", "attaching", "buddy")
DEPTH = 2
POISON_THRESHOLD = 2
#: node 2 is where threads visit, node 3 hosts the buddy and never crashes
AWAY, BUDDY_NODE = 2, 3
#: what the handlers of one notice do, and the positions that then run
ACTS = {"chain": [0, 1], "resume": [0], "sync": [0, 1], "overrun": [0, 1],
        "raise": [0, 1], "overrun-raise": [0, 1],
        "poison": [0, 1] * POISON_THRESHOLD}
#: acts whose handler at position ``pos`` raises
RAISES = {"poison": (0, 1), "raise": (0,), "overrun-raise": (DEPTH - 1,)}


def _handle(log, pos, hctx, block):
    """Handler at chain position ``pos`` (0 runs first); the notice's
    ``user_data`` is ``(id, act)``."""
    nid, act = block.user_data
    log.append((nid, pos, hctx.tid, hctx.real_tid))
    yield hctx.compute(1e-3)
    if pos in RAISES.get(act, ()):
        raise RuntimeError(f"notice {nid}: handler {pos} crashed")
    if act in ("overrun", "overrun-raise") and pos == 0:
        yield hctx.sleep(1e9)  # the watchdog's 50 ms come first
    if act == "resume" or pos == DEPTH - 1:
        if act == "sync":
            yield hctx.resume_raiser(block, nid)
        return Decision.RESUME
    return Decision.PROPAGATE


class Handlers(DistObject):
    def __init__(self, log):
        super().__init__()
        self.log = log

    @handler_entry
    def h0(self, ctx, block):
        return (yield from _handle(self.log, 0, ctx, block))

    @handler_entry
    def h1(self, ctx, block):
        return (yield from _handle(self.log, 1, ctx, block))


class Worker(Handlers):
    """A thread that goes where its inbox tells it."""

    @entry
    def work(self, ctx, context, buddy, inbox, away):
        for pos in reversed(range(DEPTH)):  # LIFO: attached last runs first
            deadline = 0.05 if pos == 0 else None
            if context == "current":
                yield ctx.attach_handler("EVT", partial(_handle, self.log, pos),
                                         deadline=deadline)
            else:
                yield ctx.attach_handler(
                    "EVT", f"h{pos}", deadline=deadline,
                    buddy=buddy if context == "buddy" else None)
        while True:
            command = yield ctx.recv(inbox)
            if command == "finish":
                return "finished"
            if command == "visit":
                yield ctx.invoke(away, "stay", inbox)

    @entry
    def stay(self, ctx, inbox):
        while (yield ctx.recv(inbox)) != "return":
            pass


_steps = st.lists(st.tuples(
    st.sampled_from(["notice", "notice", "group", "visit", "return",
                     "finish", "terminate", "terminate-mid-chain", "crash"]),
    st.integers(0, len(CONTEXTS) - 1), st.sampled_from(sorted(ACTS))),
    min_size=1, max_size=10)
_locators = st.sampled_from(["path", "broadcast", "multicast", "cached"])


class Program:
    def __init__(self, locator):
        self.cluster = cluster = make_cluster(
            n_nodes=4, poison_threshold=POISON_THRESHOLD,
            handler_backoff=1e-3, locator=locator,
            cache_fallback="multicast")
        cluster.register_event("EVT")
        self.log = []
        self.gid = cluster.new_group()
        buddy = cluster.create_object(Handlers, self.log, node=BUDDY_NODE)
        away = cluster.create_object(Worker, self.log, node=AWAY)
        self.inboxes = [Channel(cluster.sim) for _ in CONTEXTS]
        self.threads = [
            cluster.spawn(cluster.create_object(Worker, self.log, node=i % 2),
                          "work", context, buddy, self.inboxes[i], away,
                          at=i % 2, group=self.gid)
            for i, context in enumerate(CONTEXTS)]
        #: notice id -> (target thread, act), per recipient
        self.sent = {}
        self.futures = {}
        self.settle()

    def settle(self):
        self.cluster.run(until=self.cluster.now + 5.0)
        assert self.cluster.quiescent()
        self.check_quiescent_invariants()

    def _raise(self, thread, act, gid=None):
        nid = len(self.sent)
        targets = ([t for t in self.threads if t.alive] if gid else [thread])
        self.sent[nid] = ([t.tid for t in targets], act)
        raiser = (self.cluster.raise_and_wait if act == "sync"
                  else self.cluster.raise_event)
        self.futures[nid] = raiser("EVT", gid or thread.tid, from_node=3,
                                   user_data=(nid, act))
        return nid

    def step(self, op, which, act):
        cluster, thread = self.cluster, self.threads[which]
        if op == "notice":
            self._raise(thread, act)
        elif op == "group":
            # a group raise_and_wait wants every member's resume
            self._raise(thread, "chain" if act == "sync" else act, self.gid)
        elif op in ("visit", "return", "finish"):
            self.inboxes[which].put(op)
        elif op == "terminate":
            cluster.invoker.terminate_thread(thread, reason="test")
        elif op == "terminate-mid-chain":
            nid, begun = self._raise(thread, "chain"), len(self.log)
            while thread.alive and len(self.log) == begun \
                    and not cluster.quiescent():
                cluster.run(until=cluster.now + 2e-4)
            cluster.invoker.terminate_thread(thread, reason="test")
            self.sent[nid] = (self.sent[nid][0], "cut")
        else:
            node = (0, 1, AWAY)[which]
            cluster.crash_node(node)
            cluster.run(until=cluster.now + 0.5)
            cluster.recover_node(node)
        self.settle()

    # -- what must hold whenever nothing is scheduled --

    def check_quiescent_invariants(self):
        cluster = self.cluster
        live = list(cluster.live_threads.values())
        surrogates = [t for t in live if t.kind == KIND_SURROGATE]
        assert all(t.alive for t in live)
        for thread in self.threads:
            mine = [s for s in surrogates if s.impersonates == thread.tid]
            if not thread.alive:
                assert mine == [], "a finished owner kept a surrogate"
                continue
            assert thread.kind == KIND_USER and len(mine) <= 1
            for surrogate in mine:
                assert surrogate is thread.chain_surrogate
                assert surrogate.current_node == thread.current_node
                assert surrogate.frames == []
                assert surrogate.wait_kind == "parked"
                # the activation it keeps for the next run pins nothing
                kept = surrogate.kept
                assert kept.ctx is not None
                assert (kept.gen, kept.obj, kept.event_block) == (
                    None, None, None)
                assert not surrogate.pending_notices
        assert hung_handlers(cluster) == []
        # no table names a surrogate that is gone
        alive = {t.tid for t in live}
        known = {t.tid for t in self.threads} | {
            tid for _, _, _, tid in self.log}
        for tid in known - alive:
            assert location_state(cluster, tid) == {"multicast": [],
                                                    "hints": []}
            assert all(tid not in k.thread_table
                       for k in cluster.kernels.values())

    def check_log(self):
        """Exactly-once and LIFO: per notice and recipient the handlers
        that ran are a prefix of the act's positions — all of them when
        the recipient outlived the notice — under the recipient's name,
        on a surrogate."""
        user_tids = {t.tid for t in self.threads}
        for nid, (recipients, act) in self.sent.items():
            for tid in recipients:
                ran = [pos for n, pos, seen, _ in self.log
                       if n == nid and seen == tid]
                want = ACTS["chain" if act == "cut" else act]
                assert ran == want[:len(ran)], (nid, act, ran)
                if self.cluster.live_threads.get(tid) is not None:
                    assert ran == want, (nid, act, ran)
        assert all(real not in user_tids for _, _, _, real in self.log)
        for nid, future in self.futures.items():
            assert future.done
            if self.sent[nid][1] == "sync" and not future.failed:
                assert future.result() == nid

    def outcome(self):
        cluster = self.cluster
        return (self.log, cluster.now, cluster.message_stats(),
                cluster.scheduler_stats()["scheduled"],
                cluster.tracer.signature(),
                [t.state for t in self.threads])


def _run(steps, locator):
    program = Program(locator)
    for step in steps:
        program.step(*step)
    program.check_log()
    return program.outcome()


@settings(deadline=None)
@given(steps=_steps, locator=_locators)
def test_lifecycle_holds_under_any_program(steps, locator):
    assert _run(steps, locator) == _run(steps, locator)
