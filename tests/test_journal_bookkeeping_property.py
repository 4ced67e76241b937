"""The journal's counters and the checkpoint countdown, as a property.

``NodeJournal.append`` stamps a record inline (no ``_stamp`` relay, no
``JournalRecord.__init__``) and ``append_batch`` stamps each of its
records through it; the store tests ``journal.appends >=
checkpoints.due_at`` inline after each journaled operation instead of
counting through ``_after_append`` and ``note_append``. The reference
below counts from the arguments of the public calls alone: every
``append`` is one commit, every non-empty batch is one, a record weighs
``RECORD_SIZES[rtype]``, and a checkpoint is due once ``interval``
payload records follow the last one.

Two kinds of drawn program run against it. One drives a bare
``NodeJournal`` with a ``CheckpointManager``: appends, batches (empty
ones too), explicit checkpoints and truncations at any LSN, with the
store's inline test after each payload operation. The other raises
durable posts between the two nodes of a cluster and crashes and
recovers either node, with durable delivery on or off. After every
step, on every journal:

* ``appends == retained + records_truncated``;
* ``bytes_appended`` is the sum of the appended records' sizes;
* ``commits`` is the number of appends plus of non-empty batches;
* the retained LSNs are consecutive and end at ``appends``;
* ``tail()`` is the list comprehension it replaced;
* a checkpoint is taken exactly when a payload operation brings the
  records since the last one to ``checkpoint_interval`` or past it;
* nothing is journaled or checkpointed while ``durable_delivery`` is off.

At the end the cluster's audit may report one kind of violation only: a
non-durable post from node 0 still in flight when node 0 crashed, open
at idle (DESIGN.md §6: a non-durable post dies with its origin).

The example budget is the hypothesis profile's (``tests/conftest.py``):
CI runs this file again under ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from math import inf

from hypothesis import given, settings, strategies as st

from repro import Cluster, ClusterConfig
from repro.store import CheckpointManager, NodeJournal, REC_CHECKPOINT
from repro.store.journal import RECORD_SIZES
from tests.conftest import accept_violations
from tests.frames import MUTED, PrivateSink

PAYLOAD = tuple(rtype for rtype in RECORD_SIZES if rtype != REC_CHECKPOINT)


class Reference:
    """A journal's counters, from the arguments of its public calls."""

    def __init__(self) -> None:
        self.appends = self.commits = self.bytes = 0
        #: payload records since the last checkpoint record
        self.since = 0
        self.checkpoints = 0

    def note(self, rtype: str) -> None:
        self.appends += 1
        self.bytes += RECORD_SIZES[rtype]
        if rtype == REC_CHECKPOINT:
            self.since = 0
            self.checkpoints += 1
        else:
            self.since += 1


def watch(journal: NodeJournal, interval: int | None) -> Reference:
    """Count every ``append`` and ``append_batch`` call ``journal``
    gets, and hold the store to its countdown: no payload operation
    starts with a checkpoint overdue, and an automatic one comes only
    once the records since the last reached ``interval``."""
    ref = Reference()
    append, append_batch = journal.append, journal.append_batch

    def payload_starts():
        assert interval is None or ref.since < interval, "checkpoint missed"

    def counted_append(rtype, /, **data):
        if rtype == REC_CHECKPOINT:
            assert interval is not None and ref.since >= interval, (
                "checkpoint early")
        else:
            payload_starts()
        ref.note(rtype)
        ref.commits += 1
        return append(rtype, **data)

    def counted_batch(ops):
        payload_starts()
        for rtype, _data in ops:
            ref.note(rtype)
        ref.commits += 1 if ops else 0
        return append_batch(ops)

    journal.append, journal.append_batch = counted_append, counted_batch
    return ref


def check(journal: NodeJournal, ref: Reference) -> None:
    records = list(journal)
    assert journal.appends == ref.appends
    assert journal.appends == len(records) + journal.records_truncated
    assert journal.bytes_appended == ref.bytes
    assert journal.commits == ref.commits
    first = journal.appends - len(records) + 1
    assert [r.lsn for r in records] == list(range(first, journal.appends + 1))
    assert all(r.size == RECORD_SIZES[r.rtype] for r in records)
    checkpoints = [r for r in records if r.rtype == REC_CHECKPOINT]
    newest = checkpoints[-1] if checkpoints else None
    assert journal.latest_checkpoint() is newest
    assert journal.tail() == ([r for r in records if r.lsn > newest.lsn]
                              if newest is not None else records)


# ----------------------------------------------------------------------
# a bare journal
# ----------------------------------------------------------------------

JOURNAL_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.sampled_from(PAYLOAD)),
    st.tuples(st.just("batch"),
              st.lists(st.sampled_from(PAYLOAD), max_size=4)),
    st.tuples(st.just("take"), st.none()),
    # an LSN to truncate below, back from the next one to be assigned
    st.tuples(st.just("truncate"), st.integers(0, 8))), max_size=40)


@given(interval=st.none() | st.integers(1, 6), ops=JOURNAL_OPS)
def test_journal_counters_and_countdown(interval, ops):
    journal = NodeJournal(0)
    checkpoints = CheckpointManager(journal, interval)
    ref = Reference()
    for step, (op, arg) in enumerate(ops):
        if op == "append":
            journal.append(arg, entry_id=(0, step))
            ref.note(arg)
            ref.commits += 1
        elif op == "batch":
            journal.append_batch([(rtype, {"entry_id": (0, step)})
                                  for rtype in arg])
            for rtype in arg:
                ref.note(rtype)
            ref.commits += 1 if arg else 0
        elif op == "take":
            checkpoints.take({"step": step})
            ref.note(REC_CHECKPOINT)
            ref.commits += 1
        else:
            journal.truncate_before(max(0, journal.appends + 1 - arg))
        if op in ("append", "batch"):
            # the store's inline test after a journaled operation
            due = interval is not None and ref.since >= interval
            assert (journal.appends >= checkpoints.due_at) is due
            if due:
                checkpoints.take({"step": step})
                ref.note(REC_CHECKPOINT)
                ref.commits += 1
        check(journal, ref)
        assert checkpoints.taken == ref.checkpoints


# ----------------------------------------------------------------------
# durable posts on a crashing cluster
# ----------------------------------------------------------------------

CLUSTER_STEPS = st.lists(st.one_of(
    st.tuples(st.just("post"), st.integers(0, 1), st.integers(1, 8)),
    st.tuples(st.just("run"), st.none(),
              st.sampled_from((1e-4, 1e-3, 4e-3, 0.05))),
    st.tuples(st.just("crash"), st.integers(0, 1), st.none()),
    st.tuples(st.just("recover"), st.integers(0, 1), st.none())),
    max_size=10)


@settings(deadline=None)
@given(durable=st.booleans(), interval=st.integers(1, 6),
       steps=CLUSTER_STEPS)
def test_store_bookkeeping_on_a_crashing_cluster(durable, interval, steps):
    cluster = Cluster(ClusterConfig(
        n_nodes=2, reliable_delivery=True, durable_delivery=durable,
        checkpoint_interval=interval))
    cluster.tracer.mute(*MUTED)
    kernels = cluster.kernels
    refs = {node: watch(kernel.store.journal, interval if durable else None)
            for node, kernel in kernels.items()}
    cluster.register_event("POST")
    cap = cluster.create_object(PrivateSink, node=1)

    def check_all():
        for node, kernel in kernels.items():
            check(kernel.store.journal, refs[node])
            assert kernel.store.checkpoints.taken == refs[node].checkpoints
            if not durable:  # and the countdown is off
                assert kernel.store.journal.appends == 0
                assert kernel.store.checkpoints.taken == 0
                assert kernel.store.checkpoints.due_at == inf

    crashed_at = {node: [] for node in kernels}
    for op, node, arg in steps:
        if op == "post" and not kernels[node].crashed:
            for _ in range(arg):
                cluster.raise_event("POST", cap, from_node=node)
        elif op == "run":
            cluster.run(until=cluster.now + arg)
        elif op == "crash":
            crashed_at[node].append(cluster.now)
            cluster.crash_node(node)
        elif op == "recover":
            cluster.recover_node(node)
        check_all()
    for node, kernel in kernels.items():
        if kernel.crashed:
            cluster.recover_node(node)
    cluster.run()
    check_all()
    if durable:
        # every journaled post was acknowledged, so none is pending
        assert cluster.durability_stats()["pending"] == 0
    # A non-durable post still in its origin's reliable channel when that
    # node crashes dies with it (DESIGN.md §6): never delivered, open at
    # idle. A durable one is redelivered from the journal.
    for violation in accept_violations(cluster):
        block = cluster.events.settle.open[violation.block_id]
        assert not durable and block.raiser_node == 0
        assert (violation.kind, violation.stage) == ("open at idle",
                                                     "in flight to node 1")
        assert any(at >= block.raised_at for at in crashed_at[0])
