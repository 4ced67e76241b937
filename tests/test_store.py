"""Unit tests for the repro.store primitives: the write-ahead journal,
the transactional outbox, and the checkpoint/truncation protocol."""

import pytest

from repro.errors import KernelError
from repro.events.block import EventBlock
from repro.store import (
    CheckpointManager,
    ClusterStore,
    DELIVERED,
    IN_FLIGHT,
    NodeJournal,
    NOTICED,
    Outbox,
    PARKED,
    REC_ACK,
    REC_CHECKPOINT,
    REC_POST,
    REC_REG,
)
from repro.store.journal import RECORD_SIZES


def make_journal():
    return NodeJournal(node_id=0)


def make_block(event="PING"):
    return EventBlock(event=event)


class TestNodeJournal:
    def test_appends_are_lsn_ordered(self):
        journal = make_journal()
        r1 = journal.append(REC_POST, {"entry_id": (0, 1)})
        r2 = journal.append(REC_ACK, {"entry_id": (0, 1), "status": DELIVERED})
        assert (r1.lsn, r2.lsn) == (1, 2)
        assert [r.rtype for r in journal] == [REC_POST, REC_ACK]
        assert journal.appends == 2
        assert journal.bytes_appended == (RECORD_SIZES[REC_POST]
                                          + RECORD_SIZES[REC_ACK])

    def test_unknown_record_type_rejected(self):
        with pytest.raises(KernelError):
            make_journal().append("scribble", {})

    def test_a_batch_with_an_unknown_record_type_appends_nothing(self):
        journal = make_journal()
        with pytest.raises(KernelError):
            journal.append_batch([(REC_POST, {"entry_id": (0, 1)}),
                                  ("scribble", {})])
        assert (len(journal), journal.appends, journal.commits,
                journal.bytes_appended) == (0, 0, 0, 0)

    def test_replay_without_checkpoint_returns_everything(self):
        journal = make_journal()
        journal.append(REC_POST, {"entry_id": (0, 1)})
        journal.append(REC_REG,
                       {"oid": 1, "event": "PING", "fn_name": "on_ping"})
        state, tail = journal.replay()
        assert state is None
        assert [r.rtype for r in tail] == [REC_POST, REC_REG]

    def test_checkpoint_splits_replay_at_newest(self):
        journal = make_journal()
        journal.append(REC_POST, {"entry_id": (0, 1)})
        journal.append(REC_CHECKPOINT, {"state": {"mark": "old"}})
        journal.append(REC_CHECKPOINT, {"state": {"mark": "new"}})
        journal.append(REC_POST, {"entry_id": (0, 2)})
        state, tail = journal.replay()
        assert state == {"mark": "new"}
        assert [r.rtype for r in tail] == [REC_POST]
        assert tail[0].data["entry_id"] == (0, 2)

    def test_truncate_before_drops_prefix_only(self):
        journal = make_journal()
        for i in range(5):
            journal.append(REC_POST, {"entry_id": (0, i + 1)})
        dropped = journal.truncate_before(4)
        assert dropped == 3
        assert [r.lsn for r in journal] == [4, 5]
        assert journal.truncations == 1
        assert journal.records_truncated == 3
        # lsn counter keeps climbing after truncation
        assert journal.append(REC_POST, {"entry_id": (0, 9)}).lsn == 6
        # below the head: nothing to drop, and no truncation counted
        assert journal.truncate_before(4) == 0
        assert journal.truncations == 1
        assert [r.lsn for r in journal] == [4, 5, 6]

    def test_truncated_record_keeps_its_fields(self):
        journal = make_journal()
        held = journal.append(REC_POST, {"entry_id": (0, 1)})
        journal.append(REC_CHECKPOINT, {"state": {}})
        assert journal.truncate_before(2) == 1
        journal.append(REC_ACK, {"entry_id": (0, 1), "status": "delivered"})
        assert (held.lsn, held.rtype, held.data) == (
            1, REC_POST, {"entry_id": (0, 1)})


class TestJournalGroupCommit:
    def test_append_batch_is_one_commit(self):
        journal = NodeJournal(0)
        records = journal.append_batch(
            [(REC_POST, {"entry_id": (0, i)}) for i in range(1, 4)])
        assert [r.lsn for r in records] == [1, 2, 3]
        assert journal.appends == 3
        assert journal.commits == 1
        journal.append(REC_ACK, {"entry_id": (0, 1)})
        assert journal.appends == 4
        assert journal.commits == 2
        assert journal.append_batch([]) == []
        assert journal.commits == 2
        assert journal.stats()["commits"] == 2

    def test_indexed_latest_checkpoint_and_o1_truncate(self):
        journal = NodeJournal(0)
        for i in range(5):
            journal.append(REC_POST, {"entry_id": (0, i)})
        assert journal.latest_checkpoint() is None
        ckpt = journal.append(REC_CHECKPOINT, {"state": {"n": 5}})
        assert journal.latest_checkpoint() is ckpt
        dropped = journal.truncate_before(ckpt.lsn)
        assert dropped == 5
        assert journal.records_truncated == 5
        assert [r.lsn for r in journal] == [ckpt.lsn]
        assert journal.latest_checkpoint() is ckpt
        assert journal.tail() == []
        later = journal.append(REC_POST, {"entry_id": (0, 9)})
        assert journal.tail() == [later]
        newer = journal.append(REC_CHECKPOINT, {"state": {"n": 6}})
        assert journal.latest_checkpoint() is newer


class TestOutbox:
    def test_record_is_write_ahead_and_pending(self):
        journal = make_journal()
        outbox = Outbox(journal)
        entry = outbox.record(make_block(), "object", dst=2, now=1.5)
        assert entry.entry_id == (0, 1)
        assert entry.status == IN_FLIGHT
        assert [r.rtype for r in journal] == [REC_POST]
        assert outbox.pending() == [entry]

    def test_resolve_journals_ack_and_retires(self):
        outbox = Outbox(make_journal())
        entry = outbox.record(make_block(), "object", dst=1, now=0.0)
        ack = (entry.entry_id, DELIVERED)
        assert outbox.resolve_batch([ack]) == 1
        assert outbox.resolve_batch([ack]) == 0  # idempotent
        assert outbox.pending() == []
        assert entry.resolved
        assert [r.rtype for r in outbox.journal] == [REC_POST, REC_ACK]
        assert outbox.delivered == 1

    def test_noticed_counts_separately(self):
        outbox = Outbox(make_journal())
        entry = outbox.record(make_block(), "thread", dst=None, now=0.0)
        outbox.resolve_batch([(entry.entry_id, NOTICED)])
        assert outbox.noticed == 1 and outbox.delivered == 0

    def test_park_and_redispatch_cycle(self):
        outbox = Outbox(make_journal())
        entry = outbox.record(make_block(), "object", dst=3, now=0.0)
        assert outbox.park(entry.entry_id)
        assert entry.status == PARKED
        assert outbox.parked() == [entry]
        outbox.mark_dispatched(entry)
        assert entry.status == IN_FLIGHT
        assert entry.redeliveries == 1 and entry.attempts == 2
        assert outbox.redelivered == 1

    def test_pending_for_filters_by_destination(self):
        outbox = Outbox(make_journal())
        a = outbox.record(make_block(), "object", dst=1, now=0.0)
        outbox.record(make_block(), "object", dst=2, now=0.0)
        t = outbox.record(make_block(), "thread", dst=None, now=0.0)
        assert outbox.pending_for(1) == [a]
        assert t not in outbox.pending_for(1)

    def test_replay_rebuilds_pending_as_parked(self):
        journal = make_journal()
        outbox = Outbox(journal)
        kept = outbox.record(make_block(), "object", dst=1, now=0.0)
        gone = outbox.record(make_block(), "object", dst=2, now=0.0)
        outbox.resolve_batch([(gone.entry_id, DELIVERED)])
        rebuilt = Outbox(journal)
        for record in journal:
            rebuilt.apply_record(record)
        assert [e.entry_id for e in rebuilt.pending()] == [kept.entry_id]
        assert rebuilt.pending()[0].status == PARKED
        # the sequence counter resumes past everything replayed
        again = rebuilt.record(make_block(), "object", dst=1, now=0.0)
        assert again.entry_id == (0, 3)


class TestCheckpointManager:
    @staticmethod
    def due_after_each(journal, cm, records):
        """``journal.appends >= cm.due_at`` (the store's inline test)
        after each of ``records`` payload appends."""
        due = []
        for i in range(records):
            journal.append(REC_POST, {"entry_id": (0, i + 1)})
            due.append(journal.appends >= cm.due_at)
        return due

    def test_interval_counts_payload_appends_only(self):
        journal = make_journal()
        cm = CheckpointManager(journal, interval=3)
        assert self.due_after_each(journal, cm, 3) == [False, False, True]
        cm.take({"n": 1})
        # the checkpoint record itself does not count: due again after
        # three more payload records
        assert self.due_after_each(journal, cm, 3) == [False, False, True]

    def test_a_batch_counts_its_records(self):
        journal = make_journal()
        cm = CheckpointManager(journal, interval=3)
        journal.append_batch([(REC_POST, {"entry_id": (0, 1)}),
                              (REC_POST, {"entry_id": (0, 2)})])
        assert journal.appends < cm.due_at
        journal.append_batch([(REC_ACK, {"entry_id": (0, 1)})])
        assert journal.appends >= cm.due_at

    def test_take_truncates_covered_prefix(self):
        journal = make_journal()
        cm = CheckpointManager(journal, interval=None)
        for i in range(4):
            journal.append(REC_POST, {"entry_id": (0, i + 1)})
        dropped = cm.take({"snapshot": True})
        assert dropped == 4
        state, tail = journal.replay()
        assert state == {"snapshot": True}
        assert tail == []
        assert cm.taken == 1

    def test_disabled_interval_never_due(self):
        journal = make_journal()
        cm = CheckpointManager(journal, interval=None)
        assert not any(self.due_after_each(journal, cm, 100))
        cm.take({})  # an explicit checkpoint does not arm it
        assert not any(self.due_after_each(journal, cm, 100))


class TestClusterStore:
    def test_journals_are_per_node_and_stable(self):
        store = ClusterStore()
        j0 = store.journal(0)
        assert store.journal(0) is j0
        assert store.journal(1) is not j0
        j0.append(REC_POST, {"entry_id": (0, 1)})
        assert j0.stats()["appends"] == 1
