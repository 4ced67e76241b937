"""Tests for user-level VM managers (external pagers, §6.4)."""

import pytest

from repro import Decision, DistObject, TRANSPORT_DSM, entry, handler_entry
from repro.bench.scenario import hung_handlers
from repro.dsm import PagerServer, attach_pager
from repro.errors import PagerError
from tests.conftest import make_cluster


class Board(DistObject):
    """A pageable shared board: every field is pager-backed."""

    dsm_pageable = True
    dsm_pages = 4

    @entry
    def put(self, ctx, pager_cap, key, value):
        yield attach_pager(pager_cap)
        yield ctx.write(key, value)
        result = yield ctx.read(key)
        return result

    @entry
    def get(self, ctx, pager_cap, key):
        yield attach_pager(pager_cap)
        result = yield ctx.read(key)
        return result


class SeededPager(PagerServer):
    """Backs pages from a pre-seeded store."""

    def __init__(self, store, **kwargs):
        super().__init__(**kwargs)
        self.store = store

    def make_page(self, oid, page_id, field):
        return dict(self.store.get(page_id, {field: 0}))


class TestBasicPaging:
    def test_fault_served_by_buddy_pager(self):
        cluster = make_cluster(n_nodes=3)
        pager = cluster.create_object(PagerServer, node=0)
        board = cluster.create_object(Board, node=1,
                                      transport=TRANSPORT_DSM)
        thread = cluster.spawn(board, "put", pager, "x", 7, at=2)
        cluster.run()
        assert thread.completion.result() == 7
        assert cluster.get_object(pager).faults_served == 1
        assert cluster.dsm.protocol_stats()["vm_faults"] == 1

    def test_pager_supplies_backing_content(self):
        cluster = make_cluster(n_nodes=3)
        store = {}
        pager = cluster.create_object(SeededPager, store, node=0)
        board = cluster.create_object(Board, node=1,
                                      transport=TRANSPORT_DSM)
        segment = cluster.dsm.segment_of(board.oid)
        page = segment.page_of("answer")
        store[page.page_id] = {"answer": 42}
        thread = cluster.spawn(board, "get", pager, "answer", at=2)
        cluster.run()
        assert thread.completion.result() == 42

    def test_second_access_no_fault(self):
        cluster = make_cluster(n_nodes=3)
        pager = cluster.create_object(PagerServer, node=0)
        board = cluster.create_object(Board, node=1,
                                      transport=TRANSPORT_DSM)
        cluster.spawn(board, "put", pager, "x", 1, at=2)
        cluster.run()
        t2 = cluster.spawn(board, "get", pager, "x", at=2)
        cluster.run()
        assert t2.completion.result() == 1
        # the page is materialised: only the first access vm-faulted
        assert cluster.dsm.protocol_stats()["vm_faults"] == 1

    def test_unhandled_fault_terminates_thread(self):
        cluster = make_cluster(n_nodes=2)

        class NoPagerBoard(Board):
            @entry
            def naked_read(self, ctx, key):
                result = yield ctx.read(key)
                return result

        board = cluster.create_object(NoPagerBoard, node=1,
                                      transport=TRANSPORT_DSM)
        thread = cluster.spawn(board, "naked_read", "x", at=0)
        cluster.run()
        # VM_FAULT default action: terminate the faulting thread
        assert thread.state == "terminated"


class TestCopyAndMerge:
    def test_private_copies_for_concurrent_faulters(self):
        cluster = make_cluster(n_nodes=4)
        pager = cluster.create_object(PagerServer, node=0,
                                      serve_private_copies=True)
        board = cluster.create_object(Board, node=1,
                                      transport=TRANSPORT_DSM)
        threads = [cluster.spawn(board, "put", pager, "x", 100 + node,
                                 at=node) for node in (2, 3)]
        cluster.run()
        # each faulter got its own copy; both see their own writes
        assert threads[0].completion.result() == 102
        assert threads[1].completion.result() == 103
        segment = cluster.dsm.segment_of(board.oid)
        page = segment.page_of("x")
        assert set(page.private_copies) == {2, 3}
        assert not page.materialized

    def test_merge_reconciles_copies(self):
        cluster = make_cluster(n_nodes=4)
        pager = cluster.create_object(PagerServer, node=0,
                                      serve_private_copies=True)
        board = cluster.create_object(Board, node=1,
                                      transport=TRANSPORT_DSM)
        for node in (2, 3):
            cluster.spawn(board, "put", pager, f"k{node}", node, at=node)
        cluster.run()
        segment = cluster.dsm.segment_of(board.oid)
        pages_with_copies = [p for p in segment.pages if p.private_copies]
        driver = cluster.spawn(pager, "merge", board.oid,
                               pages_with_copies[0].page_id, at=0)
        cluster.run()
        merged = driver.completion.result()
        assert isinstance(merged, dict)
        assert not pages_with_copies[0].private_copies
        assert pages_with_copies[0].materialized

    def test_merge_without_copies_rejected(self):
        cluster = make_cluster(n_nodes=2)
        pager = cluster.create_object(PagerServer, node=0)
        board = cluster.create_object(Board, node=1,
                                      transport=TRANSPORT_DSM)
        driver = cluster.spawn(pager, "merge", board.oid, 0, at=0)
        cluster.run()
        with pytest.raises(PagerError):
            driver.completion.result()

    def test_weak_accesses_excluded_from_audit(self):
        cluster = make_cluster(n_nodes=3)
        pager = cluster.create_object(PagerServer, node=0,
                                      serve_private_copies=True)
        board = cluster.create_object(Board, node=1,
                                      transport=TRANSPORT_DSM)
        cluster.spawn(board, "put", pager, "x", 1, at=2)
        cluster.run()
        counts = cluster.dsm.log.counts()
        assert counts["weak"] > 0
        assert cluster.dsm.log.check() == []


class TestPagerStats:
    def test_stats_entry(self):
        cluster = make_cluster(n_nodes=3)
        pager = cluster.create_object(PagerServer, node=0)
        board = cluster.create_object(Board, node=1,
                                      transport=TRANSPORT_DSM)
        cluster.spawn(board, "put", pager, "x", 1, at=2)
        cluster.run()
        probe = cluster.spawn(pager, "stats", at=1)
        cluster.run()
        stats = probe.completion.result()
        assert stats["faults_served"] == 1
        assert stats["pages_supplied"] == 1


class PagedBuddy(DistObject):
    """A pageable buddy handler that reads an unmaterialised field."""

    dsm_pageable = True
    dsm_pages = 4

    def __init__(self):
        super().__init__()
        self.faults = []

    @handler_entry
    def on_usr(self, hctx, block):
        try:
            yield hctx.read("k")
        except PagerError as exc:
            self.faults.append(type(exc).__name__)
        return Decision.RESUME


class RaisesAtItself(DistObject):
    @entry
    def run(self, ctx, pager_cap, buddy_cap):
        yield attach_pager(pager_cap)
        yield ctx.attach_handler("USR", "on_usr", buddy=buddy_cap)
        yield ctx.raise_event("USR", ctx.tid)
        yield ctx.compute(1e-3)
        return "done"


class TestFaultInAHandler:
    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_a_chain_handlers_fault_fails_its_access(self, scheduler):
        """A handler runs on a loop thread (here the owner's surrogate),
        which is no event target: its page fault is ``PagerError`` at
        the access, the owner's pager notwithstanding, instead of a
        VM_FAULT that reaches no one and leaves the surrogate blocked."""
        cluster = make_cluster(n_nodes=2, seed=1, scheduler=scheduler)
        cluster.register_event("USR")
        pager = cluster.create_object(PagerServer, node=1)
        buddy = cluster.create_object(PagedBuddy, node=0,
                                      transport=TRANSPORT_DSM)
        worker = cluster.create_object(RaisesAtItself, node=0)
        thread = cluster.spawn(worker, "run", pager, buddy, at=0)
        cluster.run(until=1.0)
        assert thread.completion.result() == "done"
        assert cluster.get_object(buddy).faults == ["PagerError"]
        assert cluster.get_object(pager).faults_served == 0
        assert hung_handlers(cluster) == []
        assert cluster.quiescent()
