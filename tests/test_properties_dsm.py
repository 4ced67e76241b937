"""Property-based tests for DSM layout and coherence."""

from hypothesis import given, settings, strategies as st

from repro import DistObject, TRANSPORT_DSM, entry
from repro.dsm.page import Segment
from repro.dsm.directory import ST_EXCLUSIVE, ST_IDLE, ST_SHARED
from tests.conftest import make_cluster

field_names = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6),
    min_size=1, max_size=12, unique=True)


class TestSegmentLayoutProperties:
    @given(field_names, st.integers(min_value=1, max_value=5))
    def test_every_field_maps_to_exactly_one_page(self, names,
                                                  fields_per_page):
        segment = Segment(segment_id=1, home=0, page_size=4096,
                          fields={name: 0 for name in names},
                          fields_per_page=fields_per_page)
        for name in names:
            page = segment.page_of(name)
            assert page is segment.page_of(name)
            assert name in page.values
        # packing bound: ceil(len/fields_per_page) pages
        assert segment.n_pages == -(-len(names) // fields_per_page)

    @given(field_names, st.integers(min_value=1, max_value=8))
    def test_pageable_mapping_is_stable_and_in_range(self, names, n_pages):
        segment = Segment(segment_id=1, home=0, page_size=4096,
                          pageable=True, n_pages=n_pages)
        for name in names:
            first = segment.page_of(name).page_id
            again = segment.page_of(name).page_id
            assert first == again
            assert 0 <= first < n_pages


class SharedWord(DistObject):
    dsm_fields = {"word": 0}

    @entry
    def do_ops(self, ctx, ops):
        """ops: list of ('r',) or ('w', value)."""
        log = []
        for op in ops:
            if op[0] == "w":
                yield ctx.write("word", op[1])
            else:
                value = yield ctx.read("word")
                log.append(value)
        return log


#: per-thread operation scripts
scripts = st.lists(
    st.lists(
        st.one_of(st.tuples(st.just("r")),
                  st.tuples(st.just("w"), st.integers(0, 9))),
        min_size=1, max_size=8),
    min_size=1, max_size=4)


class TestCoherenceProperties:
    @settings(max_examples=30, deadline=None)
    @given(scripts)
    def test_random_access_patterns_stay_sequentially_consistent(
            self, per_thread_ops):
        cluster = make_cluster(n_nodes=4)
        cap = cluster.create_object(SharedWord, node=0,
                                    transport=TRANSPORT_DSM)
        threads = [cluster.spawn(cap, "do_ops", ops, at=i % 4)
                   for i, ops in enumerate(per_thread_ops)]
        cluster.run()
        for thread in threads:
            thread.completion.result()  # no crashes
        assert cluster.dsm.log.check() == []
        self._check_directory_invariants(cluster, cap)

    def _check_directory_invariants(self, cluster, cap):
        segment = cluster.dsm.segment_of(cap.oid)
        for page in segment.pages:
            entry_ = cluster.dsm.directory_entry(segment, page)
            if entry_.state == ST_EXCLUSIVE:
                # exclusive means exactly one holder, who is the owner
                assert entry_.owner is not None
                assert entry_.sharers == {entry_.owner}
            elif entry_.state == ST_SHARED:
                assert entry_.sharers
                assert entry_.owner is None
            else:
                assert entry_.state == ST_IDLE
                assert not entry_.sharers

    @settings(max_examples=15, deadline=None)
    @given(scripts)
    def test_reads_only_return_written_values(self, per_thread_ops):
        cluster = make_cluster(n_nodes=3)
        cap = cluster.create_object(SharedWord, node=0,
                                    transport=TRANSPORT_DSM)
        written = {0}  # the field default
        for ops in per_thread_ops:
            written.update(op[1] for op in ops if op[0] == "w")
        threads = [cluster.spawn(cap, "do_ops", ops, at=i % 3)
                   for i, ops in enumerate(per_thread_ops)]
        cluster.run()
        for thread in threads:
            for value in thread.completion.result():
                assert value in written
