"""The tracer's ring behaves as a plain list cut to its last N records.

``repro.sim.trace.Tracer`` keeps its records in a ``deque`` bounded by
``TRACE_CAPACITY`` and numbers them by emit order, and ``select(after=)``
skips to a cursor by position. The model below is the obvious version:
an unbounded list of ``(seq, category, name, fields)`` that counts every
stored emit, of which only the last N are visible. Drawn programs of
``emit``, ``mute``, ``unmute``, ``select`` (with and without a cursor,
cursors before, inside and past the window) and ``clear`` run on both,
with the capacity patched small so that the ring wraps; a cursor is
drawn as an offset from the window's first seq, so most land in or
next to it. Every select's answer, and the retained window after every
step, must be the same.

The example budget is the hypothesis profile's (``tests/conftest.py``):
CI runs this file again under ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, strategies as st

from repro.sim import Simulator, Tracer
from repro.sim import trace

CATEGORIES = ("a", "b", "c")


class Model:
    """What the tracer should hold: every stored emit, last N visible."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stored: list[tuple] = []
        self.muted: set[str] = set()
        self.seq = 0

    @property
    def window(self) -> list[tuple]:
        return self.stored[-self.capacity:]

    def emit(self, category, name, value):
        if category not in self.muted:
            self.seq += 1
            self.stored.append((self.seq, category, name, (("v", value),)))

    def select(self, category, name, after, fields):
        return [r for r in self.window
                if (after is None or r[0] > after)
                and category in (None, r[1]) and name in (None, r[2])
                and all(dict(r[3]).get(k) == v for k, v in fields.items())]

    def clear(self):
        self.stored.clear()


def _row(record) -> tuple:
    return record.seq, record.category, record.name, record.fields


maybe_category = st.none() | st.sampled_from(CATEGORIES)
maybe_name = st.none() | st.sampled_from("xy")
emit = st.tuples(st.just("emit"), st.sampled_from(CATEGORIES),
                 st.sampled_from("xy"), st.integers(0, 2))
select = st.tuples(st.just("select"), maybe_category, maybe_name,
                   st.none() | st.integers(-3, 10),
                   st.fixed_dictionaries({}, optional={"v": st.integers(0, 2)}))
#: emits and selects drawn three times as often as each other step, so
#: that most programs wrap the ring and read it with a cursor inside it
steps = st.lists(st.one_of(
    emit, emit, emit, select, select, select,
    st.tuples(st.just("mute"), st.sampled_from(CATEGORIES)),
    st.tuples(st.just("unmute"), st.sampled_from(CATEGORIES)),
    st.tuples(st.just("clear")),
), min_size=10, max_size=80)


@given(capacity=st.integers(1, 8), program=steps)
def test_ring_matches_a_truncated_list(capacity, program):
    with mock.patch.object(trace, "TRACE_CAPACITY", capacity):
        tracer = Tracer(Simulator())
    model = Model(capacity)
    for step in program:
        op, *args = step
        if op == "emit":
            category, name, value = args
            tracer.emit(category, name, v=value)
            model.emit(category, name, value)
        elif op == "mute":
            tracer.mute(*args)
            model.muted.update(args)
        elif op == "unmute":
            tracer.unmute(*args)
            model.muted.difference_update(args)
        elif op == "select":
            category, name, offset, fields = args
            first = model.window[0][0] if model.window else model.seq
            after = None if offset is None else first + offset
            got = tracer.select(category, name, after=after, **fields)
            assert [_row(r) for r in got] == model.select(
                category, name, after, fields), step
        else:
            tracer.clear()
            model.clear()
        assert [_row(r) for r in tracer.records] == model.window, step
        assert tracer.muted == model.muted
