"""The slotted ``SimFuture`` behaves as the one it replaced, as a property.

``repro.sim.primitives.SimFuture`` sets its state inside ``settle`` and
calls ``call_soon`` only for a registered callback; ``resolve``,
``fail`` and ``cancel`` complete through ``settle``. The class below is
the dict-backed future it replaced — completing through ``_complete``
and the ``done`` property — kept verbatim but for its name, as the
reference. Drawn sequences of ``settle``, ``resolve``, ``fail``,
``cancel``, ``add_done_callback``, ``result``, ``done`` and simulator
drains run on both, each under its own ``Simulator``; every call's
return value or raised exception type, the state after it, and the
order, arguments and observations of every callback must be the same.

An asynchronous external raise builds its future already resolved,
slot by slot, with no ``__init__`` or ``settle`` frame; the same drawn
sequences hold it to a slotted future resolved with the same count, on
twin clusters.

The example budget is the hypothesis profile's (``tests/conftest.py``):
CI runs this file again under ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, TypeVar

import pytest
from hypothesis import given, strategies as st

from repro import DistObject, on_event
from repro.errors import SimulationError
from repro.sim import SimFuture, Simulator
from tests.conftest import make_cluster

# ======================================================================
# the reference: the dict-backed future, verbatim
# ======================================================================

T = TypeVar("T")

_PENDING = "pending"
_RESOLVED = "resolved"
_FAILED = "failed"
_CANCELLED = "cancelled"


class ReferenceFuture(Generic[T]):
    """A one-shot container for a value produced later in virtual time.

    Callbacks added with :meth:`add_done_callback` run via ``call_soon`` so
    that resolution order never depends on Python stack depth.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._state = _PENDING
        self._value: T | None = None
        self._error: BaseException | None = None
        self._callbacks: list[Callable[[ReferenceFuture[T]], None]] = []

    @property
    def done(self) -> bool:
        return self._state != _PENDING

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    @property
    def failed(self) -> bool:
        return self._state == _FAILED

    def resolve(self, value: T = None) -> None:
        """Complete the future successfully with ``value``."""
        self._complete(_RESOLVED, value=value)

    def fail(self, error: BaseException) -> None:
        """Complete the future with an exception."""
        if not isinstance(error, BaseException):
            raise SimulationError(f"fail() needs an exception, got {error!r}")
        self._complete(_FAILED, error=error)

    def cancel(self) -> bool:
        """Cancel the future if still pending. Returns True if cancelled."""
        if self.done:
            return False
        self._complete(_CANCELLED, error=SimulationError("future cancelled"))
        return True

    def result(self) -> T:
        """Return the value, raising if pending, failed, or cancelled."""
        if self._state == _PENDING:
            raise SimulationError("future is not resolved yet")
        if self._error is not None:
            raise self._error
        return self._value  # type: ignore[return-value]

    def settle(self, value: T = None,
               error: BaseException | None = None) -> bool:
        """Fail with ``error`` or resolve with ``value``; False (and no
        effect) once done."""
        if self._state != _PENDING:
            return False
        self._complete(_RESOLVED if error is None else _FAILED,
                       value=value, error=error)
        return True

    def add_done_callback(self, fn: Callable[["ReferenceFuture[T]"], None]
                          ) -> None:
        """Run ``fn(self)`` once the future completes (soon, if already done)."""
        if self.done:
            self._sim.call_soon(fn, self)
        else:
            self._callbacks.append(fn)

    def _complete(self, state: str, value: T | None = None,
                  error: BaseException | None = None) -> None:
        if self.done:
            raise SimulationError(f"future already {self._state}")
        self._state = state
        self._value = value
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._sim.call_soon(fn, self)


# ======================================================================
# drawn programs
# ======================================================================

ERRORS = (ValueError, KeyError, SimulationError)

values = st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=2))
errors = st.sampled_from(ERRORS)
#: a callback either logs what it sees or, once run, adds another one
callbacks = st.sampled_from(("log", "chain"))

ops = st.one_of(
    st.tuples(st.just("settle"), values, st.one_of(st.none(), errors)),
    st.tuples(st.just("resolve"), values),
    st.tuples(st.just("fail"), st.one_of(errors, values)),
    st.tuples(st.just("cancel")),
    st.tuples(st.just("add_done_callback"), callbacks),
    st.tuples(st.just("result")),
    st.tuples(st.just("done")),
    st.tuples(st.just("run")),
)


def observe(fut: Any) -> tuple:
    """The future's public state, and what ``result()`` does now."""
    try:
        outcome = ("value", fut.result())
    except BaseException as exc:  # noqa: BLE001 - part of the observation
        outcome = ("raised", type(exc).__name__, str(exc))
    return fut.done, fut.cancelled, fut.failed, fut._state, outcome


def fresh(cls: type) -> Callable[[], tuple[Simulator, Any]]:
    """A new pending ``cls`` future on its own ``Simulator``."""
    def make() -> tuple[Simulator, Any]:
        sim = Simulator()
        return sim, cls(sim)

    return make


def replay(make: Callable[[], tuple[Simulator, Any]],
           program: list[tuple]) -> list:
    """Run ``program`` on the future ``make()`` returns beside its
    simulator; everything it observed."""
    sim, fut = make()
    log: list = []
    seq = iter(range(10_000))

    def make_callback(kind: str) -> Callable[[Any], None]:
        tag = next(seq)

        def callback(done: Any) -> None:
            log.append(("callback", tag, kind, done is fut, sim.now,
                        observe(done)))
            if kind == "chain":
                done.add_done_callback(make_callback("log"))

        return callback

    for op in program:
        name, *args = op
        try:
            if name == "settle":
                value, error = args
                ret = fut.settle(value, None if error is None else error("e"))
            elif name == "resolve":
                ret = fut.resolve(args[0])
            elif name == "fail":
                error = args[0]
                ret = fut.fail(error("e") if isinstance(error, type) else
                               error)
            elif name == "cancel":
                ret = fut.cancel()
            elif name == "add_done_callback":
                ret = fut.add_done_callback(make_callback(args[0]))
            elif name == "result":
                ret = fut.result()
            elif name == "done":
                ret = fut.done
            else:
                ret = sim.run()
            log.append((name, "returned", ret))
        except BaseException as exc:  # noqa: BLE001 - part of the log
            log.append((name, "raised", type(exc).__name__, str(exc)))
        log.append(("state",) + observe(fut))
    sim.run()
    log.append(("end", sim.now, sim.events_processed) + observe(fut))
    return log


@given(st.lists(ops, max_size=12))
def test_slotted_future_replays_the_reference(program):
    assert (replay(fresh(SimFuture), program)
            == replay(fresh(ReferenceFuture), program))


# ======================================================================
# the future an asynchronous external raise returns
# ======================================================================

class Sink(DistObject):
    @on_event("PING")
    def on_ping(self, ctx, block):
        yield ctx.compute(1e-6)


def raised(reference: bool = False) -> tuple[Simulator, Any]:
    """The future of one raise to a fresh cluster's ``Sink``, beside the
    cluster's simulator; with ``reference``, a ``SimFuture`` built by
    ``__init__`` and resolved with that raise's count instead."""
    cluster = make_cluster(n_nodes=1)
    cluster.register_event("PING")
    cap = cluster.create_object(Sink, node=0)
    future = cluster.raise_event("PING", cap)
    if reference:
        count = future.result()
        future = SimFuture(cluster.sim)
        future.resolve(count)
    return cluster.sim, future


@given(st.lists(ops, max_size=12))
def test_the_raise_future_replays_a_resolved_slotted_future(program):
    assert replay(raised, program) == replay(lambda: raised(True), program)


def test_the_raise_future_is_built_resolved():
    sim, future = raised()
    assert type(future) is SimFuture
    # every slot is set: a slot added to SimFuture must be set there too
    for slot in SimFuture.__slots__:
        getattr(future, slot)
    assert future.done and future.result() == 1
    assert not future.failed and not future.cancelled
    assert future.cancel() is False
    with pytest.raises(SimulationError):
        future.resolve(2)
    with pytest.raises(SimulationError):
        future.fail(ValueError("late"))
    assert future.result() == 1 and not future.failed
    seen = []
    scheduled = sim.stats()["scheduled"]
    future.add_done_callback(lambda done: seen.append((done, sim.now)))
    # not run inline: one call_soon at the current instant
    assert seen == [] and sim.stats()["scheduled"] == scheduled + 1
    now = sim.now
    sim.run()
    assert seen == [(future, now)]

