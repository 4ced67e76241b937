"""Synchronisation primitives for simulated code.

A one-shot future and a FIFO channel, both driven entirely by the virtual
clock of a :class:`~repro.sim.scheduler.Simulator`. Kernel services hand
out :class:`SimFuture` completions (RPC replies, thread completions, lock
grants, page fetches); the thread driver in :mod:`repro.threads` waits on
them and parks threads in a :class:`Channel`. A future is built per
external raise, RPC call and thread, so it is a plain ``__slots__``
class and settling it costs one frame; an asynchronous external raise
builds its future already resolved, with no frame at all
(:meth:`repro.events.delivery.EventManager.raise_external`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generic, TypeVar

from repro.errors import SimulationError
from repro.sim.scheduler import Simulator

T = TypeVar("T")

_PENDING = "pending"
#: public for code that makes a future done slot by slot
RESOLVED = "resolved"
_FAILED = "failed"
_CANCELLED = "cancelled"


class SimFuture(Generic[T]):
    """A one-shot container for a value produced later in virtual time.

    Callbacks added with :meth:`add_done_callback` run via ``call_soon`` so
    that resolution order never depends on Python stack depth.

    :meth:`settle` is the one completion (``resolve``, ``fail`` and
    ``cancel`` go through it): it sets the state inline and calls
    ``call_soon`` only for a registered callback.
    """

    __slots__ = ("_sim", "_state", "_value", "_error", "_callbacks")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._state = _PENDING
        self._value: T | None = None
        self._error: BaseException | None = None
        self._callbacks: list[Callable[[SimFuture[T]], None]] = []

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
        if not self.settle(value):
            raise SimulationError(f"future already {self._state}")

    def fail(self, error: BaseException) -> None:
        """Complete the future with an exception."""
        if not isinstance(error, BaseException):
            raise SimulationError(f"fail() needs an exception, got {error!r}")
        if not self.settle(None, error):
            raise SimulationError(f"future already {self._state}")

    def cancel(self) -> bool:
        """Cancel the future if still pending. Returns True if cancelled."""
        if not self.settle(None, SimulationError("future cancelled")):
            return False
        # the callbacks settle queued run later and read the final state
        self._state = _CANCELLED
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
        self._state = RESOLVED if error is None else _FAILED
        self._value = value
        self._error = error
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            call_soon = self._sim.call_soon
            for fn in callbacks:
                call_soon(fn, self)
        return True

    def add_done_callback(self, fn: Callable[["SimFuture[T]"], None]) -> None:
        """Run ``fn(self)`` once the future completes (soon, if already done)."""
        if self._state != _PENDING:
            self._sim.call_soon(fn, self)
        else:
            self._callbacks.append(fn)


class Channel(Generic[T]):
    """An unbounded FIFO channel between simulated producers and consumers.

    Items go in FIFO order to waiters in FIFO order. A waiter is a
    callable ``take(item) -> bool`` that accepts the item or says it no
    longer waits: the ``settle`` of a ``get()`` future, or what a
    consumer passed to :meth:`park` (the thread driver parks its
    ``resume_with``).
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._items: deque[T] = deque()
        self._waiters: deque[Callable[[T], bool]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: T) -> None:
        waiters = self._waiters
        while waiters:
            if waiters.popleft()(item):
                return
        self._items.append(item)

    def get(self) -> SimFuture[T]:
        fut: SimFuture[T] = SimFuture(self._sim)
        if self._items:
            fut.resolve(self._items.popleft())
        else:
            self._waiters.append(fut.settle)
        return fut

    def pop(self) -> T:
        """Take the head item now; the channel must not be empty."""
        return self._items.popleft()

    def park(self, take: Callable[[T], bool]) -> None:
        """Queue ``take`` behind the waiters already here (the channel is
        empty): the next ``put`` not accepted by one of them calls it."""
        self._waiters.append(take)

    def unpark(self, take: Callable[[T], bool]) -> None:
        """Forget a parked ``take`` (a no-op once it was offered an item
        or swept by ``reset()``)."""
        if take in self._waiters:
            self._waiters.remove(take)

    def drain(self) -> list[T]:
        """Remove and return all queued items without waiting."""
        items = list(self._items)
        self._items.clear()
        return items

    def reset(self) -> list[T]:
        """Drain all items AND forget all waiters.

        For consumer death (e.g. a node crash killing the thread parked
        here): a dead consumer must not swallow the next ``put()``,
        which would silently lose the item.
        """
        items = self.drain()
        self._waiters.clear()
        return items
