"""Base class and decorators for distributed objects.

Objects in the DO/CT model are passive and persistent (§2): they have no
threads of their own, may be entered concurrently by threads of unrelated
applications, and exist independently of any thread. An object class
declares:

* **entry points** — generator methods decorated with :func:`entry`;
  these are the operations threads invoke (``entry void work(int id)`` in
  the paper's template);
* **object-based handlers** — generator methods decorated with
  :func:`on_event`, registered when the object is created and active
  while the object persists (``handler void my_delete_handler(event_block&)
  on { DELETE }`` in §5.1); they are *private*: not invocable as entries;
* **handler entries** — generator methods decorated with
  :func:`handler_entry`, attachable as thread-based handlers in
  attaching-object or buddy context (§4.1, §5.2).

All three kinds take ``(self, ctx, ...)`` where ``ctx`` is the
:class:`~repro.threads.context.Ctx` of the executing thread, and are
written as generators yielding syscalls.
"""

from __future__ import annotations

import inspect
import itertools
from typing import Any, Callable

from repro.errors import NoSuchEntryError, ObjectError
from repro.objects.capability import Capability

_ENTRY_FLAG = "_repro_entry"
_ENTRY_RAISES_FLAG = "_repro_entry_raises"
_HANDLER_EVENTS_FLAG = "_repro_handler_events"
_HANDLER_ENTRY_FLAG = "_repro_handler_entry"


def entry(fn: Callable | None = None, *, raises: tuple[str, ...] = ()
          ) -> Callable:
    """Mark a generator method as an invocable entry point.

    ``raises`` declares the exceptional events the entry may raise —
    §5.2: "Entry point signatures in the object interface specifies
    exceptional events raised by the entry points." Callers can inspect
    the declaration (:meth:`DistObject.entry_raises`) to attach handlers
    at the point of invocation.

    Usable bare (``@entry``) or parameterised
    (``@entry(raises=("DIV_ZERO",))``).
    """

    def mark(func: Callable) -> Callable:
        if not inspect.isgeneratorfunction(func):
            raise ObjectError(
                f"entry point {func.__name__!r} must be a generator "
                f"function (write it with `yield`)")
        setattr(func, _ENTRY_FLAG, True)
        setattr(func, _ENTRY_RAISES_FLAG, tuple(raises))
        return func

    if fn is not None:
        return mark(fn)
    return mark


def on_event(*events: str) -> Callable[[Callable], Callable]:
    """Mark a generator method as this object's handler for ``events``."""
    if not events:
        raise ObjectError("on_event requires at least one event name")

    def mark(fn: Callable) -> Callable:
        if not inspect.isgeneratorfunction(fn):
            raise ObjectError(
                f"object handler {fn.__name__!r} must be a generator function")
        existing = list(getattr(fn, _HANDLER_EVENTS_FLAG, ()))
        setattr(fn, _HANDLER_EVENTS_FLAG, tuple(existing + list(events)))
        return fn

    return mark


def handler_entry(fn: Callable) -> Callable:
    """Mark a generator method as attachable for thread-based handling."""
    if not inspect.isgeneratorfunction(fn):
        raise ObjectError(
            f"handler entry {fn.__name__!r} must be a generator function")
    setattr(fn, _HANDLER_ENTRY_FLAG, True)
    return fn


_oids = itertools.count(1)


class DistObject:
    """Base class for all distributed objects.

    Subclasses declare state in ``__init__`` (plain attributes for RPC
    transport; DSM-transport objects access state via ``ctx.read`` /
    ``ctx.write`` so page faults and coherence apply). Instances are
    created through :meth:`repro.kernel.boot.Cluster.create_object` or
    the ``ctx.create`` syscall, never placed on a node by hand.
    """

    #: populated by __init_subclass__
    _entries: dict[str, str]
    _object_handlers: dict[str, str]
    _handler_entries: frozenset[str]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        entries: dict[str, str] = {}
        entry_raises: dict[str, tuple[str, ...]] = {}
        object_handlers: dict[str, str] = {}
        handler_entries: set[str] = set()
        for klass in reversed(cls.__mro__):
            for name, member in vars(klass).items():
                if getattr(member, _ENTRY_FLAG, False):
                    entries[name] = name
                    entry_raises[name] = getattr(member, _ENTRY_RAISES_FLAG,
                                                 ())
                for event in getattr(member, _HANDLER_EVENTS_FLAG, ()):
                    object_handlers[event] = name
                if getattr(member, _HANDLER_ENTRY_FLAG, False):
                    handler_entries.add(name)
        cls._entries = entries
        cls._entry_raises = entry_raises
        cls._object_handlers = object_handlers
        cls._handler_entries = frozenset(handler_entries)

    def __init__(self) -> None:
        self._oid = next(_oids)
        #: The placement, built once by ``_place`` (the executor reads
        #: ``cap`` several times per handler run); None until then.
        #: Private, so a checkpoint skips it.
        self._cap: Capability | None = None
        #: DSM-backed field storage (only used under the DSM transport).
        self._dsm_segment: Any = None

    # ------------------------------------------------------------------
    # identity / placement (set once by the object manager)
    # ------------------------------------------------------------------

    @property
    def oid(self) -> int:
        return self._oid

    @property
    def home(self) -> int:
        if self._cap is None:
            raise ObjectError(f"object {type(self).__name__} is not placed yet")
        return self._cap.home

    @property
    def transport(self) -> str:
        if self._cap is None:
            raise ObjectError(f"object {type(self).__name__} is not placed yet")
        return self._cap.transport

    @property
    def cap(self) -> Capability:
        """This object's capability."""
        cap = self._cap
        if cap is None:
            raise ObjectError(f"object {type(self).__name__} is not placed yet")
        return cap

    def _place(self, home: int, transport: str) -> None:
        if self._cap is not None:
            raise ObjectError(f"object {self._oid} already placed on "
                              f"node {self._cap.home}")
        self._cap = Capability(self._oid, home, transport, type(self).__name__)

    # ------------------------------------------------------------------
    # interface lookups used by the invocation and event engines
    # ------------------------------------------------------------------

    def entry_fn(self, name: str) -> Callable:
        if name not in self._entries:
            raise NoSuchEntryError(
                f"{type(self).__name__} (oid {self._oid}) has no entry "
                f"point {name!r}; entries: {sorted(self._entries)}")
        return getattr(self, name)

    def handler_fn(self, name: str) -> Callable:
        """A method attachable as a thread-based handler.

        Entries are also accepted — a public entry point may double as a
        handler target — but plain undecorated methods are not.
        """
        if name in self._handler_entries or name in self._entries:
            return getattr(self, name)
        raise NoSuchEntryError(
            f"{type(self).__name__} (oid {self._oid}) has no handler "
            f"entry {name!r}; declare it with @handler_entry")

    def entry_raises(self, name: str) -> tuple[str, ...]:
        """Events the entry's signature declares it may raise (§5.2)."""
        self.entry_fn(name)  # validate the entry exists
        return self._entry_raises.get(name, ())

    def object_handler_fn(self, event: str) -> Callable | None:
        """This object's own handler for ``event``, or None."""
        name = self._object_handlers.get(event)
        return getattr(self, name) if name else None

    def handled_events(self) -> list[str]:
        return sorted(self._object_handlers)

    def __repr__(self) -> str:  # pragma: no cover - diagnostic only
        where = self._cap.home if self._cap is not None else "?"
        return f"<{type(self).__name__} oid={self._oid} home={where}>"
