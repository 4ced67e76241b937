"""Handler descriptors, execution contexts, decisions and chains.

Section 4.1 allows a thread-based handler to be:

* an entry point of the object that attached it (*attaching-object
  context* — delivery performs an "unscheduled invocation" back to that
  object, wherever it lives);
* an entry point of **another** designated object (a *buddy handler*,
  e.g. a central monitor or debugger server);
* a procedure in the thread's per-thread memory, executed *in the context
  of the current object* where the thread happens to be when the event is
  delivered.

Section 4.2 chains handlers per (thread, event) in LIFO order; a handler
may propagate the event to the next handler down the chain.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import EventError, UnknownObjectError

#: virtual seconds of attach_handler bookkeeping
ATTACH_COST = 1e-6


class HandlerContext(enum.Enum):
    """Where a thread-based handler executes (§4.1)."""

    #: In the object that attached the handler (unscheduled invocation).
    ATTACHING = "attaching"
    #: In whatever object the thread occupies at delivery time; handler is
    #: a per-thread-memory procedure (``OWN_CONTEXT`` in the paper's §5.2
    #: example).
    CURRENT = "current"
    #: In a designated third object (buddy handler).
    BUDDY = "buddy"


class Decision(enum.Enum):
    """What a handler decided about the suspended thread."""

    #: Resume the thread where it was suspended.
    RESUME = "resume"
    #: Terminate the thread (unwind all activations).
    TERMINATE = "terminate"
    #: Pass the event to the next handler down the LIFO chain.
    PROPAGATE = "propagate"


_reg_ids = itertools.count(1)
#: names per-thread-memory procedures installed by ``attach``
_proc_names = itertools.count(1)


@dataclass
class HandlerRegistration:
    """One attached handler for one event on one thread.

    Attributes
    ----------
    event:
        Event name this handler accepts.
    context:
        Execution context (see :class:`HandlerContext`).
    fn_name:
        For ATTACHING/BUDDY: the handler method name on the target object.
    target_oid:
        For ATTACHING: oid of the attaching object; for BUDDY: oid of the
        buddy object.
    procedure:
        For CURRENT: the per-thread-memory procedure key (the actual
        callable lives in the thread's per-thread memory, which "traverses
        with the thread", §4.1).
    attached_in_oid / attached_at_node:
        Where the attachment happened (diagnostics and tests).
    deadline:
        Per-registration watchdog deadline (virtual seconds) overriding
        the cluster-wide ``handler_deadline``; None inherits the config.
    """

    event: str
    context: HandlerContext
    fn_name: str | None = None
    target_oid: int | None = None
    procedure: str | None = None
    attached_in_oid: int | None = None
    attached_at_node: int | None = None
    deadline: float | None = None
    reg_id: int = field(default_factory=lambda: next(_reg_ids))

    def __post_init__(self) -> None:
        if self.context is HandlerContext.CURRENT:
            if not self.procedure:
                raise EventError(
                    "CURRENT-context handler needs a per-thread-memory "
                    "procedure name")
        else:
            if self.target_oid is None or not self.fn_name:
                raise EventError(
                    f"{self.context.value}-context handler needs a target "
                    f"object and method name")


def attach_from_thread(cluster: Any, thread: Any, frame: Any,
                       syscall: Any) -> None:
    """A running thread executed ``attach_handler`` (§5.2)."""
    try:
        cluster.names.require_event(syscall.event)
        registration = _build_registration(cluster, thread, frame, syscall)
    except BaseException as exc:  # noqa: BLE001 - reported to caller
        thread.schedule_step(None, exc)
        return
    thread.attributes.attach(registration)
    if "event" not in cluster.tracer.muted:
        cluster.tracer.emit(
            "event", "attach", event=syscall.event, tid=str(thread.tid),
            context=registration.context.value, node=frame.node)
    thread.schedule_step_after(ATTACH_COST, registration.reg_id, None)


def _build_registration(cluster: Any, thread: Any, frame: Any,
                        syscall: Any) -> HandlerRegistration:
    context = syscall.context
    where = dict(attached_in_oid=(frame.obj.oid if frame.obj else None),
                 attached_at_node=frame.node, deadline=syscall.deadline)
    if context is HandlerContext.CURRENT:
        procedure = syscall.procedure
        if callable(procedure) and not isinstance(procedure, str):
            name = getattr(procedure, "__name__", "proc")
            key = f"{name}#{next(_proc_names)}"
            thread.attributes.per_thread_memory.install_procedure(
                key, procedure)
            procedure = key
        return HandlerRegistration(event=syscall.event, context=context,
                                   procedure=procedure, **where)
    if context is HandlerContext.BUDDY:
        if syscall.target is None:
            raise EventError("buddy handler needs a target capability")
        target_oid = syscall.target.oid
    else:  # ATTACHING
        if frame.obj is None:
            raise EventError(
                "attaching-context handler requires the thread to be "
                "executing inside an object")
        target_oid = frame.obj.oid
    obj = cluster.find_object(target_oid)
    if obj is None:
        raise UnknownObjectError(f"no object {target_oid}")
    obj.handler_fn(syscall.fn_name)  # validate now, not at delivery
    return HandlerRegistration(event=syscall.event, context=context,
                               fn_name=syscall.fn_name,
                               target_oid=target_oid, **where)


class HandlerChain:
    """LIFO chain of handler registrations for one event on one thread."""

    def __init__(self, event: str) -> None:
        self.event = event
        self._stack: list[HandlerRegistration] = []

    def __len__(self) -> int:
        return len(self._stack)

    def __iter__(self):
        """Iterate newest-first (delivery order)."""
        return reversed(self._stack)

    def push(self, registration: HandlerRegistration) -> None:
        if registration.event != self.event:
            raise EventError(
                f"registration for {registration.event!r} pushed onto "
                f"chain for {self.event!r}")
        self._stack.append(registration)

    def pop(self) -> HandlerRegistration:
        if not self._stack:
            raise EventError(f"handler chain for {self.event!r} is empty")
        return self._stack.pop()

    def remove(self, reg_id: int) -> bool:
        """Detach a specific registration. Returns False if absent."""
        for i, reg in enumerate(self._stack):
            if reg.reg_id == reg_id:
                del self._stack[i]
                return True
        return False

    def top(self) -> HandlerRegistration | None:
        return self._stack[-1] if self._stack else None

    def in_order(self) -> list[HandlerRegistration]:
        """Delivery order: most recently attached first (§4.2 LIFO)."""
        return list(reversed(self._stack))

    def copy(self) -> "HandlerChain":
        """Used when a spawned thread inherits its parent's registry (§6.3)."""
        clone = HandlerChain(self.event)
        clone._stack = list(self._stack)
        return clone


class ObjectHandlerRegistry:
    """Dynamic object-based handler registry for one node (§5.1).

    Class-declared ``@on_event`` handlers are static: they exist for
    every instance of the class, forever. This registry adds the runtime
    counterpart — bind an event to one of an object's methods after the
    object exists — and is the piece of §5's "handlers stay armed while
    the object persists" that actually needs persistence: the mapping is
    kernel state, so a node crash discards it. With
    ``durable_delivery`` on, registrations are journaled through
    :class:`repro.store.manager.NodeStore` and replayed on recovery;
    without it they are lost with the node (the documented PR 2 gap).
    """

    def __init__(self) -> None:
        self._handlers: dict[tuple[int, str], str] = {}

    def __len__(self) -> int:
        return len(self._handlers)

    def register(self, oid: int, event: str, fn_name: str) -> None:
        """Bind ``event`` on object ``oid`` to its method ``fn_name``."""
        self._handlers[(oid, event)] = fn_name

    def unregister(self, oid: int, event: str) -> bool:
        return self._handlers.pop((oid, event), None) is not None

    def lookup(self, oid: int, event: str) -> str | None:
        """The dynamically bound handler method name, or None."""
        return self._handlers.get((oid, event))

    def drop_object(self, oid: int) -> int:
        """Remove every registration of a destroyed object."""
        stale = [key for key in self._handlers if key[0] == oid]
        for key in stale:
            del self._handlers[key]
        return len(stale)

    def entries(self) -> tuple[tuple[int, str, str], ...]:
        """Checkpoint form: sorted ``(oid, event, fn_name)`` triples."""
        return tuple(sorted((oid, event, fn)
                            for (oid, event), fn in self._handlers.items()))

    def restore(self, entries: tuple[tuple[int, str, str], ...]) -> None:
        """Reset to a checkpoint's registration set (recovery replay)."""
        self._handlers = {(oid, event): fn for oid, event, fn in entries}

    def clear(self) -> None:
        """Volatile-state discard: the node crashed."""
        self._handlers.clear()


HandlerFn = Callable[..., Any]
