"""Syscalls yielded by user code running on distributed threads.

Entry points, handlers and per-thread procedures are generator functions;
each ``yield`` hands one of these request objects to the thread driver,
which performs the operation (possibly involving messages and virtual
latency) and resumes the generator with the result. Yield points are also
the instants at which pending events are delivered — the paper's
"the process is stopped at the point of delivery".

A request has a type only where the driver does more than call the
kernel and resume; every other operation is a :class:`Call` of the kernel
function its :class:`~repro.threads.context.Ctx` builder bound, and user
code builds all of them through that facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ProcessError
from repro.events.block import EventBlock
from repro.events.handlers import HandlerContext
from repro.objects.capability import Capability
from repro.sim.primitives import SimFuture


class ThreadSyscall:
    """Base class for thread-level syscalls."""

    __slots__ = ()


@dataclass(frozen=True)
class Compute(ThreadSyscall):
    """Burn ``seconds`` of virtual CPU time on the current node."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ProcessError(f"negative compute time {self.seconds!r}")


@dataclass(frozen=True)
class SleepFor(ThreadSyscall):
    """Block for ``seconds`` of virtual time (interruptible by events)."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ProcessError(f"negative sleep {self.seconds!r}")


@dataclass(frozen=True)
class Invoke(ThreadSyscall):
    """Synchronously invoke an entry point of another object.

    Under RPC transport the logical thread migrates to the object's home
    node; under DSM transport the entry runs locally and the object's
    pages are faulted in. Yields the entry's return value.
    """

    cap: Capability
    entry: str
    args: tuple = ()
    #: internal: resolve the name through handler_fn (unscheduled
    #: invocation of a private handler method, §4.3)
    as_handler: bool = False
    #: internal: extra payload for handler invocations (the event block)
    handler_block: EventBlock | None = None


@dataclass(frozen=True)
class InvokeAsync(ThreadSyscall):
    """Spawn a new thread to invoke an entry point (asynchronous invocation).

    Yields an :class:`AsyncHandle`. If ``claimable`` the handle carries a
    future for the result; non-claimable invocations are fire-and-forget
    (the system "may not keep track" of them, §7.1).
    """

    cap: Capability
    entry: str
    args: tuple = ()
    claimable: bool = True


@dataclass(frozen=True)
class AsyncHandle:
    """Result of :class:`InvokeAsync`: the spawned thread and its future."""

    tid: Any
    result: SimFuture | None


@dataclass(frozen=True)
class WaitFor(ThreadSyscall):
    """Block until a :class:`SimFuture` resolves (interruptible)."""

    future: SimFuture


@dataclass(frozen=True)
class CreateObject(ThreadSyscall):
    """Create and place a new distributed object; yields its capability."""

    cls: type
    node: int | None = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    transport: str | None = None


@dataclass(frozen=True)
class AttachHandler(ThreadSyscall):
    """The ``attach_handler`` system call of §5.2.

    Yields the registration id (usable with ``ctx.detach_handler``).
    """

    event: str
    context: HandlerContext
    #: ATTACHING/BUDDY: method name on the target object
    fn_name: str | None = None
    #: BUDDY: the buddy object's capability (ATTACHING uses the current one)
    target: Capability | None = None
    #: CURRENT: a callable installed into per-thread memory, or the name
    #: of an already-installed procedure
    procedure: Any = None
    #: Per-registration watchdog deadline overriding ``handler_deadline``
    deadline: float | None = None


@dataclass(frozen=True)
class Raise(ThreadSyscall):
    """The ``raise`` / ``raise_and_wait`` system call of §5.3.

    ``target`` is a ThreadId, GroupId or Capability/oid. Asynchronous
    raises yield immediately (with the number of recipients targeted);
    synchronous raises block until a handler resumes the raiser and yield
    the handler's value.
    """

    event: str
    target: Any
    user_data: Any = None
    synchronous: bool = False


@dataclass(frozen=True)
class FieldAccess(ThreadSyscall):
    """Read a field of the current object, or with ``write`` set it to
    ``value``; may page-fault under DSM transport. Yields the value read
    (None for a write)."""

    name: str
    value: Any = None
    write: bool = False


@dataclass(frozen=True)
class Recv(ThreadSyscall):
    """Receive the next item from a sim channel (blocking, interruptible)."""

    channel: Any


@dataclass(frozen=True)
class Call(ThreadSyscall):
    """Run ``fn(*args)`` in the kernel and resume with its value.

    The driver makes the call when it takes the yield, then resumes the
    frame one scheduler hop later with the return value — or throws the
    call's exception into the frame at its yield.
    """

    fn: Callable[..., Any]
    args: tuple = ()
