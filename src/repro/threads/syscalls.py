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

A request is paid once per yield, so each type is a plain ``__slots__``
class whose own ``__init__`` validates and stores its fields in one
frame (no dataclass: no generated ``__init__``, no ``__post_init__``, no
instance ``__dict__``). Requests compare by identity; the driver only
reads their fields.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ProcessError
from repro.events.block import EventBlock
from repro.events.handlers import HandlerContext
from repro.objects.capability import Capability
from repro.sim.primitives import SimFuture


class ThreadSyscall:
    """Base class for thread-level syscalls."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Compute(ThreadSyscall):
    """Burn ``seconds`` of virtual CPU time on the current node."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        # `not >=` also refuses NaN, which no clock comparison orders
        if not seconds >= 0:
            raise ProcessError(f"compute time must be >= 0, got {seconds!r}")
        self.seconds = seconds


class SleepFor(ThreadSyscall):
    """Block for ``seconds`` of virtual time (interruptible by events)."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        if not seconds >= 0:
            raise ProcessError(f"sleep time must be >= 0, got {seconds!r}")
        self.seconds = seconds


class Invoke(ThreadSyscall):
    """Synchronously invoke an entry point of another object.

    Under RPC transport the logical thread migrates to the object's home
    node; under DSM transport the entry runs locally and the object's
    pages are faulted in. Yields the entry's return value.

    Internal: ``as_handler`` resolves the name through ``handler_fn``
    (unscheduled invocation of a private handler method, §4.3);
    ``handler_block`` is the event block such an invocation handles.
    """

    __slots__ = ("cap", "entry", "args", "as_handler", "handler_block")

    def __init__(self, cap: Capability, entry: str, args: tuple = (),
                 as_handler: bool = False,
                 handler_block: EventBlock | None = None) -> None:
        self.cap = cap
        self.entry = entry
        self.args = args
        self.as_handler = as_handler
        self.handler_block = handler_block


class InvokeAsync(ThreadSyscall):
    """Spawn a new thread to invoke an entry point (asynchronous invocation).

    Yields an :class:`AsyncHandle`. If ``claimable`` the handle carries a
    future for the result; non-claimable invocations are fire-and-forget
    (the system "may not keep track" of them, §7.1).
    """

    __slots__ = ("cap", "entry", "args", "claimable")

    def __init__(self, cap: Capability, entry: str, args: tuple = (),
                 claimable: bool = True) -> None:
        self.cap = cap
        self.entry = entry
        self.args = args
        self.claimable = claimable


class AsyncHandle:
    """Result of :class:`InvokeAsync`: the spawned thread and its future."""

    __slots__ = ("tid", "result")

    def __init__(self, tid: Any, result: SimFuture | None) -> None:
        self.tid = tid
        self.result = result

    __repr__ = ThreadSyscall.__repr__


class WaitFor(ThreadSyscall):
    """Block until a :class:`SimFuture` resolves (interruptible)."""

    __slots__ = ("future",)

    def __init__(self, future: SimFuture) -> None:
        self.future = future


class CreateObject(ThreadSyscall):
    """Create and place a new distributed object; yields its capability."""

    __slots__ = ("cls", "node", "args", "kwargs", "transport")

    def __init__(self, cls: type, node: int | None = None, args: tuple = (),
                 kwargs: dict | None = None,
                 transport: str | None = None) -> None:
        self.cls = cls
        self.node = node
        self.args = args
        self.kwargs = {} if kwargs is None else kwargs
        self.transport = transport


class AttachHandler(ThreadSyscall):
    """The ``attach_handler`` system call of §5.2.

    Yields the registration id (usable with ``ctx.detach_handler``).
    ``fn_name`` is the method name on the target object (ATTACHING /
    BUDDY); ``target`` the buddy object's capability (ATTACHING uses the
    current one); ``procedure`` a callable installed into per-thread
    memory, or the name of an already-installed procedure (CURRENT);
    ``deadline`` a per-registration watchdog deadline overriding
    ``handler_deadline``.
    """

    __slots__ = ("event", "context", "fn_name", "target", "procedure",
                 "deadline")

    def __init__(self, event: str, context: HandlerContext,
                 fn_name: str | None = None,
                 target: Capability | None = None, procedure: Any = None,
                 deadline: float | None = None) -> None:
        self.event = event
        self.context = context
        self.fn_name = fn_name
        self.target = target
        self.procedure = procedure
        self.deadline = deadline


class Raise(ThreadSyscall):
    """The ``raise`` / ``raise_and_wait`` system call of §5.3.

    ``target`` is a ThreadId, GroupId or Capability/oid. Asynchronous
    raises yield immediately (with the number of recipients targeted);
    synchronous raises block until a handler resumes the raiser and yield
    the handler's value.
    """

    __slots__ = ("event", "target", "user_data", "synchronous")

    def __init__(self, event: str, target: Any, user_data: Any = None,
                 synchronous: bool = False) -> None:
        self.event = event
        self.target = target
        self.user_data = user_data
        self.synchronous = synchronous


class FieldAccess(ThreadSyscall):
    """Read a field of the current object, or with ``write`` set it to
    ``value``; may page-fault under DSM transport. Yields the value read
    (None for a write)."""

    __slots__ = ("name", "value", "write")

    def __init__(self, name: str, value: Any = None,
                 write: bool = False) -> None:
        self.name = name
        self.value = value
        self.write = write


class Recv(ThreadSyscall):
    """Receive the next item from a sim channel (blocking, interruptible)."""

    __slots__ = ("channel",)

    def __init__(self, channel: Any) -> None:
        self.channel = channel


class Call(ThreadSyscall):
    """Run ``fn(*args)`` in the kernel and resume with its value.

    The driver makes the call when it takes the yield, then resumes the
    frame one scheduler hop later with the return value — or throws the
    call's exception into the frame at its yield.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., Any], args: tuple = ()) -> None:
        self.fn = fn
        self.args = args
