"""Per-activation execution context handed to user code.

Every entry point, object handler and per-thread procedure receives a
:class:`Ctx` as its first argument. It has two faces:

* **syscall builders** — methods returning request objects to ``yield``
  (``result = yield ctx.invoke(cap, "work", 1)``). A builder whose
  operation is one kernel function call (detach, timers, pager, I/O,
  groups, ...) returns a ``syscalls.Call`` of that function, bound to
  ``_thread`` — the executing thread the driver dispatches on, never the
  impersonated ``tid`` a surrogate shows user code;
* **immediate accessors** — cheap reads of thread/cluster state that need
  no kernel involvement (``ctx.tid``, ``ctx.now``, ``ctx.lookup(name)``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable

from repro.events.block import EventBlock
from repro.events.handlers import HandlerContext
from repro.objects.capability import Capability
from repro.threads import syscalls as sc
from repro.threads.attributes import ThreadAttributes, TimerSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.threads.thread import Activation, DThread


class Ctx:
    """Execution context bound to one activation of one thread."""

    def __init__(self, thread: "DThread", activation: "Activation") -> None:
        self._thread = thread
        self._activation = activation

    # ------------------------------------------------------------------
    # immediate accessors
    # ------------------------------------------------------------------

    @property
    def tid(self):
        """This thread's id (the suspended thread's id inside a
        surrogate-executed handler)."""
        return self._thread.impersonates or self._thread.tid

    @property
    def real_tid(self):
        """The executing thread's own id, surrogate or not."""
        return self._thread.tid

    @property
    def gid(self):
        """This thread's group id (or None)."""
        return self._thread.attributes.group

    @property
    def node(self) -> int:
        """Node this activation executes on."""
        return self._activation.node

    # a C-level getter: reading the clock costs no Python frame
    now = property(attrgetter("_thread.sim.now"),
                   doc="Current virtual time.")

    @property
    def current_object(self):
        """The object this activation runs in (None in bare procedures)."""
        return self._activation.obj

    @property
    def self_cap(self) -> Capability | None:
        obj = self._activation.obj
        return obj.cap if obj is not None else None

    @property
    def attributes(self) -> ThreadAttributes:
        """The thread's traveling attributes (visible everywhere, §3.1)."""
        return self._thread.attributes

    @property
    def event_block(self) -> EventBlock | None:
        """While handling an event: the block being handled, else None."""
        return self._activation.event_block

    def lookup(self, name: str) -> Any:
        """Name-service lookup (idealised, zero cost)."""
        return self._thread.cluster.names.lookup(name)

    def lookup_or_none(self, name: str) -> Any:
        return self._thread.cluster.names.lookup_or_none(name)

    # ------------------------------------------------------------------
    # syscall builders (yield the return value)
    # ------------------------------------------------------------------

    # A builder that only passes its argument on is the request class
    # itself: the request's ``__init__`` is the one frame a yield builds.
    compute = staticmethod(sc.Compute)
    sleep = staticmethod(sc.SleepFor)
    wait = staticmethod(sc.WaitFor)
    recv = staticmethod(sc.Recv)

    def invoke(self, cap: Capability, entry: str, *args: Any) -> sc.Invoke:
        return sc.Invoke(cap=cap, entry=entry, args=args)

    def invoke_async(self, cap: Capability, entry: str, *args: Any,
                     claimable: bool = True) -> sc.InvokeAsync:
        return sc.InvokeAsync(cap=cap, entry=entry, args=args,
                              claimable=claimable)

    def create(self, cls: type, *args: Any, node: int | None = None,
               transport: str | None = None, **kwargs: Any) -> sc.CreateObject:
        return sc.CreateObject(cls=cls, node=node, args=args, kwargs=kwargs,
                               transport=transport)

    def attach_handler(self, event: str,
                       handler: Any,
                       context: HandlerContext | None = None,
                       buddy: Capability | None = None,
                       deadline: float | None = None) -> sc.AttachHandler:
        """Build the §5.2 ``attach_handler`` call.

        ``handler`` may be:

        * a **method name** (string) on the current object — attaching-
          object context, or buddy context when ``buddy`` is given;
        * a **callable** — installed into per-thread memory and executed
          in the current object's context at delivery time
          (``OWN_CONTEXT``).

        ``context`` overrides the inferred context when both
        interpretations are possible. ``deadline`` sets a per-
        registration watchdog deadline overriding ``handler_deadline``.
        """
        if callable(handler) and not isinstance(handler, str):
            fn: Callable = handler
            return sc.AttachHandler(event=event,
                                    context=HandlerContext.CURRENT,
                                    procedure=fn, deadline=deadline)
        if buddy is not None:
            return sc.AttachHandler(event=event, context=HandlerContext.BUDDY,
                                    fn_name=str(handler), target=buddy,
                                    deadline=deadline)
        return sc.AttachHandler(
            event=event,
            context=context or HandlerContext.ATTACHING,
            fn_name=str(handler), deadline=deadline)

    def detach_handler(self, event: str, reg_id: int | None = None) -> sc.Call:
        """Remove registration ``reg_id``, or the top of the event's chain;
        yields whether one was removed."""
        return sc.Call(self._thread.attributes.detach, (event, reg_id))

    def register_event(self, name: str) -> sc.Call:
        """Register a user event name with the operating system (§3)."""
        thread = self._thread
        return sc.Call(thread.cluster.names.register_event, (name, thread.tid))

    def raise_event(self, event: str, target: Any,
                    user_data: Any = None) -> sc.Raise:
        """Asynchronous ``raise(e, tid|gtid|oid)`` (§5.3)."""
        return sc.Raise(event=event, target=target, user_data=user_data,
                        synchronous=False)

    def raise_and_wait(self, event: str, target: Any,
                       user_data: Any = None) -> sc.Raise:
        """Synchronous ``raise_and_wait(e, tid|gtid|oid)`` (§5.3)."""
        return sc.Raise(event=event, target=target, user_data=user_data,
                        synchronous=True)

    def resume_raiser(self, block: EventBlock, value: Any = None) -> sc.Call:
        """Resume ``block``'s synchronously-blocked raiser with ``value`` now,
        before further (possibly long) handler work — else the chain's end
        resumes it."""
        return sc.Call(self._thread.cluster.events.settle.resume_raiser,
                       (block, value))

    def set_timer(self, interval: float, event: str = "TIMER",
                  recurring: bool = True, user_data: Any = None) -> sc.Call:
        """Add a timer to the thread's attributes (§6.2), re-armed on every
        node the thread enters; yields its spec id."""
        thread = self._thread
        spec = TimerSpec(event, interval, recurring, user_data)
        return sc.Call(thread.cluster.events.presence.add_thread_timer,
                       (thread, spec))

    def cancel_timer(self, spec_id: int) -> sc.Call:
        """Remove an attribute timer; yields True if it was found."""
        thread = self._thread
        return sc.Call(thread.cluster.events.presence.remove_thread_timer,
                       (thread, spec_id))

    def read(self, name: str) -> sc.FieldAccess:
        """Read a field of the current object (may page-fault under DSM)."""
        return sc.FieldAccess(name)

    def write(self, name: str, value: Any) -> sc.FieldAccess:
        """Write a field of the current object (may page-fault under DSM)."""
        return sc.FieldAccess(name, value, True)

    def install_page(self, oid: int, page_id: int, values: dict,
                     private_for: int | None = None) -> sc.Call:
        """Pager API (§6.4): supply a faulted page's data, materialised
        globally or as a weak copy private to node ``private_for``."""
        return sc.Call(self._thread.cluster.dsm.install_page,
                       (oid, page_id, values, private_for))

    def merge_pages(self, oid: int, page_id: int) -> sc.Call:
        """Pager API (§6.4): fold a page's private copies back into it;
        yields the merged values."""
        return sc.Call(self._thread.cluster.dsm.merge_pages, (oid, page_id))

    def io_write(self, text: str) -> sc.Call:
        """Write a line to the thread's I/O channel attribute (§3.1)."""
        return sc.Call(self._thread.io_write, (text,))

    def new_group(self) -> sc.Call:
        """Create a thread group and move this thread into it; yields its
        id."""
        return sc.Call(self._thread.new_group)

    def join_group(self, gid: Any) -> sc.Call:
        """Move this thread into the existing group ``gid`` (§5.3)."""
        return sc.Call(self._thread.join_group, (gid,))

    def leave_group(self) -> sc.Call:
        """Leave the current group; yields the old group id (or None)."""
        return sc.Call(self._thread.leave_group)
