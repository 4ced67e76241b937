"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause
while still distinguishing the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class ProcessError(SimulationError):
    """A logical-thread frame performed an illegal operation.

    Raised by the thread driver (:mod:`repro.threads`) for a negative
    ``compute`` / ``sleep`` and for a yielded value that is not a syscall.
    """


class NetworkError(ReproError):
    """The message fabric was used incorrectly."""


class PartitionedError(NetworkError):
    """A message could not be delivered because of a network partition."""


class KernelError(ReproError):
    """A node kernel was used incorrectly."""


class UnknownNodeError(KernelError):
    """Referenced a node id that does not exist in the cluster."""


class NodeCrashedError(KernelError):
    """An operation failed because its node crashed.

    Threads resident on a crashed node fail their completion futures with
    this error; RPC calls targeting the node fail fast with it when the
    crash is observed.
    """


class UndeliverableError(NetworkError):
    """A reliable send exhausted its retransmission budget.

    The receiving node is unreachable (crashed, partitioned beyond the
    retransmit horizon, or detached); the message was given up on after
    ``max_retransmits`` attempts. This is the bounded-time signal §7.2
    asks for in place of a silent hang.
    """


class OverloadShedError(UndeliverableError):
    """The post was shed by admission control.

    The raiser's node (or the target's home) was over its admission
    high watermark and the ``overload_policy`` rejected the post. Like
    every undeliverable outcome this is surfaced as a bounded-time
    notice (§7.2), never a silent loss.
    """


class UnconfirmedError(UndeliverableError):
    """A degraded (fire-and-forget) post got no confirmation in time.

    The ``degrade`` overload policy sends an object post as one datagram
    and its home node answers with one best-effort ``degrade.done``; the
    origin cannot tell a lost post from a lost answer. So this notice
    means *unconfirmed*, not *not executed*: the post ran at most once,
    possibly once.
    """


class NameServiceError(KernelError):
    """A name lookup or registration failed."""


class RpcError(KernelError):
    """A request/reply exchange failed."""


class RpcTimeout(RpcError):
    """A request did not receive a reply within its deadline."""


class ObjectError(ReproError):
    """An object-system operation failed."""


class UnknownObjectError(ObjectError):
    """Referenced an object id that is not registered anywhere."""


class NoSuchEntryError(ObjectError):
    """Invoked an entry point that the object does not define."""


class InvocationError(ObjectError):
    """An invocation could not be carried out."""


class InvocationAborted(InvocationError):
    """An in-progress invocation was aborted (e.g. by an ABORT event)."""


class ThreadError(ReproError):
    """A thread-system operation failed."""


class UnknownThreadError(ThreadError):
    """Referenced a thread id that does not exist (or no longer exists)."""


class DeadThreadError(UnknownThreadError):
    """An event was posted to a thread that has already terminated.

    The paper (section 7.2) requires that the sender of an asynchronous
    event be notified when the target thread has been destroyed; this
    exception is that notification.
    """


class ThreadTerminated(ThreadError):
    """Thrown into a thread's activations while it is being terminated.

    User entry points observe this as an exception so their ``finally``
    blocks run, mirroring stack unwinding during termination.
    """


class GroupError(ThreadError):
    """A thread-group operation failed."""


class EventError(ReproError):
    """An event-system operation failed."""


class UnknownEventError(EventError):
    """Raised or attached a handler for an event name never registered."""


class EventNameInUseError(EventError):
    """Attempted to register an event name that already exists."""


class NoHandlerError(EventError):
    """No handler accepted the event and no default action applies."""


class HandlerContextError(EventError):
    """A handler's execution context could not be established."""


class HandlerTimeout(EventError):
    """A supervised handler exceeded its watchdog deadline.

    The surrogate thread running the handler is cancelled, the chain
    falls through to the next registration, and a ``HANDLER_TIMEOUT``
    system event is raised on the owning thread (if it subscribed).
    """


class BuddyUnavailableError(EventError):
    """A buddy invocation was failed fast by the failure detector.

    The raiser's SWIM membership view holds the buddy object's home
    node suspected or confirmed dead; rather than waiting out the full
    retransmission give-up, the invocation fails immediately and feeds
    the circuit breaker / retry policy.
    """


class EventQuarantinedError(EventError):
    """An event block was moved to the dead-letter queue.

    A synchronous raiser whose event's entire handler chain failed
    ``poison_threshold`` times is resumed with this error instead of
    hanging; the block is inspectable via ``cluster.dead_letters()``.
    """


class DsmError(ReproError):
    """A distributed-shared-memory operation failed."""


class SegmentError(DsmError):
    """A segment was created, mapped or accessed incorrectly."""


class PageFaultError(DsmError):
    """A page fault could not be satisfied."""


class CoherenceError(DsmError):
    """The coherence protocol detected an inconsistent state."""


class PagerError(DsmError):
    """A user-level pager misbehaved."""


class LockError(ReproError):
    """A distributed lock operation failed."""


class LockNotHeldError(LockError):
    """Released a lock the thread does not hold."""


class BenchmarkError(ReproError):
    """A benchmark harness was configured incorrectly."""
