"""The distributed logical thread and its driver.

A :class:`DThread` is the paper's *logical thread*: one flow of control
that crosses object and machine boundaries via invocations (§2). Its call
stack is a list of :class:`Activation` records, each pinned to the node it
executes on; the innermost activation's node is the thread's *current
location* — the thing the §7.1 locators hunt for.

The driver resumes the innermost activation's generator with the result
of its last syscall, receives the next syscall, and dispatches it —
simple ones and kernel ``Call``s here, invocations to the cluster's
invocation engine, event operations to the event manager. Each resumption
is an *interruption point*: if event notices are pending, the thread is
suspended and the delivery engine runs the handler chain before user code
continues ("if an event is delivered to an executing thread, the process
is stopped at the point of delivery", §3).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.errors import (
    ProcessError,
    SimulationError,
    ThreadError,
    ThreadTerminated,
)
from repro.events.block import EventBlock, FrameInfo, ThreadSnapshot
from repro.events.handlers import attach_from_thread
from repro.sim.primitives import SimFuture
from repro.threads import syscalls as sc
from repro.threads.attributes import ThreadAttributes
from repro.threads.context import Ctx
from repro.threads.ids import ThreadId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.boot import Cluster
    from repro.objects.base import DistObject

# -- thread lifecycle states -------------------------------------------------

NEW = "new"
#: A driver step is scheduled or executing; the continuation is internal.
RUNNING = "running"
#: Waiting for an external completion (reply, sleep, page, resume, ...).
BLOCKED = "blocked"
TERMINATING = "terminating"
DONE = "done"
FAILED = "failed"
TERMINATED = "terminated"

#: Thread kinds.
KIND_USER = "user"
#: Surrogate threads execute thread-based handlers on behalf of a
#: suspended thread, taking on its attributes (§6.1).
KIND_SURROGATE = "surrogate"
#: Kernel threads serve object-based events (§7's master handler thread).
KIND_KERNEL = "kernel"

#: channel items one scheduled driver step may take inline (see _step)
RECV_FOLDS = 64


class Activation:
    """One frame of a distributed thread's stack."""

    __slots__ = ("obj", "entry", "gen", "node", "steps", "event_block",
                 "is_remote", "caller_node", "ctx")

    def __init__(self, obj: "DistObject | None", entry: str, gen: Any,
                 node: int, is_remote: bool = False,
                 caller_node: int | None = None,
                 event_block: EventBlock | None = None) -> None:
        self.obj = obj
        self.entry = entry
        self.gen = gen
        self.node = node
        self.steps = 0
        self.event_block = event_block
        self.is_remote = is_remote
        self.caller_node = caller_node
        self.ctx: Ctx | None = None

    def __repr__(self) -> str:  # pragma: no cover - diagnostic only
        where = f"oid={self.obj.oid}" if self.obj is not None else "proc"
        return f"<Activation {where}.{self.entry}@{self.node}>"


class DThread:
    """A logical thread spanning objects and nodes."""

    def __init__(self, cluster: "Cluster", tid: ThreadId,
                 attributes: ThreadAttributes,
                 kind: str = KIND_USER) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.tid = tid
        self.attributes = attributes
        self.kind = kind
        #: for surrogates: the suspended thread this one acts for (its
        #: tid is what user code sees via ctx.tid)
        self.impersonates = None
        #: for a loop thread (surrogate, master, per-event thread): the
        #: activation each frame runs on (``create_loop_thread``), and
        #: what gets ``(value, error)`` when its stack empties, or when
        #: it dies with a frame running, in place of completing it
        self.kept: Activation | None = None
        self.frame_exit: Any = None
        self.state = NEW
        #: False from :meth:`finish` on — the one way into DONE, FAILED
        #: and TERMINATED
        self.alive = True
        self.frames: list[Activation] = []
        self.completion: SimFuture[Any] = SimFuture(cluster.sim)
        #: pending event notices queued for this thread (FIFO; delivery
        #: pops from the left, so a deque keeps each pop O(1))
        self.pending_notices: deque[Any] = deque()
        #: true while the delivery engine owns the thread
        self.suspended_by_event = False
        #: continuation that arrived while suspended
        self._stash: tuple[Any, BaseException | None] | None = None
        #: description of the external completion we are blocked on
        self._wait: dict[str, Any] | None = None
        #: epoch guard: stale completions from a cancelled wait are dropped
        self._wait_epoch = 0
        #: epoch guard for scheduled driver steps (bumped on abort/terminate)
        self._step_epoch = 0
        #: number of the thread-carrying message in flight; it moves when
        #: one leaves and again when it lands, so a duplicate or a message
        #: overtaken by an unwind names a hop that is already past
        self.hop = 0
        #: what that message cannot name and the continuation needs on
        #: arrival: the Invoke syscall, a (value, error) outcome, or the
        #: unwinder's set of already-notified oids
        self.carried: Any = None
        #: timers armed on the current node: spec_id -> (node, timer_id)
        self.armed_timers: dict[int, tuple[int, int]] = {}
        #: event currently being delivered to this thread (None otherwise)
        self.delivering_event: str | None = None
        #: the block whose handler chain is running (surfaced as a
        #: dead-target notice if the thread dies mid-delivery)
        self.delivering_block: Any = None
        #: the surrogate this thread's handlers run on while it stays on
        #: its current node: parked between notices, retired when the
        #: thread leaves the node or ends, see
        #: ``events.execute.Executor._run_on_surrogate``
        self.chain_surrogate: "DThread | None" = None
        #: its handler-chain walk, reused (``events.execute.ChainWalk``)
        self.walk: Any = None
        #: block ids already accepted, oldest first, bounded (suppresses
        #: network duplicates so handlers run exactly once)
        self._seen_blocks: dict[int, None] = {}
        #: exit info for diagnostics
        self.exit_reason: str | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - diagnostic only
        return f"<DThread {self.tid} {self.state} depth={len(self.frames)}>"

    @property
    def current_node(self) -> int:
        """Node of the innermost activation (root node when empty)."""
        if self.frames:
            return self.frames[-1].node
        return self.tid.root

    @property
    def current_object(self) -> "DistObject | None":
        if self.frames:
            return self.frames[-1].obj
        return None

    @property
    def wait_kind(self) -> str | None:
        return self._wait["kind"] if self._wait else None

    @property
    def dying(self) -> bool:
        """True when termination is underway or unavoidable.

        Besides the TERMINATING state this covers a queued or currently-
        delivering TERMINATE/QUIT: resource grants (locks, …) handed to
        such a thread would be consumed by a corpse — its cleanup chain
        has already run or is running past the resource's handler.
        """
        if not self.alive or self.state == TERMINATING:
            return True
        fatal = ("TERMINATE", "QUIT")
        if self.delivering_event in fatal:
            return True
        return any(block.event in fatal for block in self.pending_notices)

    def snapshot(self) -> ThreadSnapshot:
        """The "registers" put into event blocks (§4.1)."""
        # One per notice: tuple.__new__ is what the named tuples' own
        # generated __new__ calls, minus a Python frame per shape.
        new = tuple.__new__
        frames = self.frames
        return new(ThreadSnapshot, (
            self.tid, self.state,
            frames[-1].node if frames else self.tid.root,
            tuple([new(FrameInfo, (-1 if f.obj is None else f.obj._oid,
                                   f.entry, f.node, f.steps))
                   for f in frames])))

    # ------------------------------------------------------------------
    # frame management (used by the invocation engine)
    # ------------------------------------------------------------------

    def push_frame(self, activation: Activation) -> None:
        if activation.ctx is None:  # the kept activation keeps its own
            activation.ctx = Ctx(self, activation)
        self.frames.append(activation)

    def pop_frame(self) -> Activation:
        if not self.frames:
            raise ThreadError(f"{self.tid}: pop from empty frame stack")
        activation = self.frames.pop()
        if activation is not self.kept:
            # Its generator is done, so this is the last link of the
            # Activation <-> Ctx cycle: the frame dies by reference count.
            activation.ctx = None
        return activation

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def schedule_step(self, value: Any = None,
                      error: BaseException | None = None) -> None:
        """Arrange for the driver to resume the innermost frame."""
        self.state = RUNNING
        self.sim.call_soon(self._step, value, error, self._step_epoch)

    def schedule_step_after(self, delay: float, value: Any = None,
                            error: BaseException | None = None) -> None:
        """Resume the innermost frame after ``delay`` of virtual time."""
        self.state = RUNNING
        self.sim.call_after(delay, self._step, value, error, self._step_epoch)

    def cancel_pending_steps(self) -> None:
        """Invalidate the continuation wherever it waits — a scheduled
        driver step or a thread message in flight (abort/terminate)."""
        self._step_epoch += 1
        self.hop += 1

    def resume_with(self, value: Any = None,
                    error: BaseException | None = None,
                    epoch: int | None = None) -> bool:
        """External completion path (replies, sleeps, resumes, pages,
        channel hand-offs).

        ``epoch`` (when provided) must match the wait epoch the completion
        was issued for; stale completions of cancelled waits are dropped.
        Returns whether the thread took the completion.
        """
        if not self.alive:
            return False
        if epoch is not None and epoch != self._wait_epoch:
            return False
        self._wait = None
        if self.suspended_by_event or self.state == TERMINATING:
            self._set_stash(value, error)
        else:
            self.schedule_step(value, error)
        return True

    def _set_stash(self, value: Any, error: BaseException | None) -> None:
        if self._stash is not None:
            raise SimulationError(
                f"{self.tid}: second continuation while suspended")
        self._stash = (value, error)

    def block(self, kind: str, cancel: Any = None) -> int:
        """Record that the thread now waits for an external completion.

        Returns the wait epoch to tag the eventual completion with.
        """
        self.state = BLOCKED
        self._wait_epoch += 1
        self._wait = {"kind": kind, "cancel": cancel}
        return self._wait_epoch

    def cancel_wait(self) -> None:
        """Abandon the current wait (used by termination)."""
        if self._wait is None:
            return
        cancel = self._wait.get("cancel")
        self._wait = None
        self._wait_epoch += 1
        if cancel is not None:
            cancel()

    def _step(self, value: Any, error: BaseException | None,
              step_epoch: int | None = None) -> None:
        if step_epoch is not None and step_epoch != self._step_epoch:
            return
        # Only a step the scheduler runs (it carries its epoch) is the
        # whole callback, so only it may fold its own next hop.
        folds = 0 if step_epoch is not None else RECV_FOLDS
        while True:
            if not self.alive or self.state == TERMINATING:
                return
            if self.suspended_by_event:
                self._set_stash(value, error)
                return
            if self.pending_notices:
                self._set_stash(value, error)
                self.cluster.events.execute.start_delivery(self)
                return
            if not self.frames:
                if self.kept is None:
                    # The first invocation failed before any activation
                    # existed (unknown object/entry, bad arity): the
                    # error is the thread's outcome.
                    self.cluster.invoker.thread_result_with_no_frames(
                        self, value, error)
                    return
                # A loop thread's start (InvocationEngine.run_frame).
                if not (self.frame_exit(value, error) and self.frames):
                    return
            frame = self.frames[-1]
            try:
                if error is not None:
                    syscall = frame.gen.throw(error)
                else:
                    syscall = frame.gen.send(value)
            except StopIteration as stop:
                more = self.cluster.invoker.frame_returned(self, stop.value)
            except BaseException as exc:  # noqa: BLE001 - user code may fail
                more = self.cluster.events.execute.on_frame_exception(
                    self, frame, exc)
            else:
                frame.steps += 1
                if isinstance(syscall, sc.Compute):
                    # CPU burn: continuation stays internal, state stays
                    # RUNNING; events queued meanwhile are delivered at
                    # the next yield.
                    self.state = RUNNING
                    sim = self.sim
                    sim.call_at(sim.now + syscall.seconds, self._step, None,
                                None, self._step_epoch)
                    return
                # Folded, not hopped: a recv that finds an item would
                # schedule this driver again at this instant; with
                # nothing else due, that hop is the next callback
                # anyway, so the loop takes the item here and re-checks
                # what the hop's step would have checked. Bounded, so
                # run(max_events=…) still catches a thread that feeds
                # its own channel.
                if (folds < RECV_FOLDS and isinstance(syscall, sc.Recv)
                        and len(syscall.channel) and not self.pending_notices
                        and self.state == RUNNING
                        and self.sim.nothing_due_now()):
                    folds += 1
                    value, error = syscall.channel.pop(), None
                    continue
                self._dispatch(frame, syscall)
                return
            # A loop thread's frame_exit pushed its next frame, or hops.
            if not (more and self.frames):
                return
            value = error = None

    # ------------------------------------------------------------------
    # syscall dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, frame: Activation, syscall: Any) -> None:
        """Serve every syscall but ``Compute``, which ``_step`` schedules
        itself."""
        cluster = self.cluster
        if isinstance(syscall, sc.SleepFor):
            epoch = self.block("sleep")
            handle = self.sim.call_after(
                syscall.seconds, self.resume_with, None, None, epoch)
            self._wait["cancel"] = partial(self.sim.cancel, handle)
        elif isinstance(syscall, sc.WaitFor):
            self._wait_on_future(syscall.future)
        elif isinstance(syscall, sc.Recv):
            channel = syscall.channel
            if len(channel):
                # A hop, where _step could not fold one: other work is
                # due at this instant, a notice is pending, the step runs
                # inside another callback, or its fold budget is spent.
                self.schedule_step(channel.pop(), None)
            else:
                # Parked: put() hands the item straight to resume_with,
                # which declines it (the next waiter is served) once this
                # wait is over; termination unparks.
                epoch = self.block("recv")
                take = partial(self.resume_with, error=None, epoch=epoch)
                self._wait["cancel"] = partial(channel.unpark, take)
                channel.park(take)
        elif isinstance(syscall, sc.Invoke):
            cluster.invoker.invoke(self, syscall)
        elif isinstance(syscall, sc.InvokeAsync):
            cluster.invoker.invoke_async(self, syscall)
        elif isinstance(syscall, sc.CreateObject):
            cluster.invoker.create_object_from_thread(self, syscall)
        elif isinstance(syscall, sc.AttachHandler):
            attach_from_thread(cluster, self, frame, syscall)
        elif isinstance(syscall, sc.Raise):
            cluster.events.raise_from_thread(self, syscall)
        elif isinstance(syscall, sc.Call):
            try:
                value = syscall.fn(*syscall.args)
            except Exception as exc:  # noqa: BLE001 - thrown into the frame
                self.schedule_step(None, exc)
            else:
                self.schedule_step(value, None)
        elif isinstance(syscall, sc.FieldAccess):
            cluster.dsm.field_access(self, frame, syscall.name, syscall.value,
                                     syscall.write)
        else:
            self.schedule_step(None, ProcessError(
                f"{self.tid} yielded unsupported value {syscall!r}"))

    def _wait_on_future(self, future: SimFuture[Any]) -> None:
        epoch = self.block("future")

        def done(fut: SimFuture[Any]) -> None:
            if fut.failed or fut.cancelled:
                try:
                    fut.result()
                except BaseException as exc:  # noqa: BLE001
                    self.resume_with(None, exc, epoch)
                return
            self.resume_with(fut.result(), None, epoch)

        future.add_done_callback(done)

    # ------------------------------------------------------------------
    # kernel calls the Ctx builders bind into sc.Call (documented there)
    # ------------------------------------------------------------------

    def io_write(self, text: str) -> None:
        channel = self.attributes.io_channel
        if channel is not None:
            channel.write(self.sim.now, self.tid, text)

    def new_group(self) -> Any:
        gid = self.cluster.kernels[self.current_node].id_allocator.new_gid()
        self.cluster.groups.create(gid)
        return self.join_group(gid)

    def join_group(self, gid: Any) -> Any:
        groups = self.cluster.groups
        groups.members(gid)  # validates existence
        old = self.attributes.group
        if old is not None:
            groups.remove(old, self.tid)
        groups.add(gid, self.tid)
        self.attributes.group = gid
        return gid

    def leave_group(self) -> Any:
        old = self.attributes.group
        if old is not None:
            self.cluster.groups.remove(old, self.tid)
            self.attributes.group = None
        return old

    # ------------------------------------------------------------------
    # event integration
    # ------------------------------------------------------------------

    def accept_block(self, block_id: int, window: int = 256) -> bool:
        """Record a block id; False if this thread already accepted it.

        The channel layer deduplicates per-link, but a retried locate can
        deliver the same block along a different path (e.g. a hint chase
        and a broadcast fallback both landing). This per-thread window is
        the last line of the exactly-once-execution guarantee.
        """
        seen = self._seen_blocks
        if block_id in seen:
            return False
        seen[block_id] = None
        if len(seen) > window:
            del seen[next(iter(seen))]
        return True

    def notice_arrived(self) -> None:
        """The event manager queued a notice; begin delivery if possible."""
        if not self.alive or self.state == TERMINATING:
            return
        if self.suspended_by_event:
            return  # current delivery will drain the queue
        if self.state == BLOCKED:
            # Suspended at its wait point immediately.
            self.cluster.events.execute.start_delivery(self)
        # RUNNING / NEW: the next _step checks pending_notices.

    def finish(self, value: Any = None, error: BaseException | None = None,
               state: str = DONE) -> None:
        """Mark the thread finished and resolve its completion future."""
        if not self.alive:
            return
        self.alive = False
        self.state = state
        self.exit_reason = repr(error) if error is not None else "returned"
        if error is not None:
            self.completion.fail(error)
        else:
            self.completion.resolve(value)

    def unwind_close(self, frame: Activation) -> BaseException | None:
        """Throw ThreadTerminated into one frame during termination.

        User ``finally`` blocks run; a frame that *catches* the
        termination and keeps yielding is forcibly closed (cleanup work
        belongs in TERMINATE handlers, not in entry-point ``except``
        clauses). Returns the exception the frame escaped with, if any
        interesting one.
        """
        try:
            frame.gen.throw(ThreadTerminated(f"{self.tid} terminated"))
        except (StopIteration, ThreadTerminated):
            return None
        except BaseException as exc:  # noqa: BLE001 - cleanup crash
            return exc
        # The generator swallowed the termination and yielded again.
        frame.gen.close()
        return None
