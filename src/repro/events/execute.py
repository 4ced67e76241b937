"""Execute: run a delivered notice's LIFO handler chain (§4–§6.1).

The target thread is suspended at its next interruption point, each
handler of its chain runs in its declared context (current object /
attaching object / buddy) on a *surrogate thread* that takes on the
suspended thread's attributes, and the final decision resumes or
terminates the thread. The same walker serves §6.1, where a faulting
frame's exception is offered to the object's handler, then the chain.
Supervision verdicts come from the ``HandlerSupervisor``.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from repro.errors import (
    BuddyUnavailableError,
    HandlerContextError,
    HandlerTimeout,
    InvocationAborted,
    NodeCrashedError,
    RpcTimeout,
    ThreadTerminated,
    UndeliverableError,
    UnknownObjectError,
)
from repro.events import defaults
from repro.events.block import EventBlock
from repro.events.handlers import Decision, HandlerContext, HandlerRegistration
from repro.events.settle import EXECUTED, Settler
from repro.events.supervise import HandlerSupervisor
from repro.net.stats import LatencyReservoir
from repro.threads import syscalls as sc
from repro.threads.thread import (
    DThread,
    KIND_SURROGATE,
    KIND_USER,
    TERMINATING,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.boot import Cluster
    from repro.threads.thread import Activation

#: buddy-invocation failures worth retrying / feeding the breaker: the
#: handler object's node crashed, the reliable send gave up, an RPC leg
#: timed out, or the failure detector failed the call fast
RETRYABLE_INVOKE_ERRORS = (NodeCrashedError, UndeliverableError, RpcTimeout,
                           BuddyUnavailableError)

#: virtual seconds to suspend/resume a thread at event delivery,
#: charged once per notice
CONTEXT_SWITCH_COST = 1e-5
#: virtual seconds to set up the surrogate for a thread-based handler,
#: charged once per handler run
SURROGATE_COST = 5e-5


class ChainWalk:
    """A thread's handler-chain walk, kept on it (``thread.walk``) for
    every later walk: ``block`` offered down ``chain`` from position
    ``at``, the failures and last error so far, and the running
    handler's node, invocation attempt and watchdog."""

    __slots__ = ("chain", "block", "finish", "entry", "at", "failures",
                 "error", "node", "attempt", "watchdog")


def _invoke_frame(ctx, cap, fn_name, block):
    """Surrogate frame: attaching-object / buddy handler via
    unscheduled invocation."""
    return (yield sc.Invoke(cap=cap, entry=fn_name, args=(block,),
                            as_handler=True, handler_block=block))


class Executor:
    """Handler chains for notices and frame exceptions (a delivery's
    state lives on the suspended thread, not here)."""

    def __init__(self, cluster: "Cluster", supervisor: HandlerSupervisor,
                 settle: Settler) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.kernels = cluster.kernels
        self.invoker = cluster.invoker
        self.supervisor = supervisor
        self.settle = settle
        self.handler_retries = cluster.config.handler_retries
        self.handler_backoff = cluster.config.handler_backoff
        self.handler_deadline = cluster.config.handler_deadline
        #: notices whose handling began
        self.delivered = 0
        #: handler surrogates that raised (folded into PROPAGATE)
        self.handler_failures = 0
        #: per-delivery (event, raise->deliver virtual latency) samples —
        #: a bounded reservoir so long runs stop accumulating memory
        self.delivery_latencies = LatencyReservoir()

    # ==================================================================
    # suspension and the notice queue
    # ==================================================================

    def start_delivery(self, thread: DThread) -> None:
        """Suspend the thread and begin draining its notice queue."""
        if (thread.suspended_by_event or not thread.alive
                or thread.state == TERMINATING):
            return
        thread.suspended_by_event = True
        sim = self.sim
        sim.call_at(sim.now + CONTEXT_SWITCH_COST, self._next_notice, thread)

    def _next_notice(self, thread: DThread) -> None:
        if not thread.alive or thread.state == TERMINATING:
            thread.suspended_by_event = False
            return
        if not thread.pending_notices:
            self._end_suspension(thread)
            return
        block = thread.pending_notices.popleft()
        thread.delivering_event = block.event
        thread.delivering_block = block
        block.delivered_at = self.sim.now
        block.snapshot = thread.snapshot()
        self.delivered += 1
        self.delivery_latencies.record(
            block.event, block.delivered_at - block.raised_at)
        if "event" not in self.tracer.muted:
            self.tracer.emit("event", "deliver", event=block.event,
                             tid=str(thread.tid), node=thread.current_node)
        self._walk(thread, block, thread.attributes.handlers_for(block.event))

    def _end_suspension(self, thread: DThread) -> None:
        thread.suspended_by_event = False
        thread.delivering_event = None
        thread.delivering_block = None
        if not thread.alive:
            return
        if thread.pending_notices:
            self.start_delivery(thread)
            return
        stash = thread._stash
        if stash is not None:
            thread._stash = None
            thread.schedule_step(*stash)
        # else: the thread keeps waiting for whatever it was blocked on.

    # ==================================================================
    # the chain walker
    # ==================================================================

    def _walk(self, thread: DThread, block: EventBlock,
              chain: list[HandlerRegistration], finish: Any = None) -> None:
        """Offer ``block`` to ``chain``, newest handler first; the first
        decision other than PROPAGATE ends the walk.

        ``finish`` is None for a delivered notice: the decision is
        applied to the suspended thread, a chain that runs out falls to
        the event's default, and one in which *every* handler failed is
        a poison candidate. A frame exception (§6.1) passes its own
        ``finish(thread, block, decision, value)`` and sees PROPAGATE
        when the chain runs out.
        """
        walk = thread.walk
        if walk is None:
            walk = thread.walk = ChainWalk()
        walk.chain, walk.block, walk.finish = chain, block, finish
        walk.entry = f"handler:{block.event}"
        walk.at = walk.failures = 0
        walk.error = walk.watchdog = None
        self._offer(thread, walk)

    def _offer(self, thread: DThread, walk: ChainWalk) -> None:
        """Run the handler at ``walk.at``, or end a walk past the last."""
        finish = walk.finish
        if finish is None and not thread.alive:
            # thread_gone has already concluded the block as a §7.2
            # notice (and the surrogate went with its owner).
            walk.block = walk.error = None
            return
        chain = walk.chain
        if walk.at < len(chain):
            self._execute_registration(thread, walk, chain[walk.at])
            return
        block, last_error = walk.block, walk.error
        walk.block = walk.error = None
        if finish is not None:
            finish(thread, block, Decision.PROPAGATE, None)
            return
        if chain and walk.failures >= len(chain):
            # Poison policy: an *entire* chain of failures (every
            # handler raised — watchdog timeouts excluded, since a
            # cancelled handler may have half-executed and a re-run
            # would double its side effects). Deliberate PROPAGATE
            # decisions and breaker skips are not failures.
            frames = thread.frames  # thread.current_node, inline
            if self.supervisor.poisoned(
                    block, last_error,
                    frames[-1].node if frames else thread.tid.root,
                    self._retry_chain, thread, block,
                    tid=str(thread.tid)) == "retry":
                return
        self._apply_decision(thread, block,
                             defaults.thread_default(block.event), None)

    def _decided(self, thread: DThread, decision: Decision, value: Any,
                 error: BaseException | None) -> None:
        """The running handler's decision: PROPAGATE falls through."""
        walk = thread.walk
        if "event" not in self.tracer.muted:
            self.tracer.emit(
                "event", "handler-done", event=walk.block.event,
                tid=str(thread.tid), context=walk.chain[walk.at].context.value,
                decision=decision.value, error=repr(error) if error else None)
        if decision is Decision.PROPAGATE:
            if error is not None:
                if not isinstance(error, HandlerTimeout):
                    walk.failures += 1
                walk.error = error
            walk.at += 1
            self._offer(thread, walk)
            return
        block = walk.block
        walk.block = walk.error = None
        (walk.finish or self._apply_decision)(thread, block, decision, value)

    def _retry_chain(self, thread: DThread, block: EventBlock) -> None:
        if not thread.alive or thread.delivering_block is not block:
            # The thread died while the retry was pending (thread_gone
            # already issued the §7.2 notice) or handling moved on.
            return
        self._walk(thread, block, thread.attributes.handlers_for(block.event))

    def _apply_decision(self, thread: DThread, block: EventBlock,
                        decision: Decision, value: Any) -> None:
        # Handling concluded: the block is no longer at risk of dying
        # with the thread, and its poison tally (if any) is forgiven.
        if self.supervisor.chain_failures:
            self.supervisor.clear_failures(block)
        thread.delivering_block = None
        # The synchronous raiser is resumed when handling concludes,
        # whatever the fate of the target thread. (A no-op when the
        # block was quarantined, or noticed because the thread died.)
        frames = thread.frames  # thread.current_node, inline
        self.settle.conclude(block, EXECUTED, value, None,
                             frames[-1].node if frames else thread.tid.root)
        if decision is Decision.TERMINATE:
            thread.suspended_by_event = False
            self.invoker.terminate_thread(thread,
                                          reason=f"event {block.event}")
        elif thread.pending_notices:
            self._next_notice(thread)
        else:
            self._end_suspension(thread)

    # ==================================================================
    # executing one thread-based handler (§4.1 contexts)
    # ==================================================================

    def _execute_registration(self, thread: DThread, walk: ChainWalk,
                              registration: HandlerRegistration) -> None:
        frames = thread.frames
        top = frames[-1] if frames else None  # no frame yet: at its root
        walk.node = node = thread.tid.root if top is None else top.node
        block = walk.block
        if registration.context is HandlerContext.CURRENT:
            memory = thread.attributes.per_thread_memory
            try:
                # a miss asks procedure() for the error it raises
                fn = (memory._procedures.get(registration.procedure)
                      or memory.procedure(registration.procedure))
            except HandlerContextError as exc:
                self._decided(thread, Decision.PROPAGATE, None, exc)
                return
            sim = self.sim
            sim.call_at(
                sim.now + SURROGATE_COST, self._run_on_surrogate, thread,
                block, node, registration.deadline,
                None if top is None else top.obj, block, fn, block)
            return
        # ATTACHING / BUDDY: unscheduled invocation of a handler method,
        # supervised (breaker admission, fast-fail, retry with backoff).
        self._execute_invoke(thread, 0)

    def _execute_invoke(self, thread: DThread, attempt: int) -> None:
        walk = thread.walk
        node, block, walk.attempt = walk.node, walk.block, attempt
        registration = walk.chain[walk.at]
        oid = registration.target_oid
        if not self.supervisor.breaker_allows(oid, block.event):
            # Open breaker: skip this registration, fall down the chain.
            self._decided(thread, Decision.PROPAGATE, None, None)
            return
        obj = self.cluster.find_object(oid)
        if obj is None:
            self._decided(thread, Decision.PROPAGATE, None, UnknownObjectError(
                f"handler object {oid} is gone"))
            return
        try:
            obj.handler_fn(registration.fn_name)
        except BaseException as exc:  # noqa: BLE001 - bad registration
            self._decided(thread, Decision.PROPAGATE, None, exc)
            return
        kernel = self.kernels.get(node)
        if (kernel is not None and obj.cap.home != node
                and kernel.membership.is_failed(obj.cap.home)):
            # Suspected buddy node: fail fast instead of waiting out the
            # reliable channel's give-up; feeds the retry/breaker policy.
            self.supervisor.counters["fast_fails"] += 1
            if "supervise" not in self.tracer.muted:
                self.tracer.emit("supervise", "fast-fail", oid=oid,
                                 event=block.event, home=obj.cap.home)
            self._invoke_failed(thread, BuddyUnavailableError(
                f"node {obj.cap.home} is suspected"))
            return
        self.sim.call_after(
            SURROGATE_COST, self._run_on_surrogate, thread, block, node,
            registration.deadline, None, None,
            _invoke_frame, obj.cap, registration.fn_name, block)

    def _invoke_failed(self, thread: DThread, error: BaseException) -> None:
        """A buddy invocation failed with a retryable error."""
        walk = thread.walk
        attempt, oid = walk.attempt, walk.chain[walk.at].target_oid
        self.supervisor.invoke_failed(oid, walk.block.event)
        if attempt < self.handler_retries:
            self.supervisor.counters["handler_retries"] += 1
            if "supervise" not in self.tracer.muted:
                self.tracer.emit("supervise", "handler-retry", oid=oid,
                                 event=walk.block.event, attempt=attempt + 1,
                                 error=repr(error))
            self.sim.call_after(self.handler_backoff * (2 ** attempt),
                                self._execute_invoke, thread, attempt + 1)
            return
        self._decided(thread, Decision.PROPAGATE, None, error)

    def _run_on_surrogate(self, thread: DThread, block: EventBlock,
                          node: int, deadline: float | None, obj: Any,
                          event_block: EventBlock | None, frame_fn,
                          *frame_args: Any) -> None:
        """Run one handler as the next frame of the thread's surrogate.

        One surrogate serves every handler the thread runs while it
        stays on this node (§7's argument for the master handler thread
        — pay no set-up per handler run — applied to §6.1): created when
        the first handler is due, parked between frames, retired when
        its owner leaves the node or ends (``Presence``), replaced only
        if it died (watchdog, crash). A frame is one new generator on
        its kept activation (``InvocationEngine.run_frame``): the
        per-thread-memory handler's own, or ``_invoke_frame``. Its exit
        comes back through ``frame_exit``, bound once per surrogate, to
        the owner's walk. The caller charges ``SURROGATE_COST``; a
        ``deadline`` of None is the cluster's ``handler_deadline``.
        """
        entry = thread.walk.entry
        surrogate = thread.chain_surrogate
        if surrogate is None or not surrogate.alive:
            surrogate = thread.chain_surrogate = (
                self.invoker.create_loop_thread(
                    node, entry, KIND_SURROGATE, attributes=thread.attributes,
                    impersonate=thread.tid))
            surrogate.frame_exit = partial(self._handler_exited, thread)
        deadline = self.handler_deadline if deadline is None else deadline
        if deadline is not None:
            thread.walk.watchdog = self.supervisor.watch(
                surrogate, deadline, block, owner=thread)
        self.invoker.run_frame(surrogate, entry, obj, event_block, frame_fn,
                               *frame_args)

    def _handler_exited(self, thread: DThread, result: Any,
                        error: BaseException | None) -> None:
        """A handler run on ``thread``'s surrogate ended."""
        walk = thread.walk
        watchdog = walk.watchdog
        if watchdog is not None:
            # Outliving its run, it could destroy the surrogate under a
            # later handler of the chain.
            walk.watchdog = None
            self.sim.cancel(watchdog)
        if not thread.alive:
            # The owner died under this frame: nobody is left to park with.
            self.invoker.retire_surrogate(thread)
        block = walk.block
        if error is None and isinstance(result, Decision):
            decision, value = result, None
        else:
            decision, value = self._outcome(thread, block, result, error)
        registration = walk.chain[walk.at]
        if registration.context is not HandlerContext.CURRENT:
            if isinstance(error, RETRYABLE_INVOKE_ERRORS):
                self._invoke_failed(thread, error)
                return
            if error is None:
                self.supervisor.invoke_succeeded(registration.target_oid,
                                                 block.event)
        self._decided(thread, decision, value, error)

    def _outcome(self, thread: DThread, block: EventBlock, result: Any,
                 error: BaseException | None) -> tuple[Decision, Any]:
        """A run's end as ``(decision, value)``: a failure PROPAGATEs,
        counted unless it is a watchdog timeout (counted apart)."""
        if error is not None:
            if not isinstance(error, HandlerTimeout):
                self.handler_failures += 1
                if "event" not in self.tracer.muted:
                    self.tracer.emit("event", "handler-error",
                                     event=block.event, tid=str(thread.tid),
                                     error=repr(error))
            return Decision.PROPAGATE, None
        if isinstance(result, Decision):
            return result, None
        if (isinstance(result, tuple) and len(result) == 2
                and isinstance(result[0], Decision)):
            return result
        return Decision.RESUME, result

    # ==================================================================
    # exceptions as events (§3, §6.1)
    # ==================================================================

    def on_frame_exception(self, thread: DThread, frame: "Activation",
                           exc: BaseException) -> Any:
        """An activation's generator raised; decide events vs propagation
        (a loop thread's frame: ``frame_failed``, whose answer it returns)."""
        invoker = self.invoker
        event = (None if isinstance(exc, (ThreadTerminated, InvocationAborted))
                 else defaults.event_for_exception(exc))
        if event is None or thread.kind != KIND_USER:
            return invoker.frame_failed(thread, exc)
        objects = self.kernels[frame.node].objects
        obj_handler = (objects.object_handler_fn(frame.obj, event)
                       if frame.obj is not None else None)
        chain = thread.attributes.handlers_for(event)
        if obj_handler is None and not chain:
            invoker.frame_failed(thread, exc)
            return
        block = EventBlock(event=event, raiser_tid=None,
                           raiser_node=frame.node, target=thread.tid,
                           user_data=exc, raised_at=self.sim.now)
        block.snapshot = thread.snapshot()
        block.delivered_at = self.sim.now
        thread.suspended_by_event = True
        if "event" not in self.tracer.muted:
            self.tracer.emit("event", "exception", event=event,
                             tid=str(thread.tid), error=repr(exc),
                             node=frame.node)
        if obj_handler is None:
            self._walk(thread, block, chain, self._finish_exception)
            return

        def after_object_handler(result: Any, error: Any) -> None:
            decision, value = self._outcome(thread, block, result, error)
            if decision is Decision.PROPAGATE:
                self._walk(thread, block, chain, self._finish_exception)
            else:
                self._finish_exception(thread, block, decision, value)

        # §6.1: the object's handler gets called first, queued for the
        # loop thread of the faulting frame's node, as any object post.
        objects.run_object_handler(frame.obj, obj_handler, block,
                                   after_object_handler)

    def _finish_exception(self, thread: DThread, block: EventBlock,
                          decision: Decision, value: Any) -> None:
        """The faulted frame's fate (``block.user_data`` is its
        exception)."""
        if not thread.alive or thread.state == TERMINATING:
            return  # terminated under its handlers: no frame is left to fix
        thread.suspended_by_event = False
        if decision is Decision.RESUME:
            # Levin-style repair: the faulted invocation returns the
            # handler's recovery value to its caller.
            self.invoker.frame_returned(thread, value)
        elif decision is Decision.TERMINATE:
            self.invoker.terminate_thread(
                thread, reason=f"unhandled {block.event}")
        else:
            self.invoker.frame_failed(thread, block.user_data)
