"""The invocation engine: how logical threads cross object boundaries.

In the passive-object paradigm "when an object invokes another, the same
logical thread is used to execute the code in the called object" (§2).
Under the **RPC transport** this engine ships the thread — attributes and
all — to the callee's home node, maintaining the per-node TCB forwarding
chain the path locator walks; under the **DSM transport** the entry runs
on the caller's node and the object's pages are faulted in on access.

The four messages that move a thread (``invoke.request``,
``invoke.reply``, ``thread.complete``, ``thread.unwind``) carry names
and plain fields only: the ``tid``, resolved through
``cluster.live_threads`` on receipt, the thread's ``hop`` number, an
``oid`` the callee's home node looks up.  What no name can stand for —
the call's arguments, a return value or exception — waits on the
thread object (``DThread.carried``), because the continuation it feeds
is a Python generator that never leaves the process.

The engine also owns thread lifecycle bookkeeping that is inseparable
from migration: spawning (asynchronous invocations, §5.3/§7.1), normal
completion, exception propagation across frames, invocation aborts, and
terminate-time unwinding with per-object ABORT notification (§6.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import (
    InvocationAborted,
    ObjectError,
    ThreadTerminated,
    UndeliverableError,
    UnknownObjectError,
)
from repro.kernel.config import TRANSPORT_BACKEND_SIM, TRANSPORT_DSM
from repro.net.message import Message
from repro.objects.capability import Capability
from repro.threads import syscalls as sc
from repro.threads.attributes import ThreadAttributes
from repro.threads.context import Ctx
from repro.threads.thread import (
    Activation,
    BLOCKED,
    DThread,
    KIND_USER,
    RUNNING,
    TERMINATED,
    TERMINATING,
)
from repro.transport.codec import CodecError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.boot import Cluster

MSG_INVOKE = "invoke.request"
MSG_REPLY = "invoke.reply"
MSG_UNWIND = "thread.unwind"
MSG_COMPLETE = "thread.complete"

SVC_CREATE_OBJECT = "obj.create"


class InvocationEngine:
    """Cluster-wide engine driving invocations and thread lifecycle."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        #: what each thread-moving message does once :meth:`_land` has
        #: resolved its thread: ``(thread, carried, body, node)``
        self._landed = {MSG_INVOKE: self._invoke_landed,
                        MSG_REPLY: self._reply_landed,
                        MSG_UNWIND: self._unwind_landed,
                        MSG_COMPLETE: self._complete_landed}
        for kernel in cluster.kernels.values():
            for mtype in self._landed:
                kernel.register_message_handler(mtype, self._land)
            kernel.rpc.serve(SVC_CREATE_OBJECT, self._svc_create_object)

    # ------------------------------------------------------------------
    # thread creation
    # ------------------------------------------------------------------

    def spawn_thread(self, root_node: int, cap: Capability, entry: str,
                     args: tuple = (),
                     attributes: ThreadAttributes | None = None,
                     kind: str = KIND_USER,
                     charge_create: bool = True) -> DThread:
        """Create a thread rooted at ``root_node`` invoking ``cap.entry``.

        The root TCB is installed immediately (the thread is findable from
        its root from birth, §7.1); the initial invocation begins after
        the configured thread-creation cost.
        """
        cluster = self.cluster
        kernel = cluster.kernels[root_node]
        tid = kernel.id_allocator.new_tid()
        thread = DThread(cluster, tid,
                         attributes or ThreadAttributes(), kind=kind)
        cluster.live_threads[tid] = thread
        kernel.thread_table.thread_arrived(tid)
        cluster.events.presence.thread_entered_node(thread, root_node)
        if "thread" not in cluster.tracer.muted:
            cluster.tracer.emit("thread", "create", tid=str(tid),
                                node=root_node, kind=kind, entry=entry)
        delay = cluster.config.thread_create_cost if charge_create else 0.0
        cluster.sim.call_after(delay, self._first_invoke, thread, cap,
                               entry, args)
        return thread

    def _first_invoke(self, thread: DThread, cap: Capability, entry: str,
                      args: tuple) -> None:
        if not thread.alive:
            return
        thread.state = RUNNING
        self.invoke(thread, sc.Invoke(cap=cap, entry=entry, args=args))

    def create_loop_thread(self, node: int, name: str, kind: str,
                           attributes: ThreadAttributes | None = None,
                           impersonate: Any = None) -> DThread:
        """Create a thread on ``node`` that runs bare generator frames.

        Three kinds share this: the master handler thread of §7 and the
        per-event thread (``objects.manager``), and surrogates, which
        "take on the attributes of the suspended thread" (§6.1) via
        ``attributes``. Findable cluster-wide from here on, the thread
        has no frame, only ``thread.kept``: the activation (and ``Ctx``)
        each frame runs on; its owner sets ``frame_exit`` (:meth:`run_frame`).
        """
        cluster = self.cluster
        kernel = cluster.kernels[node]
        tid = kernel.id_allocator.new_tid()
        thread = DThread(cluster, tid, attributes or ThreadAttributes(),
                         kind=kind)
        thread.impersonates = impersonate
        thread.kept = act = Activation(None, name, None, node)
        act.ctx = Ctx(thread, act)
        cluster.live_threads[tid] = thread
        kernel.thread_table.thread_arrived(tid)
        cluster.events.presence.thread_entered_node(thread, node)
        if "thread" not in cluster.tracer.muted:
            cluster.tracer.emit("thread", "create", tid=str(tid), node=node,
                                kind=kind, entry=name)
        return thread

    def run_frame(self, thread: DThread, entry: str, obj: Any,
                  event_block: Any, gen_fn: Any, *gen_args: Any) -> None:
        """Run ``gen_fn(ctx, *gen_args)`` as the only frame of a loop
        thread, on its kept activation, starting inside the running
        callback.

        When the frame leaves — or the thread dies under it —
        ``thread.frame_exit(value, error)`` gets the outcome. It returns
        True when it arranged the next frame: pushed (the driver steps it
        at once) or a scheduled step, which finding no frame asks
        ``frame_exit(None, None)`` for one. Otherwise a surviving thread
        is parked (``blocked`` on ``"parked"``, no frame, the activation
        holding no generator, object or block).
        """
        act = thread.kept
        act.entry, act.obj, act.event_block, act.steps = (
            entry, obj, event_block, 0)
        thread.frames.append(act)  # it keeps its Ctx
        try:
            act.gen = gen_fn(act.ctx, *gen_args)
        except BaseException as exc:  # noqa: BLE001 - as its first step would
            self.frame_failed(thread, exc)
            return
        thread.state = RUNNING  # a parked thread stops being parked
        thread._wait = None
        thread._step(None, None)

    def retire_surrogate(self, owner: DThread) -> None:
        """End the handler surrogate parked with ``owner``. One with a
        handler frame still running stays: its ``frame_exit`` retires it."""
        surrogate = owner.chain_surrogate
        if surrogate is not None and not surrogate.frames:
            owner.chain_surrogate = None
            if surrogate.alive:
                self._finalize(surrogate, None, None)

    # ------------------------------------------------------------------
    # synchronous invocation
    # ------------------------------------------------------------------

    def invoke(self, thread: DThread, syscall: sc.Invoke) -> None:
        cap = syscall.cap
        here = thread.current_node
        obj = self.cluster.find_object(cap.oid)
        if obj is None:
            thread.schedule_step(None, UnknownObjectError(
                f"no object with oid {cap.oid} (capability {cap})"))
            return
        if cap.transport == TRANSPORT_DSM:
            # The thread stays put; the object's state pages will be
            # faulted to this node on access.
            self._enter_local(thread, obj, syscall, node=here)
        elif cap.home == here:
            self._enter_local(thread, obj, syscall, node=here)
        else:
            self._migrate_out(thread, obj, syscall, src=here, dst=cap.home)

    def _make_activation(self, thread: DThread, obj: Any,
                         syscall: sc.Invoke, node: int, is_remote: bool,
                         caller_node: int | None) -> Activation | None:
        """Push a frame and instantiate its generator; None on failure."""
        act = Activation(obj, syscall.entry, None, node, is_remote,
                         caller_node, syscall.handler_block)
        thread.push_frame(act)
        try:
            if obj is None:  # destroyed while the request was in flight
                raise UnknownObjectError(
                    f"node {node} hosts no object {syscall.cap.oid}")
            if syscall.as_handler:
                fn = obj.handler_fn(syscall.entry)
            else:
                fn = obj.entry_fn(syscall.entry)
            act.gen = fn(act.ctx, *syscall.args)
        except BaseException as exc:  # noqa: BLE001 - bad entry/arity
            thread.pop_frame()
            self._resume_or_fail_frame(thread, None, exc, is_remote,
                                       node, caller_node)
            return None
        if "invoke" not in self.cluster.tracer.muted:
            self.cluster.tracer.emit(
                "invoke", "remote" if is_remote else "local",
                tid=str(thread.tid), oid=obj.oid, entry=syscall.entry,
                node=node)
        return act

    def _enter_local(self, thread: DThread, obj: Any, syscall: sc.Invoke,
                     node: int) -> None:
        act = self._make_activation(thread, obj, syscall, node,
                                    is_remote=False, caller_node=None)
        if act is not None:
            thread.schedule_step(None, None)

    def _migrate_out(self, thread: DThread, obj: Any, syscall: sc.Invoke,
                     src: int, dst: int) -> None:
        cluster = self.cluster
        cluster.events.presence.thread_leaving_node(thread, src)
        cluster.kernels[src].thread_table.thread_departed(thread.tid, dst)
        thread.state = RUNNING  # continuation arrives with the message
        if "thread" not in cluster.tracer.muted:
            cluster.tracer.emit("thread", "migrate", tid=str(thread.tid),
                                src=src, dst=dst, oid=obj.oid,
                                entry=syscall.entry)
        self._ship(thread, src, dst, MSG_INVOKE,
                   256 + thread.attributes.nominal_size, syscall,
                   oid=obj.oid, entry=syscall.entry, caller_node=src)

    def _ship(self, thread: DThread, src: int, dst: int, mtype: str,
              size: int, carried: Any, **fields: Any) -> None:
        """Send a message that moves ``thread`` (reliably when enabled).

        The message names the thread and numbers the hop; ``carried``
        waits on the thread object until it lands.  If the reliable
        channel gives up — the peer crashed and never recovered within
        the retransmission budget — the thread is gone for good; destroy
        it so waiters get a bounded-time failure instead of a hang.
        """
        thread.hop += 1
        thread.carried = carried
        self.cluster.kernels[src].transmit(
            Message(src, dst, mtype,
                    {"tid": thread.tid, "hop": thread.hop, **fields}, size),
            on_give_up=lambda m: self.destroy_thread_abrupt(
                thread, UndeliverableError(
                    f"{mtype} for {thread.tid} undeliverable to node {dst}")))

    def _land(self, message: Message) -> None:
        """A thread-moving message arrived: resolve the thread it names
        and hand over what it carried — unless the thread finished
        meanwhile or the message is not the one in flight (a network
        duplicate, or one an unwind overtook)."""
        body = message.payload
        thread = self.cluster.live_threads.get(body["tid"])
        if thread is None or thread.hop != body["hop"]:
            return
        thread.hop += 1
        carried, thread.carried = thread.carried, None
        self._landed[message.mtype](thread, carried, body, int(message.dst))

    def _invoke_landed(self, thread: DThread, syscall: sc.Invoke,
                       body: dict, node: int) -> None:
        kernel = self.cluster.kernels[node]
        kernel.thread_table.thread_arrived(thread.tid)
        self.cluster.events.presence.thread_entered_node(thread, node)
        act = self._make_activation(thread, kernel.objects.get(body["oid"]),
                                    syscall, node, is_remote=True,
                                    caller_node=body["caller_node"])
        if act is not None:
            thread.schedule_step(None, None)

    # ------------------------------------------------------------------
    # returns and exception propagation
    # ------------------------------------------------------------------

    def frame_returned(self, thread: DThread, value: Any,
                       error: BaseException | None = None) -> Any:
        """The innermost frame left with ``value`` (or ``error``); True
        when a loop thread's ``frame_exit`` arranged its next frame."""
        frame = thread.frames.pop()  # DThread.pop_frame, inline
        if frame is not thread.kept:
            frame.ctx = None  # the frame dies by reference count
        if "invoke" not in self.cluster.tracer.muted:
            self.cluster.tracer.emit(
                "invoke", "return" if error is None else "raise",
                tid=str(thread.tid), entry=frame.entry, node=frame.node,
                oid=frame.obj.oid if frame.obj is not None else -1)
        if not thread.frames:
            if frame is thread.kept:
                frame.gen = frame.obj = frame.event_block = None
                if thread.frame_exit(value, error):
                    return True
                if (thread.alive and not thread.frames
                        and thread.state == RUNNING):  # not parked already
                    thread.state = BLOCKED  # DThread.block("parked"), inline
                    thread._wait_epoch += 1
                    thread._wait = {"kind": "parked", "cancel": None}
                return False
            self._complete_thread(thread, frame.node, value, error)
            return None
        self._resume_or_fail_frame(thread, value, error, frame.is_remote,
                                   frame.node, frame.caller_node)

    def frame_failed(self, thread: DThread, error: BaseException) -> Any:
        return self.frame_returned(thread, None, error)

    def _resume_or_fail_frame(self, thread: DThread, value: Any,
                              error: BaseException | None, was_remote: bool,
                              from_node: int,
                              caller_node: int | None) -> None:
        if not was_remote or caller_node is None or caller_node == from_node:
            thread.schedule_step(value, error)
            return
        cluster = self.cluster
        cluster.events.presence.thread_leaving_node(thread, from_node)
        remaining = cluster.kernels[from_node].thread_table.frame_popped(
            thread.tid)
        if remaining is None:
            cluster.events.presence.thread_left_for_good(thread, from_node)
        self._ship(thread, from_node, caller_node, MSG_REPLY, 128,
                   (value, error))

    def _reply_landed(self, thread: DThread, outcome: tuple, body: dict,
                      node: int) -> None:
        self.cluster.kernels[node].thread_table.thread_returned_here(
            thread.tid)
        self.cluster.events.presence.thread_entered_node(thread, node)
        thread.schedule_step(*outcome)

    def thread_result_with_no_frames(self, thread: DThread, value: Any,
                                     error: BaseException | None) -> None:
        """Driver callback: a continuation arrived but no activation exists
        (the thread's first invocation failed to start)."""
        self._complete_thread(thread, thread.current_node, value, error)

    def _complete_thread(self, thread: DThread, last_node: int, value: Any,
                         error: BaseException | None) -> None:
        """The outermost frame finished; clean up back at the root."""
        cluster = self.cluster
        cluster.events.presence.thread_leaving_node(thread, last_node)
        root = thread.tid.root
        if last_node != root:
            kernel = cluster.kernels[last_node]
            if thread.tid in kernel.thread_table:
                kernel.thread_table.frame_popped(thread.tid)
            cluster.events.presence.thread_left_for_good(thread, last_node)
            self._ship(thread, last_node, root, MSG_COMPLETE, 128,
                       (value, error))
            return
        self._finalize(thread, value, error)

    def _complete_landed(self, thread: DThread, outcome: tuple, body: dict,
                         node: int) -> None:
        self._finalize(thread, *outcome)

    def _finalize(self, thread: DThread, value: Any,
                  error: BaseException | None,
                  state: str | None = None) -> None:
        cluster = self.cluster
        root = thread.tid.root
        cluster.kernels[root].thread_table.purge(thread.tid)
        cluster.events.presence.thread_gone(thread)
        cluster.live_threads.pop(thread.tid, None)
        gid = thread.attributes.group
        if gid is not None:
            cluster.groups.remove(gid, thread.tid)
        if state is None:
            state = "done" if error is None else "failed"
        if "thread" not in cluster.tracer.muted:
            cluster.tracer.emit("thread", "exit", tid=str(thread.tid),
                                state=state)
        thread.finish(value, error, state=state)
        kept, thread.kept = thread.kept, None
        if kept is not None:
            on_exit = thread.frame_exit
            kept.ctx = thread.frame_exit = None  # both name the thread back
            if kept.gen is not None:  # died with a frame running: tell it
                on_exit(None, error)

    # ------------------------------------------------------------------
    # asynchronous invocation (spawn)
    # ------------------------------------------------------------------

    def invoke_async(self, thread: DThread, syscall: sc.InvokeAsync) -> None:
        here = thread.current_node
        attributes = thread.attributes.inherit()
        gid = attributes.group
        child = self.spawn_thread(here, syscall.cap, syscall.entry,
                                  syscall.args, attributes=attributes)
        if gid is not None:
            self.cluster.groups.add(gid, child.tid)
        result = child.completion if syscall.claimable else None
        if not syscall.claimable:
            # Fire-and-forget: nobody will observe a failure, so swallow
            # it (the system "may not keep track of asynchronous
            # invocations, the results of which are not claimed", §7.1).
            child.completion.add_done_callback(lambda fut: None)
        handle = sc.AsyncHandle(tid=child.tid, result=result)
        # The parent pays the creation cost before continuing.
        self.cluster.sim.call_after(self.cluster.config.thread_create_cost,
                                    thread.resume_with, handle, None,
                                    thread.block("spawn"))

    # ------------------------------------------------------------------
    # object creation from running threads
    # ------------------------------------------------------------------

    def create_object_from_thread(self, thread: DThread,
                                  syscall: sc.CreateObject) -> None:
        cluster = self.cluster
        here = thread.current_node
        target = here if syscall.node is None else syscall.node
        if target not in cluster.kernels:
            thread.schedule_step(None, ObjectError(
                f"cannot create object on unknown node {target}"))
            return
        if target == here:
            try:
                cap = cluster.kernels[target].objects.create(
                    syscall.cls, *syscall.args,
                    transport=syscall.transport, **syscall.kwargs)
            except BaseException as exc:  # noqa: BLE001
                thread.schedule_step(None, exc)
                return
            thread.schedule_step(cap, None)
            return
        if cluster.config.transport != TRANSPORT_BACKEND_SIM:
            # The request names a class, and a class is not a codec
            # value (DESIGN.md §6): tell the creator here rather than
            # let the wire raise it out of run().
            thread.schedule_step(None, CodecError(
                f"rpc.request: no wire shape for the class "
                f"{syscall.cls.__qualname__}; creating an object on "
                f"another node needs transport='sim'"))
            return
        epoch = thread.block("create")
        fut = cluster.kernels[here].rpc.request(
            target, SVC_CREATE_OBJECT,
            {"cls": syscall.cls, "args": syscall.args,
             "kwargs": syscall.kwargs, "transport": syscall.transport})

        def done(f):
            if f.failed or f.cancelled:
                try:
                    f.result()
                except BaseException as exc:  # noqa: BLE001
                    thread.resume_with(None, exc, epoch)
                return
            thread.resume_with(f.result(), None, epoch)

        fut.add_done_callback(done)

    def _svc_create_object(self, payload: dict, message: Message) -> Any:
        kernel = self.cluster.kernels[int(message.dst)]
        return kernel.objects.create(payload["cls"], *payload["args"],
                                     transport=payload["transport"],
                                     **payload["kwargs"])

    # ------------------------------------------------------------------
    # termination and aborts
    # ------------------------------------------------------------------

    def terminate_thread(self, thread: DThread, reason: str = "") -> None:
        """Terminate a thread: unwind all activations, innermost first.

        Each frame's ``finally`` blocks run on the node the frame occupies
        (cross-node unwinding is charged as messages); each distinct
        object the thread unwinds out of is posted an ABORT event so it
        can clean up (§6.3).
        """
        if not thread.alive or thread.state == TERMINATING:
            return
        thread.state = TERMINATING
        thread.cancel_wait()
        thread.cancel_pending_steps()
        if "thread" not in self.cluster.tracer.muted:
            self.cluster.tracer.emit(
                "thread", "terminate", tid=str(thread.tid), reason=reason,
                node=thread.current_node)
        self._unwind(thread, 0, reason, notified=set())

    def _unwind(self, thread: DThread, depth: int, reason: str,
                notified: set[int]) -> None:
        """Unwind innermost first until ``depth`` frames are left.

        Depth 0 is a termination: nothing is left and the thread is
        finalized.  Any other depth is an aborted invocation: the frame
        now on top observes :class:`~repro.errors.InvocationAborted`.
        """
        cluster = self.cluster
        if len(thread.frames) <= depth:
            if depth:
                thread.resume_with(None, InvocationAborted(
                    reason or "invocation aborted"))
            else:
                self._finalize(
                    thread, None,
                    ThreadTerminated(reason or f"{thread.tid} killed"),
                    state=TERMINATED)
            return
        frame = thread.frames[-1]
        crash = thread.unwind_close(frame)
        if crash is not None:
            if "thread" not in cluster.tracer.muted:
                cluster.tracer.emit("thread", "unwind-crash",
                                    tid=str(thread.tid), entry=frame.entry,
                                    error=repr(crash))
        thread.pop_frame()
        obj = frame.obj
        if (obj is not None and cluster.config.notify_abort_on_unwind
                and obj.oid not in notified):
            notified.add(obj.oid)
            cluster.events.post.post_abort_notification(obj, thread,
                                                        frame.node)
        if frame.is_remote and frame.caller_node is not None \
                and frame.caller_node != frame.node:
            cluster.events.presence.thread_leaving_node(thread, frame.node)
            kernel = cluster.kernels[frame.node]
            if thread.tid in kernel.thread_table:
                if kernel.thread_table.frame_popped(thread.tid) is None:
                    cluster.events.presence.thread_left_for_good(
                        thread, frame.node)
            self._ship(thread, frame.node, frame.caller_node, MSG_UNWIND,
                       96, notified, reason=reason, depth=depth)
            return
        cluster.sim.call_soon(self._unwind, thread, depth, reason, notified)

    def _unwind_landed(self, thread: DThread, notified: set[int],
                       body: dict, node: int) -> None:
        kernel = self.cluster.kernels[node]
        if thread.tid in kernel.thread_table:
            kernel.thread_table.thread_returned_here(thread.tid)
        self._unwind(thread, body["depth"], body["reason"], notified)

    def abort_invocation(self, thread: DThread, oid: int,
                         reason: str = "") -> bool:
        """Abort the invocation of object ``oid`` in progress for a thread.

        Frames above and including the innermost frame executing in
        ``oid`` are unwound; the frame below observes
        :class:`~repro.errors.InvocationAborted` (which it may catch).
        Returns False if the thread has no frame in that object, or is
        being terminated and so unwinds out of it anyway.

        This is the action §6.3 assigns to the ABORT handler: "the
        handler must abort the invocation in progress for the thread
        named in the event block".
        """
        depth = None
        for i in range(len(thread.frames) - 1, -1, -1):
            obj = thread.frames[i].obj
            if obj is not None and obj.oid == oid:
                depth = i
                break
        if depth is None or not thread.alive or thread.state == TERMINATING:
            return False
        if depth == 0:
            # Aborting the top-level invocation terminates the thread.
            self.terminate_thread(thread, reason or f"abort oid {oid}")
            return True
        thread.cancel_wait()
        thread.cancel_pending_steps()
        self._unwind(thread, depth, reason, notified=set())
        return True

    def destroy_thread_abrupt(self, thread: DThread,
                              error: BaseException) -> None:
        """Kill a thread without unwinding (its node crashed).

        Unlike :meth:`terminate_thread` there is no orderly frame-by-frame
        unwind and no ABORT notifications: the machine holding the stack
        is gone. Generators are closed locally (a simulation artefact —
        Python would otherwise warn about un-collected frames), its TCB
        on every node holding a frame is purged, and the completion
        future fails with ``error`` so waiters learn the fate in bounded
        time. Raisers with events queued on the thread get dead-target
        notices via the usual ``thread_gone`` path.
        """
        if not thread.alive:
            return
        thread.cancel_wait()
        thread.cancel_pending_steps()
        thread.state = TERMINATING
        kernels = self.cluster.kernels
        for frame in reversed(thread.frames):
            gen = frame.gen
            if gen is not None:
                try:
                    gen.close()
                except BaseException:  # noqa: BLE001 - cleanup crash moot
                    pass
            frame.ctx = None  # as pop_frame does
            # TCBs exist only where the thread has frames (and at its
            # root, which _finalize purges).
            kernels[frame.node].thread_table.purge(thread.tid)
        thread.frames.clear()
        if "thread" not in self.cluster.tracer.muted:
            self.cluster.tracer.emit("thread", "destroy", tid=str(thread.tid),
                                     error=repr(error))
        self._finalize(thread, None, error, state=TERMINATED)
