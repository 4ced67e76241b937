"""Per-node object manager.

Hosts the objects homed on a node and executes their object-based event
handlers. Section 7 of the paper: "to support posting events to passive
objects, a system thread needs to be employed. To reduce thread-creation
costs, it is preferable to employ a master handler thread on behalf of a
passive object." Both modes are implemented — the configured default is
the master thread; experiment E3 compares them. Both put the post on the
node's one FIFO queue and run each handler as a frame on a loop thread's
kept activation, as a chain's surrogate does
(``InvocationEngine.create_loop_thread``): the master takes the queue's
head whenever a run ends; a per-event thread, made at post time, takes
it once and ends. Every run, however it ends, reports through its
thread's ``frame_exit`` (``ObjectManager._advance``).
"""

from __future__ import annotations

import inspect
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import NoSuchEntryError, ObjectError, UnknownObjectError
from repro.events.block import EventBlock
from repro.events.handlers import ObjectHandlerRegistry
from repro.kernel.config import (
    OBJ_EVENTS_MASTER,
    TRANSPORT_DSM,
    TRANSPORT_RPC,
)
from repro.objects.base import DistObject
from repro.objects.capability import Capability
from repro.threads.thread import (
    BLOCKED,
    DThread,
    KIND_KERNEL,
    RECV_FOLDS,
    RUNNING,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.node import Kernel


class ObjectManager:
    """Registry plus object-event executor for one node."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.node_id = kernel.node_id
        self._objects: dict[int, DistObject] = {}
        #: dynamic object-based handler bindings (kernel state: volatile
        #: on crash, journaled and replayed when durable_delivery is on)
        self.handlers = ObjectHandlerRegistry()
        #: routing table for hot ``(oid, event)`` pairs: the resolved
        #: handler callable (or None for default-action events), so the
        #: per-post registry + getattr walk happens once. Pure lookup
        #: memoisation — invalidated whenever the answer could change
        #: (registration changes, destroy, restore, crash).
        self._handler_cache: dict[tuple[int, str], Any] = {}
        #: posts waiting for a loop thread, each until one takes it: the
        #: master, or in per-event mode the thread made for it
        self._queue: deque[tuple] = deque()
        self._master: DThread | None = None
        #: the master has not taken a post yet (its first take is a fold)
        self._fresh = False
        #: counters reported by experiment E3
        self.events_served = 0
        self.handler_threads_created = 0

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------

    def create(self, cls: type, *args: Any, transport: str | None = None,
               **kwargs: Any) -> Capability:
        """Instantiate ``cls`` on this node and return its capability."""
        if not (isinstance(cls, type) and issubclass(cls, DistObject)):
            raise ObjectError(f"{cls!r} is not a DistObject subclass")
        transport = transport or TRANSPORT_RPC
        obj = cls(*args, **kwargs)
        if obj._cap is not None:
            raise ObjectError(
                f"{cls.__name__}.__init__ must not place the object itself")
        # re-key onto the cluster-local oid space for determinism
        obj._oid = next(self.kernel.cluster.oid_counter)
        obj._place(self.node_id, transport)
        self._objects[obj.oid] = obj
        self.kernel.cluster.object_directory[obj.oid] = obj
        if transport == TRANSPORT_DSM:
            self.kernel.cluster.dsm.register_object(obj)
        if "object" not in self.kernel.tracer.muted:
            self.kernel.tracer.emit("object", "create", oid=obj.oid,
                                    cls=cls.__name__, node=self.node_id,
                                    transport=transport)
        return obj.cap

    def get(self, oid: int) -> DistObject | None:
        return self._objects.get(oid)

    def require(self, oid: int) -> DistObject:
        obj = self._objects.get(oid)
        if obj is None:
            raise UnknownObjectError(
                f"node {self.node_id} hosts no object {oid}")
        return obj

    def _invalidate_routes(self, oid: int) -> None:
        """Drop every routing-table entry for ``oid``."""
        cache = self._handler_cache
        for key in [k for k in cache if k[0] == oid]:
            del cache[key]

    def adopt(self, obj: DistObject) -> None:
        """Reinstall a restored object (recovery replay of a checkpoint
        snapshot after simulated media loss)."""
        # the restored instance is a different object; cached bound
        # methods of the old one must not serve its posts
        self._invalidate_routes(obj.oid)
        self._objects[obj.oid] = obj
        self.kernel.cluster.object_directory[obj.oid] = obj
        if "object" not in self.kernel.tracer.muted:
            self.kernel.tracer.emit("object", "restore", oid=obj.oid,
                                    node=self.node_id)

    def destroy(self, oid: int) -> bool:
        """Remove an object from the node (the DELETE default action)."""
        obj = self._objects.pop(oid, None)
        if obj is None:
            return False
        self.kernel.cluster.object_directory.pop(oid, None)
        self.handlers.drop_object(oid)
        self._invalidate_routes(oid)
        if "object" not in self.kernel.tracer.muted:
            self.kernel.tracer.emit("object", "destroy", oid=oid,
                                    node=self.node_id)
        return True

    def oids(self) -> list[int]:
        return sorted(self._objects)

    # ------------------------------------------------------------------
    # dynamic object-based handler registry (§5.1, persistent via store)
    # ------------------------------------------------------------------

    def register_object_handler(self, oid: int, event: str,
                                fn_name: str) -> None:
        """Bind ``event`` on the hosted object ``oid`` to its generator
        method ``fn_name``; journaled when durable_delivery is on."""
        obj = self.require(oid)
        fn = getattr(obj, fn_name, None)
        if fn is None or not inspect.isgeneratorfunction(fn):
            raise NoSuchEntryError(
                f"{type(obj).__name__} (oid {oid}) has no generator "
                f"method {fn_name!r} to register for {event!r}")
        self.kernel.cluster.names.require_event(event)
        self.handlers.register(oid, event, fn_name)
        self._handler_cache.pop((oid, event), None)
        if self.kernel.config.durable_delivery:
            self.kernel.store.journal_registration(oid, event, fn_name)
        if "event" not in self.kernel.tracer.muted:
            self.kernel.tracer.emit("event", "register-object-handler",
                                    oid=oid, event=event, node=self.node_id)

    def unregister_object_handler(self, oid: int, event: str) -> bool:
        removed = self.handlers.unregister(oid, event)
        self._handler_cache.pop((oid, event), None)
        if removed and self.kernel.config.durable_delivery:
            self.kernel.store.journal_unregistration(oid, event)
        return removed

    def object_handler_fn(self, obj: DistObject, event: str):
        """The object's handler for ``event``: a dynamic registration
        wins over the class-declared ``@on_event`` one.

        Memoised per ``(oid, event)`` — the hot delivery path resolves
        the same pairs over and over; see ``_handler_cache``."""
        key = (obj.oid, event)
        cache = self._handler_cache
        if key in cache:
            return cache[key]
        name = self.handlers.lookup(obj.oid, event)
        fn = (getattr(obj, name) if name is not None
              else obj.object_handler_fn(event))
        cache[key] = fn
        return fn

    # ------------------------------------------------------------------
    # crash (volatile-state discard; objects themselves persist)
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """Discard kernel-side volatile state at a node crash.

        The hosted objects persist (§2), but the event queue and the
        dynamic handler registry are kernel memory. Durable posts lost
        from the queue here are exactly what the origin's outbox
        redelivers on recovery, every other lost post is noticed to its
        raiser; the registry is replayed from the journal when
        durable_delivery is on.
        """
        # The loop threads died first (Kernel.crash), a per-event one
        # not yet started included, so a post one was made, woken or
        # hopped for is still here: lost to the crash, and noticed.
        queue = self._queue
        while queue:
            block = queue.popleft()[2]
            if "event" not in self.kernel.tracer.muted:
                self.kernel.tracer.emit("event", "queue-lost",
                                        event=block.event, node=self.node_id)
            self.kernel.events.post.lost_in_crash(block)
        self.handlers.clear()
        self._handler_cache.clear()

    # ------------------------------------------------------------------
    # object-based event execution (§4.3, §7)
    # ------------------------------------------------------------------

    def run_object_handler(self, obj: DistObject, fn: Callable,
                           block: EventBlock,
                           on_exit: Callable[[Any, Any], None]) -> None:
        """Execute an object's handler for an event posted to it.

        ``fn`` is the bound handler method (a generator function taking
        ``(ctx, event_block)``). ``on_exit(value, error)`` is called
        exactly once, inside the run's last step, so the post concludes
        before the next handler starts: with the return value, the
        exception raised, ``GeneratorExit`` (the node crashed),
        ``NodeCrashedError`` (a remote frame's node crashed) or the
        watchdog's :class:`~repro.errors.HandlerTimeout`.

        A home-node post calls this inside its own raise. Nothing runs
        here: the post joins the master's queue, and a parked master is
        woken by one scheduled step (a busy one takes it, in FIFO
        order, when the run before it ends). In per-event mode the post
        gets a thread of its own, which pays the creation the master
        mode avoids before it takes the queue's head.
        """
        self._queue.append((obj, fn, block, on_exit))
        config = self.kernel.config
        if config.object_event_mode != OBJ_EVENTS_MASTER:
            self._start_loop("obj-event-oneshot").schedule_step_after(
                config.thread_create_cost)
            return
        master = self._master
        if master is None or not master.alive:
            self._new_master()
        elif master.state == BLOCKED and not master.frames:
            # Parked: between runs, with no hop. DThread.resume_with and
            # schedule_step, inline: a parked master is alive, has no
            # wait epoch to match and is no event's target.
            master._wait = None
            master.state = RUNNING
            sim = self.kernel.sim
            sim.call_at(sim.now, master._step, None, None,
                        master._step_epoch)

    def _new_master(self) -> None:
        # Created at first use: its creation cost is paid once (§7).
        self._fresh = True
        self._master = self._start_loop("obj-event-master")
        self._master.schedule_step()

    def _start_loop(self, name: str) -> DThread:
        """A loop thread serving this node's queue; its caller steps it."""
        self.handler_threads_created += 1
        thread = self.kernel.invoker.create_loop_thread(
            self.node_id, name, KIND_KERNEL)
        thread.frame_exit = partial(self._advance, thread, [])
        return thread

    def _advance(self, thread: DThread, run: list, value: Any,
                 error: BaseException | None) -> bool:
        """A loop thread's ``frame_exit``, the one way its runs end: end
        the post ``run`` holds (``[on_exit, watchdog]``, one list for the
        thread's life) when its frame left or the thread died under it,
        then start the queue's head as the next frame. An empty ``run``
        is a start (a step that creates, wakes or hops to the thread).
        True: the next frame is pushed (the driver steps it) or a hop
        to it scheduled."""
        kernel = self.kernel
        queue = self._queue
        master = thread is self._master
        if run:
            on_exit, watchdog = run
            run.clear()
            if watchdog is not None:
                kernel.sim.cancel(watchdog)
            if not thread.alive:
                if kernel.crashed:
                    error = GeneratorExit()  # its node crashed under it
                elif master and queue:
                    # Its watchdog, or the crash of the node its remote
                    # frame was on: the posts behind the run get a new
                    # master before the run reports.
                    self._new_master()
            on_exit(value, error)
            if not thread.alive:
                return False
            if not master:  # a per-event thread ends with its one post
                kernel.invoker.thread_result_with_no_frames(
                    thread, None, None)
                return False
            if not queue:
                return False  # InvocationEngine.frame_returned parks it
            # The recv-fold rule of DThread._step: with nothing else due
            # at this instant the hop would be the next callback anyway.
            # It spends the budget the runs' computes spend too: one per
            # scheduler step.
            if not (thread.folds < RECV_FOLDS
                    and kernel.sim.nothing_due_now()):
                thread.schedule_step()
                return True
            thread.folds += 1
        elif master and self._fresh:
            self._fresh = False
            # the master's first step takes its post as a fold
            if not kernel.sim.nothing_due_now():
                thread.schedule_step()
                return True
            thread.folds += 1
        obj, fn, block, on_exit = queue.popleft()
        act = thread.kept
        act.obj, act.event_block, act.steps = obj, block, 0
        thread.frames.append(act)  # push_frame: the kept one has its Ctx
        block.delivered_at = kernel.sim.now
        self.events_served += 1
        if block.durable_id is not None:
            # Atomic with the handler's first segment (the driver steps
            # this frame next): a crash earlier redelivers, a crash
            # later suppresses — exactly-once either way.
            kernel.store.mark_applied(block.durable_id)
        if "event" not in kernel.tracer.muted:
            kernel.tracer.emit("event", "object-handler", oid=obj.oid,
                               event=block.event, node=self.node_id)
        run.extend((on_exit, None))
        deadline = kernel.config.handler_deadline
        if deadline is not None:
            run[1] = kernel.events.supervisor.watch(thread, deadline, block,
                                                    obj=obj)
        try:
            act.gen = fn(act.ctx, block)
        except BaseException as exc:  # noqa: BLE001 - as its first step would
            return kernel.invoker.frame_failed(thread, exc)
        return True
