"""Per-node object manager.

Hosts the objects homed on a node and executes their object-based event
handlers. Section 7 of the paper: "to support posting events to passive
objects, a system thread needs to be employed. To reduce thread-creation
costs, it is preferable to employ a master handler thread on behalf of a
passive object." Both modes are implemented — the configured default is
the master thread; experiment E3 compares them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import inspect

from repro.errors import (
    HandlerTimeout,
    NoSuchEntryError,
    ObjectError,
    UnknownObjectError,
)
from repro.events.block import EventBlock
from repro.events.handlers import ObjectHandlerRegistry
from repro.kernel.config import (
    OBJ_EVENTS_MASTER,
    TRANSPORT_DSM,
    TRANSPORT_RPC,
)
from repro.objects.base import DistObject
from repro.objects.capability import Capability
from repro.sim.primitives import Channel
from repro.threads.thread import DThread, KIND_KERNEL

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
        self._queue: Channel[Any] = Channel(kernel.sim)
        self._master: DThread | None = None
        #: handler runs in progress right now (0 when idle) — lets the
        #: chaos harness spot a wedged master / one-shot thread
        self.serving = 0
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
        if obj._home is not None:
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
        # reset (not drain): nothing that waited on the queue before the
        # crash may be offered the first post enqueued after recovery
        dropped = self._queue.reset()
        for work in dropped:
            block = work[2]
            if "event" not in self.kernel.tracer.muted:
                self.kernel.tracer.emit("event", "queue-lost",
                                        event=block.event, node=self.node_id)
            self.kernel.events.post.lost_in_crash(block)
        self._master = None
        self.serving = 0
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
        exception raised, ``GeneratorExit`` (the node crashed) or the
        watchdog's :class:`~repro.errors.HandlerTimeout`.

        A home-node post calls this inside its own raise. Nothing runs
        here: the post joins the master's queue, and a parked master is
        woken by one scheduled step (a busy one takes it, in FIFO
        order, in the step that finishes the run before it).
        """
        mode = self.kernel.config.object_event_mode
        if mode == OBJ_EVENTS_MASTER:
            self._queue.put((obj, fn, block, on_exit))
            self._ensure_master()
        else:
            self._spawn_per_event_thread(obj, fn, block, on_exit)

    def _ensure_master(self) -> None:
        if self._master is not None and self._master.alive:
            return
        # The master is created once (its creation cost is paid once, at
        # first use — the whole point of the optimisation).
        self.handler_threads_created += 1
        self._master = self.kernel.invoker.adopt_loop_thread(
            self.node_id, self._master_loop, "obj-event-master", KIND_KERNEL)

    def _master_loop(self, ctx):
        """Body of the per-node master handler thread."""
        while True:
            work = yield ctx.recv(self._queue)
            yield from self._serve(ctx, work)

    def _spawn_per_event_thread(self, obj: DistObject, fn: Callable,
                                block: EventBlock,
                                on_exit: Callable[[Any, Any], None]) -> None:
        self.handler_threads_created += 1

        def one_shot(ctx):
            # Creation cost is charged by spawn machinery below.
            yield from self._serve(ctx, (obj, fn, block, on_exit))

        def create() -> None:
            self.kernel.invoker.adopt_loop_thread(
                self.node_id, one_shot, "obj-event-oneshot", KIND_KERNEL)

        # Charge the thread-creation cost the master mode avoids.
        self.kernel.sim.call_after(self.kernel.config.thread_create_cost,
                                   create)

    def _serve(self, ctx, work):
        """Run one handler within the object's context (shared by modes)."""
        obj, fn, block, on_exit = work
        activation = ctx._activation
        activation.obj = obj
        previous_block, activation.event_block = activation.event_block, block
        block.delivered_at = ctx.now
        self.events_served += 1
        if block.durable_id is not None:
            # Atomic with the handler's first segment (no yield between
            # here and fn's first statement): a crash earlier redelivers,
            # a crash later suppresses — exactly-once either way.
            self.kernel.store.mark_applied(block.durable_id)
        if "event" not in self.kernel.tracer.muted:
            self.kernel.tracer.emit("event", "object-handler", oid=obj.oid,
                                    event=block.event, node=self.node_id)
        self.serving += 1
        # Whoever ends the run — this frame or its watchdog — takes the
        # exit out of the cell, so it is reported once.
        exit_cell = [on_exit]
        watchdog = self._arm_watchdog(ctx._thread, obj, block, exit_cell)
        value = error = None
        try:
            value = yield from fn(ctx, block)
        except BaseException as exc:  # noqa: BLE001 - handler crash is data
            error = exc
        finally:
            if watchdog is not None:
                self.kernel.sim.cancel(watchdog)
            self.serving -= 1
        activation.obj = None
        activation.event_block = previous_block
        if exit_cell:
            exit_cell.pop()(value, error)

    def _arm_watchdog(self, thread: DThread, obj: DistObject,
                      block: EventBlock, exit_cell: list):
        """Watchdog over one object-handler run (``handler_deadline``).

        A hung handler would otherwise wedge the node's master handler
        thread, starving every later post to objects homed here. On
        expiry the executing thread is destroyed, a fresh master is
        spawned if work is waiting, and the run exits with
        :class:`~repro.errors.HandlerTimeout`. Returns the timer handle
        (None when the knob is off — no timer, no extra simulator event).
        """
        deadline = self.kernel.config.handler_deadline
        if deadline is None:
            return None

        def expire() -> None:
            if not exit_cell or not thread.alive:
                return
            supervisor = self.kernel.events.supervisor
            supervisor.counters["handler_timeouts"] += 1
            if "supervise" not in self.kernel.tracer.muted:
                self.kernel.tracer.emit("supervise", "handler-timeout",
                                        event=block.event, oid=obj.oid,
                                        node=self.node_id, deadline=deadline)
            error = HandlerTimeout(
                f"object handler for {block.event} on oid {obj.oid} "
                f"exceeded {deadline}s")
            # Take the exit first: the destroy below unwinds the
            # generator, whose own exit must find the cell empty.
            on_exit = exit_cell.pop()
            self.kernel.invoker.destroy_thread_abrupt(thread, error)
            if self._master is thread:
                # The master died with the hung handler; respawn it if
                # posts are waiting (otherwise first use re-creates it).
                self._master = None
                if len(self._queue):
                    self._ensure_master()
            on_exit(None, error)

        return self.kernel.sim.call_after(deadline, expire)
