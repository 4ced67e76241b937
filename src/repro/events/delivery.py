"""The event manager: coordinator of the delivery pipeline (§3–§5, §7).

Each stage has one owner under :mod:`repro.events` — ``route`` (a raise
becomes admitted, journaled recipient blocks), ``post`` (each block
travels to its thread or its object's home), ``execute`` (the LIFO
handler chain runs on a surrogate), ``settle`` (every post concludes
exactly once; ``raise_and_wait`` raisers resume) and ``presence``
(timers and location bookkeeping follow the thread).
:class:`EventManager` builds them, offers the two ways an event enters
the system, and carries the two observer hooks harnesses set; everything
else, counters included (``Cluster.metrics``), is on the owning stage.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import DeadThreadError, EventError
from repro.events.admission import Admission
from repro.events.block import EventBlock
from repro.events.execute import Executor
from repro.events.post import Poster
from repro.events.presence import Presence
from repro.events.route import Router
from repro.events.settle import Settler
from repro.events.supervise import HandlerSupervisor
from repro.objects.capability import Capability
from repro.sim.primitives import RESOLVED, SimFuture
from repro.threads import syscalls as sc
from repro.threads.ids import GroupId, ThreadId
from repro.threads.thread import DThread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.boot import Cluster


class EventManager:
    """Cluster-wide event facility (per-node state lives in the kernels)."""

    def __init__(self, cluster: "Cluster") -> None:
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.event_names = cluster.names.events
        self.require_event = cluster.names.require_event
        #: observer hook ``(block, target) -> None`` invoked whenever a
        #: post is concluded as noticed (dead target, give-up, deadline,
        #: shed, crash loss); the chaos harness uses it to account every
        #: raiser notice
        self.on_undeliverable: Any = None
        #: observer hook ``(dead_letter) -> None`` invoked whenever a
        #: block enters a dead-letter queue; quarantine is an observable
        #: outcome even when the (volatile) queue later dies with its
        #: node, so accounting harnesses record it here, not by scanning
        #: queues at end of run
        self.on_quarantine: Any = None
        #: overload control: the per-node admission gates while the
        #: ``admission_high`` knob is on, else None (zero bookkeeping)
        config = cluster.config
        self.admission = (Admission(config, cluster.kernels)
                          if config.admission_high is not None else None)
        self.settle = Settler(cluster, self)
        #: watchdog / breaker / dead-letter policy (inert at defaults)
        self.supervisor = HandlerSupervisor(cluster, self.settle)
        self.post = Poster(cluster, self.supervisor, self.settle)
        self.execute = Executor(cluster, self.supervisor, self.settle)
        self.route = Router(cluster, self, self.settle, self.post)
        self.presence = Presence(cluster, self.post)
        #: the configured §7.1 location strategy
        self.locator = self.post.locator

    # -- the counter E17 reads here; every stage's is in Cluster.metrics --

    @property
    def undeliverable(self) -> int:
        return self.settle.undeliverable

    # -- raising (§5.3) --

    def raise_from_thread(self, thread: DThread, syscall: sc.Raise) -> None:
        """A running thread executed ``raise`` / ``raise_and_wait``."""
        try:
            block = self._open(syscall.event, syscall.target,
                               thread.current_node, thread.tid,
                               syscall.synchronous, syscall.user_data)
        except EventError as exc:
            thread.schedule_step(None, exc)
            return
        self._raise(block, thread.schedule_step if not syscall.synchronous
                    else partial(thread.resume_with,
                                 epoch=thread.block("raise_and_wait")))

    def raise_external(self, event: str, target: Any, from_node: int = 0,
                       user_data: Any = None,
                       synchronous: bool = False) -> SimFuture[Any]:
        """Raise an event from outside any thread (the user's terminal,
        a test harness, a device): the paper's ^C enters the system this
        way. Returns a future: recipient count (async) or the handler
        value (sync)."""
        block = self._open(event, target, from_node, None, synchronous,
                           user_data)
        if synchronous:
            future: SimFuture[Any] = SimFuture(self.sim)
            self._raise(block, future.settle)
            return future
        # Built resolved with the count, slot by slot: no ``__init__`` or
        # ``settle`` frame per post. A done future never reads
        # ``_callbacks``, so it shares the empty tuple.
        future = object.__new__(SimFuture)
        future._sim = self.sim
        future._state = RESOLVED
        future._value = self.route.route(block)
        future._error = None
        future._callbacks = ()
        return future

    def _open(self, event: str, target: Any, node: int, raiser_tid: Any,
              synchronous: bool, user_data: Any) -> EventBlock:
        """Validate one raise and build its event block."""
        if event not in self.event_names:
            self.require_event(event)  # raises UnknownEventError
        if not isinstance(target, (ThreadId, GroupId, Capability)):
            target = self.route.normalize_target(target)
        if "event" not in self.tracer.muted:
            self.tracer.emit(
                "event", "raise", event=event,
                tid="<ext>" if raiser_tid is None else str(raiser_tid),
                target=str(target), sync=synchronous, node=node)
        return EventBlock(event, raiser_tid, node, target, synchronous,
                          user_data, self.sim.now)

    def _raise(self, block: EventBlock,
               complete: Callable[[Any, Any], None]) -> None:
        """Route ``block``. ``complete(value, error)`` answers the
        raiser: at once with the recipient count, or — raise_and_wait —
        when every recipient's handling has concluded."""
        if not block.synchronous:
            complete(self.route.route(block), None)
            return
        wait = self.settle.open_wait(block, complete)
        count = self.route.route(block)
        if count == 0:
            self.settle.waits.pop(block.block_id, None)
            complete(None, DeadThreadError(
                f"no recipients for {block.event} -> {block.target}"))
        else:
            wait.remaining = count
            self.settle.arm_timeout(block)
