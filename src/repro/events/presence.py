"""Presence: what the facility keeps current as a thread moves (§6.2, §7.1).

The invocation engine reports every arrival, departure and exit of a
logical thread; this stage re-arms its attribute timers where it now
runs, retires its parked handler surrogate, passes each move on to the
configured §7.1 locator (which keeps whatever location state it reads)
and turns the notices a dead thread still held into §7.2 dead-target
notices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.events.block import EventBlock
from repro.events.post import Poster
from repro.threads.attributes import TimerSpec
from repro.threads.thread import DThread, KIND_USER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.boot import Cluster


class Presence:
    """Thread-attribute timers and the ``thread_*_node`` hooks."""

    def __init__(self, cluster: "Cluster", post: Poster) -> None:
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.kernels = cluster.kernels
        self.locator = post.locator
        self.retire_surrogate = cluster.invoker.retire_surrogate
        self.post = post

    # -- thread-attribute timers (§6.2) --

    def add_thread_timer(self, thread: DThread, spec: TimerSpec) -> int:
        thread.attributes.add_timer(spec)
        if thread.alive:
            self._arm(thread, spec, thread.current_node)
        return spec.spec_id

    def remove_thread_timer(self, thread: DThread, spec_id: int) -> bool:
        armed = thread.armed_timers.pop(spec_id, None)
        if armed is not None:
            node, timer_id = armed
            self.kernels[node].timers.cancel(timer_id)
        return thread.attributes.remove_timer(spec_id)

    def _arm(self, thread: DThread, spec: TimerSpec, node: int) -> None:
        timer_id = self.kernels[node].timers.set(
            spec.interval, self._timer_fired, thread, spec, node,
            recurring=spec.recurring)
        thread.armed_timers[spec.spec_id] = (node, timer_id)

    def _timer_fired(self, thread: DThread, spec: TimerSpec,
                     node: int) -> None:
        if not thread.alive or thread.current_node != node:
            return  # stale: the thread moved and was re-armed elsewhere
        if not spec.recurring:
            thread.armed_timers.pop(spec.spec_id, None)
            thread.attributes.remove_timer(spec.spec_id)
        block = EventBlock(spec.event, None, node, thread.tid, False,
                           spec.user_data, self.sim.now)
        if "timer" not in self.tracer.muted:
            self.tracer.emit("timer", "fire", event=spec.event,
                             tid=str(thread.tid), node=node)
        # refused on a loop thread, as any notice: nothing waits on it
        self.post.enqueue_for_thread(node, thread.tid, block)

    # -- migration hooks (called by the invocation engine) --

    def thread_entered_node(self, thread: DThread, node: int) -> None:
        """The thread starts executing on a node: re-create its event
        registration there (§6.2: timers are re-armed from the attribute
        list) and tell the locator (§7.1)."""
        self.locator.thread_entered(thread, node)
        if thread.kind == KIND_USER:
            for spec in thread.attributes.timers:
                if spec.spec_id not in thread.armed_timers:
                    self._arm(thread, spec, node)

    def _disarm(self, thread: DThread, node: int | None = None) -> None:
        """Cancel the thread's timers armed on ``node`` (None: anywhere)."""
        for spec_id, (armed_node, timer_id) in list(
                thread.armed_timers.items()):
            if node is None or armed_node == node:
                self.kernels[armed_node].timers.cancel(timer_id)
                del thread.armed_timers[spec_id]

    def thread_leaving_node(self, thread: DThread, node: int) -> None:
        """The thread's innermost frame is departing ``node``; its
        parked handler surrogate does not travel."""
        self.retire_surrogate(thread)
        self.locator.thread_leaving(thread, node)
        if thread.armed_timers:
            self._disarm(thread, node)

    def thread_left_for_good(self, thread: DThread, node: int) -> None:
        """No frames of the thread remain on ``node``."""
        self.locator.thread_left_for_good(thread, node)

    def thread_gone(self, thread: DThread) -> None:
        """The thread finished or was terminated; final cleanup."""
        self.retire_surrogate(thread)
        if thread.armed_timers:
            self._disarm(thread)
        # before the notices below: a TARGET_DEAD post must not find it
        self.locator.thread_gone(thread)
        # Notices still queued — or mid-delivery — die with the thread;
        # every raiser, synchronous or not, gets the §7.2 notification
        # instead of silence.
        dead_target = self.post.dead_target
        if thread.delivering_block is not None:
            block = thread.delivering_block
            thread.delivering_block = None
            dead_target(block, thread.tid)
        while thread.pending_notices:
            dead_target(thread.pending_notices.popleft(), thread.tid)
