"""Handler supervision: watchdogs, circuit breakers, dead letters.

PRs 2-4 made the *transport* crash-tolerant; this module makes *handler
execution* crash-tolerant. The delivery engine consults one
:class:`HandlerSupervisor` (cluster-wide, owned by the
:class:`~repro.events.delivery.EventManager`) for three policies:

* **watchdog deadlines** — every supervised handler run, an object
  handler's or a chain's, gets a deadline (``handler_deadline``,
  overridable per registration) from :meth:`HandlerSupervisor.watch`;
  on expiry its loop thread is destroyed, so the run ends through
  ``frame_exit`` with the timeout as every other end does, and a
  ``HANDLER_TIMEOUT`` system event is raised on a surrogate's owner.
* **retry + circuit breaking for buddy handlers** — invocations that
  fail with crash/give-up errors retry with exponential backoff
  (``handler_retries`` / ``handler_backoff``); a per-(buddy-oid, event)
  :class:`CircuitBreaker` opens after ``breaker_threshold`` consecutive
  failures and skips the registration (chain fall-through) until a
  half-open probe succeeds.
* **dead-letter quarantine** — a block whose *entire* chain fails
  ``poison_threshold`` times moves to the node's
  :class:`DeadLetterQueue` (journaled when ``durable_delivery`` is on)
  instead of failing forever; it stays inspectable and requeueable via
  the cluster API.

Everything is inert while the knobs hold their defaults: no timers, no
state, no extra simulator events — same-seed runs stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import HandlerTimeout
from repro.events import names
from repro.events.block import EventBlock
from repro.events.settle import QUARANTINED, Settler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.node import Kernel
    from repro.threads.thread import DThread

# -- circuit breaker ---------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-(buddy-oid, event) failure gate.

    CLOSED admits everything; ``threshold`` consecutive failures open
    it. OPEN rejects until ``reset`` virtual seconds have passed, then
    admits exactly one half-open probe; the probe's outcome closes or
    re-opens the breaker.
    """

    __slots__ = ("threshold", "reset", "state", "failures", "opened_at")

    def __init__(self, threshold: int, reset: float) -> None:
        self.threshold = threshold
        self.reset = reset
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0

    def allow(self, now: float) -> tuple[bool, bool]:
        """(admit?, is this admission the half-open probe?)."""
        if self.state == CLOSED:
            return True, False
        if self.state == OPEN and now - self.opened_at >= self.reset:
            self.state = HALF_OPEN
            return True, True
        # OPEN inside the reset window, or a half-open probe in flight.
        return False, False

    def record_success(self) -> bool:
        """Returns True when this success closed a non-closed breaker."""
        self.failures = 0
        if self.state != CLOSED:
            self.state = CLOSED
            return True
        return False

    def record_failure(self, now: float) -> bool:
        """Returns True when this failure opened (or re-opened) it."""
        self.failures += 1
        if self.state == HALF_OPEN or (self.state == CLOSED
                                       and self.failures >= self.threshold):
            self.state = OPEN
            self.opened_at = now
            return True
        if self.state == OPEN:
            # Late failure report while already open: refresh the window.
            self.opened_at = now
        return False


# -- supervisor --------------------------------------------------------------

class HandlerSupervisor:
    """Cluster-wide supervision policy, consulted by the delivery engine."""

    COUNTERS = ("handler_timeouts", "handler_retries", "breaker_opens",
                "breaker_half_opens", "breaker_closes", "breaker_skips",
                "fast_fails", "chain_retries", "quarantined", "requeued",
                "dead_letter_undeliverable", "degrade_unconfirmed")

    def __init__(self, cluster, settle: "Settler") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.kernels = cluster.kernels
        self.config = cluster.config
        self.settle = settle
        self._breakers: dict[tuple[int, str], CircuitBreaker] = {}
        #: chain-failure tallies for the poison policy, keyed by the
        #: block's durable id (stable across redelivery) or block id;
        #: empty while no failed run awaits its retry
        self.chain_failures: dict[Any, int] = {}
        self.counters = {name: 0 for name in self.COUNTERS}

    # -- watchdog -----------------------------------------------------

    def watch(self, thread: "DThread", deadline: float, block: EventBlock,
              owner: "DThread | None" = None, obj: Any = None) -> list:
        """Arm the watchdog over one handler run of ``block`` on the loop
        thread ``thread`` — an object handler's on ``obj``, or a chain
        handler's on ``owner``'s surrogate — and return its timer (the
        run's ``frame_exit`` cancels it). On expiry it counts, traces,
        raises ``HANDLER_TIMEOUT`` on a subscribed ``owner`` and destroys
        ``thread``: the run then ends through ``frame_exit``."""
        return self.sim.call_after(deadline, self._expired, thread, deadline,
                                   block, owner, obj)

    def _expired(self, thread: "DThread", deadline: float,
                 block: EventBlock, owner: "DThread | None",
                 obj: Any) -> None:
        if not (thread.alive and thread.frames):
            return  # the run ended in this instant, ahead of its watchdog
        self.counters["handler_timeouts"] += 1
        what = f"handler for {block.event}"
        if owner is None:
            what = f"object {what} on oid {obj.oid}"
            if "supervise" not in self.tracer.muted:
                self.tracer.emit("supervise", "handler-timeout",
                                 event=block.event, oid=obj.oid,
                                 node=thread.current_node, deadline=deadline)
        else:
            if "supervise" not in self.tracer.muted:
                self.tracer.emit("supervise", "handler-timeout",
                                 event=block.event, tid=str(owner.tid),
                                 deadline=deadline)
            # Only a subscribed owner hears of it (as with TARGET_DEAD).
            # Queued first: the destroy below ends the run, and the
            # chain falls through (LIFO order kept) before it returns.
            if (owner.alive and block.event != names.HANDLER_TIMEOUT
                    and owner.attributes.handlers_for(names.HANDLER_TIMEOUT)):
                node = owner.current_node
                self.cluster.events.post.enqueue_for_thread(
                    node, owner.tid, EventBlock(
                        event=names.HANDLER_TIMEOUT, raiser_tid=None,
                        raiser_node=node, target=owner.tid,
                        user_data={"event": block.event,
                                   "deadline": deadline},
                        raised_at=self.sim.now))
        self.cluster.invoker.destroy_thread_abrupt(
            thread, HandlerTimeout(f"{what} exceeded {deadline}s"))

    # -- circuit breaker ----------------------------------------------

    def breaker_for(self, oid: int, event: str) -> CircuitBreaker | None:
        if self.config.breaker_threshold is None:
            return None
        key = (oid, event)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(
                self.config.breaker_threshold, self.config.breaker_reset)
        return breaker

    def breaker_state(self, oid: int, event: str) -> str:
        breaker = self._breakers.get((oid, event))
        return breaker.state if breaker is not None else CLOSED

    def breaker_allows(self, oid: int, event: str) -> bool:
        """Admission check; emits skip / half-open traces."""
        breaker = self.breaker_for(oid, event)
        if breaker is None:
            return True
        admitted, probe = breaker.allow(self.sim.now)
        if probe:
            self.counters["breaker_half_opens"] += 1
            if "supervise" not in self.tracer.muted:
                self.tracer.emit("supervise", "breaker-half-open", oid=oid,
                                 event=event)
        if not admitted:
            self.counters["breaker_skips"] += 1
            if "supervise" not in self.tracer.muted:
                self.tracer.emit("supervise", "breaker-skip", oid=oid,
                                 event=event)
        return admitted

    def invoke_succeeded(self, oid: int, event: str) -> None:
        breaker = self._breakers.get((oid, event))
        if breaker is not None and breaker.record_success():
            self.counters["breaker_closes"] += 1
            if "supervise" not in self.tracer.muted:
                self.tracer.emit("supervise", "breaker-close", oid=oid,
                                 event=event)

    def invoke_failed(self, oid: int, event: str) -> None:
        breaker = self.breaker_for(oid, event)
        if breaker is not None and breaker.record_failure(self.sim.now):
            self.counters["breaker_opens"] += 1
            if "supervise" not in self.tracer.muted:
                self.tracer.emit("supervise", "breaker-open", oid=oid,
                                 event=event, failures=breaker.failures)

    # -- poison / dead-letter policy ----------------------------------

    def poisoned(self, block: "EventBlock", error: BaseException | None,
                 node: int, rerun: Any, *rerun_args: Any,
                 **who: Any) -> str | None:
        """Every handler of one run of ``block`` on ``node`` failed (a
        thread's whole chain, or an object's handler); what now?

        Returns None when the poison policy is off, ``"retry"`` —
        ``rerun(*rerun_args)`` is scheduled behind an exponential
        backoff — while the block is below ``poison_threshold`` total
        failures, and ``"quarantine"`` when it hit the threshold and was
        concluded into ``node``'s dead-letter queue (the tally is
        dropped — the block leaves delivery). ``who`` labels the retry
        trace (``tid=`` or ``oid=``).
        """
        threshold = self.config.poison_threshold
        if threshold is None:
            return None
        key = block.durable_id or block.block_id
        count = self.chain_failures.get(key, 0) + 1
        if count >= threshold:
            self.chain_failures.pop(key, None)
            self.settle.conclude(block, QUARANTINED, count, error, node)
            return "quarantine"
        self.chain_failures[key] = count
        self.counters["chain_retries"] += 1
        if "supervise" not in self.tracer.muted:
            self.tracer.emit("supervise", "chain-retry", event=block.event,
                             **who, attempt=count)
        if block.durable_id is not None:
            # Retract the applied marker an object handler's run
            # journaled (thread posts never set one): if the node dies
            # during the backoff, the origin's redelivery must re-run
            # the handler, not be suppressed.
            self.kernels[node].store.unmark_applied(block.durable_id)
        self.sim.call_after(self.config.handler_backoff * (2 ** (count - 1)),
                            rerun, *rerun_args)
        return "retry"

    def clear_failures(self, block: "EventBlock") -> None:
        """A chain run succeeded: forget the block's failure tally (its
        callers skip the call while ``chain_failures`` is empty)."""
        self.chain_failures.pop(block.durable_id or block.block_id, None)

    def stats(self) -> dict[str, int]:
        open_breakers = sum(1 for b in self._breakers.values()
                            if b.state != CLOSED)
        return {**self.counters, "breakers": len(self._breakers),
                "breakers_open": open_breakers}


# -- dead-letter queue -------------------------------------------------------

@dataclass
class DeadLetter:
    """One quarantined event block on one node."""

    dl_id: int
    block: "EventBlock"
    reason: str            #: "poison" or "undeliverable"
    error: str | None      #: repr of the last failure, if any
    failures: int          #: chain failures accumulated before quarantine
    at: float              #: virtual time of quarantine


class DeadLetterQueue:
    """Per-node quarantine for poison / undeliverable event blocks.

    Journaled through the node's :class:`~repro.store.manager.NodeStore`
    when ``durable_delivery`` is on (``dead`` / ``dead-requeue``
    records, carried through checkpoints), so quarantined blocks survive
    node crashes exactly like pending posts do.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._entries: dict[int, DeadLetter] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, block: "EventBlock", reason: str,
            error: BaseException | str | None = None,
            failures: int = 0, journal: bool = True) -> DeadLetter:
        """Quarantine a block (journals a ``dead`` record when durable).

        ``journal=False`` keeps the entry memory-only even in durable
        mode — used by the undeliverable-post path, which must not
        perturb journal accounting of runs that never enabled a
        supervision knob.
        """
        self._next_id += 1
        dead = DeadLetter(dl_id=self._next_id, block=block, reason=reason,
                          error=repr(error) if error is not None else None,
                          failures=failures, at=self.kernel.sim.now)
        self._entries[dead.dl_id] = dead
        if "supervise" not in self.kernel.tracer.muted:
            self.kernel.tracer.emit("supervise", "dead-letter",
                                    node=self.kernel.node_id, dl_id=dead.dl_id,
                                    event=block.event, reason=reason,
                                    error=dead.error)
        if journal and self.kernel.store.enabled:
            self.kernel.store.journal_dead_letter(dead)
        hook = self.kernel.cluster.events.on_quarantine
        if hook is not None:
            hook(dead)
        return dead

    def take(self, dl_id: int) -> DeadLetter | None:
        """Remove a dead letter for requeue (journals when durable)."""
        dead = self._entries.pop(dl_id, None)
        if dead is None:
            return None
        if self.kernel.store.enabled:
            self.kernel.store.journal_dead_requeue(dl_id)
        return dead

    def get(self, dl_id: int) -> DeadLetter | None:
        return self._entries.get(dl_id)

    def holds(self, durable_id: tuple[int, int]) -> bool:
        """Is the durable post ``durable_id`` quarantined here? (What a
        redelivered duplicate of it must be re-acked as.)"""
        return any(dead.block.durable_id == durable_id
                   for dead in self._entries.values())

    def entries(self) -> list[DeadLetter]:
        """All quarantined blocks, oldest first."""
        return [self._entries[k] for k in sorted(self._entries)]

    # -- checkpoint / recovery ----------------------------------------

    def snapshot(self) -> tuple[DeadLetter, ...]:
        """Checkpoint form (entries copied so history stays frozen)."""
        return tuple(replace(dead) for dead in self.entries())

    def restore(self, entries: Iterable[DeadLetter]) -> None:
        """Reset to a checkpoint's quarantine set (recovery replay)."""
        self._entries = {}
        for dead in entries:
            self._entries[dead.dl_id] = replace(dead)
            self._next_id = max(self._next_id, dead.dl_id)

    def replay_add(self, data: dict[str, Any]) -> None:
        """Roll one ``dead`` journal record forward during replay."""
        dead = DeadLetter(dl_id=data["dl_id"], block=data["block"],
                          reason=data["reason"], error=data["error"],
                          failures=data["failures"], at=data["at"])
        self._entries[dead.dl_id] = dead
        self._next_id = max(self._next_id, dead.dl_id)

    def replay_remove(self, dl_id: int) -> None:
        """Roll one ``dead-requeue`` record forward during replay."""
        self._entries.pop(dl_id, None)

    def on_crash(self) -> None:
        """Memory is gone; recovery replays the journal (durable mode)."""
        self._entries.clear()
        self._next_id = 0
