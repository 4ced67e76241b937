"""Thread attributes.

"Thread attributes contain information such as the connections to the I/O
channel that the thread is using, creator of the thread, consistency
labels for the thread, etc. Event information is a natural addition to
the attributes." (§3.1)

Attributes are the paper's central device: because the *same logical
thread* executes across objects and machines, state attached to the
thread — I/O connections, the event registry, handler chains, per-thread
memory, armed timers — is visible wherever it goes, and is inherited by
threads it spawns (§6.3: "Any subsequent thread spawned from the root
thread inherits the thread attributes (including the event registry and
the handler information).").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ProcessError
from repro.events.handlers import HandlerChain, HandlerRegistration
from repro.objects.perthread import PerThreadMemory


class IoChannel:
    """A thread's connection to an I/O endpoint (an "X terminal window").

    The §3.1 example: output from any procedure the thread calls — local
    or in another object on another machine — lands on the same channel
    without explicit redirection, because the connection is a thread
    attribute.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[tuple[float, str, str]] = []

    def write(self, time: float, tid: object, text: str) -> None:
        self.lines.append((time, str(tid), text))

    def text(self) -> str:
        return "\n".join(line for _, _, line in self.lines)

    def __repr__(self) -> str:  # pragma: no cover - diagnostic only
        return f"<IoChannel {self.name} lines={len(self.lines)}>"


_timer_spec_ids = itertools.count(1)


@dataclass
class TimerSpec:
    """A timer registered in the thread's attribute list (§6.2).

    When the thread visits another node, "the thread attribute list is
    examined and the event registration information is recreated" — the
    invocation engine re-arms these specs on every node the thread
    enters and disarms them when it departs.
    """

    event: str
    interval: float
    recurring: bool = True
    user_data: Any = None
    spec_id: int = field(default_factory=lambda: next(_timer_spec_ids))

    def __post_init__(self) -> None:
        if not self.interval > 0:  # also refuses NaN
            raise ProcessError(
                f"timer interval must be positive, got {self.interval!r}")


class ThreadAttributes:
    """Everything that travels with a logical thread."""

    def __init__(self, creator: object = None, group: object = None,
                 io_channel: IoChannel | None = None) -> None:
        self.creator = creator
        self.group = group
        self.io_channel = io_channel
        #: Consistency labels in the sense of [Chen 89]; opaque to us but
        #: carried and inherited.
        self.consistency_labels: dict[str, Any] = {}
        self.per_thread_memory = PerThreadMemory()
        #: event name -> LIFO chain of handler registrations (§4.2)
        self.handler_chains: dict[str, HandlerChain] = {}
        #: timers to (re-)arm wherever the thread executes (§6.2)
        self.timers: list[TimerSpec] = []

    # -- handler registry -------------------------------------------------

    def chain_for(self, event: str) -> HandlerChain:
        chain = self.handler_chains.get(event)
        if chain is None:
            chain = HandlerChain(event)
            self.handler_chains[event] = chain
        return chain

    def attach(self, registration: HandlerRegistration) -> None:
        self.chain_for(registration.event).push(registration)

    def detach_top(self, event: str) -> HandlerRegistration | None:
        chain = self.handler_chains.get(event)
        if chain is None or len(chain) == 0:
            return None
        return chain.pop()

    def detach(self, event: str, reg_id: int | None = None) -> bool:
        """Remove registration ``reg_id`` (None: the top of the chain);
        False if there was none to remove."""
        if reg_id is None:
            return self.detach_top(event) is not None
        chain = self.handler_chains.get(event)
        return bool(chain and chain.remove(reg_id))

    def handlers_for(self, event: str) -> list[HandlerRegistration]:
        """Delivery order: most recently attached first (§4.2 LIFO)."""
        chain = self.handler_chains.get(event)
        return [] if chain is None else chain._stack[::-1]

    # -- timers ------------------------------------------------------------

    def add_timer(self, spec: TimerSpec) -> None:
        self.timers.append(spec)

    def remove_timer(self, spec_id: int) -> bool:
        for i, spec in enumerate(self.timers):
            if spec.spec_id == spec_id:
                del self.timers[i]
                return True
        return False

    # -- inheritance and migration ------------------------------------------

    def inherit(self) -> "ThreadAttributes":
        """Copy for a spawned child thread (§6.3 inheritance rule).

        Handler chains, per-thread memory, timers and labels are copied;
        the I/O channel is *shared* (the child writes to the same
        terminal), matching the paper's controlling-terminal example.
        """
        child = ThreadAttributes(creator=self.creator, group=self.group,
                                 io_channel=self.io_channel)
        child.consistency_labels = dict(self.consistency_labels)
        child.per_thread_memory = self.per_thread_memory.copy()
        child.handler_chains = {
            event: chain.copy() for event, chain in self.handler_chains.items()
        }
        child.timers = list(self.timers)
        return child

    @property
    def nominal_size(self) -> int:
        """Bytes charged when the attributes migrate with the thread."""
        chains = sum(len(c) for c in self.handler_chains.values())
        return (128 + 48 * chains + 24 * len(self.timers)
                + self.per_thread_memory.nominal_size)
