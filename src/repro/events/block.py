"""Event blocks.

"Information necessary to handle the event is encapsulated in a structure
called an event block and is passed to the handler. The event block
contains generic system information such as state of the registers, etc.,
for exception handling and space for user defined data structures for
user events." (§4.1)

In this reproduction the "state of the registers" is the structured
:class:`ThreadSnapshot` of the suspended thread: which object/entry each
live frame is in, on which node, and the innermost "program counter"
(the frame's step count — the virtual analogue of a PC the monitoring
application of §6.2 samples).
"""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple

_block_ids = itertools.count(1)

#: ``EventBlock._admission`` once the settle stage concluded the block:
#: like the ``None`` it replaces, a value the wire codec has a one-byte
#: tag for (the slot travels with the block).
SETTLED = False


class FrameInfo(NamedTuple):
    """One activation record in a thread snapshot (a named tuple, like
    :class:`ThreadSnapshot`: one is built per frame per notice, and a
    tuple is built in C)."""

    oid: int
    entry: str
    node: int
    steps: int


class ThreadSnapshot(NamedTuple):
    """Register-file analogue: the suspended thread's visible state."""

    tid: object
    state: str
    node: int | None
    frames: tuple[FrameInfo, ...] = ()

    @property
    def program_counter(self) -> tuple[int, str, int] | None:
        """(oid, entry, steps) of the innermost frame, or None if idle."""
        if not self.frames:
            return None
        top = self.frames[-1]
        return (top.oid, top.entry, top.steps)


class EventBlock:
    """The structure handed to every handler.

    A ``__slots__`` class rather than a dataclass: one block (often
    several — fan-out copies, chain transforms, notices) is allocated
    per post, so the per-instance ``__dict__`` was measurable churn on
    the hot path. For the same reason the library builds it with
    positional arguments only (a keyword call builds a kwargs dict:
    ``tests/test_positional_builds.py``), and ``__init__`` takes the
    seven fields every raise sets first, ``snapshot`` last.

    Attributes
    ----------
    event:
        Event name (system or user).
    raiser_tid:
        Thread that raised the event, or None for kernel-raised events.
    raiser_node:
        Node where the raise happened.
    target:
        The addressed recipient (a tid, group id, or oid) as given to
        ``raise``.
    synchronous:
        True when raised with ``raise_and_wait`` — the raiser is blocked
        until a handler (or the delivery engine on chain completion)
        resumes it.
    user_data:
        "Space for user defined data structures for user events."
    snapshot:
        State of the suspended target thread at delivery time (None for
        object-targeted events with no thread involved).
    raised_at:
        Virtual time of the raise.
    delivered_at:
        Virtual time delivery began (set by the delivery engine).
    block_id:
        Cluster-unique id, allocated at construction.
    durable_id:
        Outbox identity ``(origin_node, seq)`` when the post was
        journaled under ``durable_delivery``; None for non-durable
        posts. Redelivered blocks carry the original id so the
        receiver's applied-set dedup and the origin's ack matching line
        up across crashes.
    """

    __slots__ = ("event", "raiser_tid", "raiser_node", "target",
                 "synchronous", "user_data", "snapshot", "raised_at",
                 "delivered_at", "block_id", "durable_id",
                 "_resume_token", "degraded", "_admission")

    def __init__(self, event: str, raiser_tid: object = None,
                 raiser_node: int | None = None, target: object = None,
                 synchronous: bool = False, user_data: Any = None,
                 raised_at: float = 0.0,
                 delivered_at: float | None = None,
                 snapshot: ThreadSnapshot | None = None) -> None:
        self.event = event
        self.raiser_tid = raiser_tid
        self.raiser_node = raiser_node
        self.target = target
        self.synchronous = synchronous
        self.user_data = user_data
        self.snapshot = snapshot
        self.raised_at = raised_at
        self.delivered_at = delivered_at
        self.block_id = next(_block_ids)
        self.durable_id: tuple[int, int] | None = None
        #: Set by the delivery engine while a chain executes, so a
        #: handler can resume a synchronously-blocked raiser early via
        #: ctx.resume_raiser.
        self._resume_token: Any = None
        #: Overload control: True when the admission gate downgraded
        #: this post from reliable to fire-and-forget (``degrade``
        #: policy); the post then rides a single datagram with a
        #: deadline backstop instead of retransmit-until-acked.
        self.degraded: bool = False
        #: Settlement state: None in flight and uncharged, the admission
        #: charge token ``(gate node, tenant)`` while the post occupies
        #: gate depth, :data:`SETTLED` once concluded (the charge went
        #: back in the same step, so a block concludes exactly once).
        self._admission: tuple[int, int] | bool | None = None

    def __repr__(self) -> str:
        # the documented attributes: every slot up to ``block_id``
        return "EventBlock(%s)" % ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__[:10])

    def with_event(self, event: str, user_data: Any = None) -> "EventBlock":
        """Derive a transformed block for re-raising up a chain (§4.2:
        an event propagated to an outer object "must be transformed to a
        form understandable" to it)."""
        return EventBlock(
            event, self.raiser_tid, self.raiser_node, self.target, False,
            self.user_data if user_data is None else user_data,
            self.raised_at, None, self.snapshot)
