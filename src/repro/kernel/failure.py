"""Heartbeat failure detector.

Every node with ``heartbeat_interval`` set runs a recurring timer that
sends a tiny fire-and-forget ``fd.beat`` to every peer and checks how
long each peer has been silent. A peer silent for ``suspect_after``
consecutive intervals is *suspected*; the delivery engine uses suspicion
to fail buddy-handler invocations fast
(:class:`~repro.errors.BuddyUnavailableError`, feeding the retry/breaker
policy) instead of waiting out the reliable channel's full
retransmission give-up. A beat from a suspected peer clears the
suspicion — the detector is unreliable in the Chandra-Toueg sense, and
every consumer treats suspicion as a hint, never as proof of death.

With ``heartbeat_interval`` left at None (the default) the detector is
completely inert: no timers, no messages, no state.

When SWIM membership is enabled (``swim_interval``), the all-pairs
heartbeat machinery is subsumed: no beat timer is armed regardless of
``heartbeat_interval``, and :meth:`FailureDetector.is_suspected` /
:meth:`FailureDetector.suspected` become a thin adapter over
:class:`~repro.kernel.membership.Membership` suspicion — so every
existing consumer (buddy fast-fail, outbox flush gating) switches to
the O(1)-per-period gossip detector without changing a line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.node import Kernel

MSG_HEARTBEAT = "fd.beat"


class FailureDetector:
    """Per-node heartbeat sender / suspicion tracker."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self._last_heard: dict[int, float] = {}
        self._suspected: set[int] = set()
        self._timer: int | None = None
        #: peer list computed once at start (it never changes between
        #: view changes, and rebuilding it every tick was O(n) garbage
        #: per beat); invalidated by membership view-change callbacks.
        self._peer_list: list[int] | None = None
        self.beats_sent = 0
        self.beats_received = 0
        self.suspicions = 0
        self.trusts = 0

    @property
    def _swim_active(self) -> bool:
        return self.kernel.config.swim_interval is not None

    @property
    def enabled(self) -> bool:
        """Heartbeat machinery armed? False when SWIM subsumes it."""
        return (self.kernel.config.heartbeat_interval is not None
                and not self._swim_active)

    def _peers(self) -> list[int]:
        if self._peer_list is None:
            me = self.kernel.node_id
            self._peer_list = [n for n in range(self.kernel.config.n_nodes)
                               if n != me]
        return self._peer_list

    def invalidate_peers(self) -> None:
        """View changed (membership callback): recompute on next use."""
        self._peer_list = None

    def start(self) -> None:
        """Arm the heartbeat timer (cluster boot and node recovery)."""
        if not self.enabled or self.kernel.crashed:
            return
        now = self.sim.now
        for peer in self._peers():
            # Unconditional fresh stamps: a recovering node must grant
            # every peer a full grace period, not inherit pre-crash
            # timestamps that would instantly (and wrongly) re-suspect.
            self._last_heard[peer] = now
        if self._timer is None:
            self._timer = self.kernel.timers.set(
                self.kernel.config.heartbeat_interval, self._tick,
                recurring=True)

    def _tick(self) -> None:
        if self.kernel.crashed:
            return
        me = self.kernel.node_id
        interval = self.kernel.config.heartbeat_interval
        horizon = self.kernel.config.suspect_after * interval
        now = self.sim.now
        for peer in self._peers():
            self.kernel.send(peer, MSG_HEARTBEAT, {"from": me}, size=16)
            self.beats_sent += 1
            if (peer not in self._suspected
                    and now - self._last_heard.get(peer, now) > horizon):
                self._suspected.add(peer)
                self.suspicions += 1
                self.kernel.tracer.emit("failure", "suspect", node=me,
                                        peer=peer)

    def on_beat(self, message: Message) -> None:
        """Kernel dispatch entry for :data:`MSG_HEARTBEAT`."""
        peer = message.src
        self._last_heard[peer] = self.sim.now
        self.beats_received += 1
        if peer in self._suspected:
            self._suspected.discard(peer)
            self.trusts += 1
            self.kernel.tracer.emit("failure", "trust",
                                    node=self.kernel.node_id, peer=peer)

    def is_suspected(self, node: int) -> bool:
        if self._swim_active:
            return self.kernel.membership.is_failed(node)
        return node in self._suspected

    def suspected(self) -> list[int]:
        if self._swim_active:
            return self.kernel.membership.failed()
        return sorted(self._suspected)

    def on_crash(self) -> None:
        """The node died; its opinions die with it. The timer is
        cancelled explicitly — owning the lifecycle here rather than
        leaning on the kernel's bulk ``timers.cancel_all`` means no
        beat can ever fire from a crashed node even if crash ordering
        changes — and the stale suspicion set is cleared so it cannot
        survive into recovery."""
        if self._timer is not None:
            self.kernel.timers.cancel(self._timer)
            self._timer = None
        self._last_heard.clear()
        self._suspected.clear()
        self._peer_list = None

    def stats(self) -> dict[str, int]:
        return {"beats_sent": self.beats_sent,
                "beats_received": self.beats_received,
                "suspicions": self.suspicions, "trusts": self.trusts,
                "suspected": len(self._suspected)}
