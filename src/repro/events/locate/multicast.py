"""Multicast (§7.1): a node joins a thread's group while the thread runs
there, and a notice probes the group's members only."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable

from repro.events.locate.base import MSG_MCAST_POST, MSG_MCAST_REPLY
from repro.events.locate.broadcast import _ProbeLocator
from repro.kernel.config import LOCATE_MULTICAST
from repro.threads.ids import ThreadId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.threads.thread import DThread


class MulticastRegistry:
    """Tracks which node ids belong to which multicast group."""

    def __init__(self) -> None:
        self._groups: dict[Hashable, set[int]] = {}
        self.joins = 0
        self.leaves = 0

    def join(self, group: Hashable, node_id: int) -> bool:
        """Add a node to a group; returns False if already a member."""
        members = self._groups.setdefault(group, set())
        if node_id in members:
            return False
        members.add(node_id)
        self.joins += 1
        return True

    def leave(self, group: Hashable, node_id: int) -> bool:
        """Remove a node from a group; returns False if not a member."""
        members = self._groups.get(group)
        if not members or node_id not in members:
            return False
        members.discard(node_id)
        self.leaves += 1
        if not members:
            del self._groups[group]
        return True

    def members(self, group: Hashable) -> frozenset[int]:
        return frozenset(self._groups.get(group, frozenset()))

    def groups_of(self, node_id: int) -> frozenset[Hashable]:
        return frozenset(g for g, m in self._groups.items() if node_id in m)

    def dissolve(self, group: Hashable) -> None:
        """Delete a group entirely (e.g. when its thread dies).

        Each removed member counts as a leave, so ``joins - leaves``
        always equals the number of live memberships.
        """
        members = self._groups.pop(group, None)
        if members:
            self.leaves += len(members)


class MulticastLocator(_ProbeLocator):
    """Multicast the notice to the thread's member-maintained group."""

    name = LOCATE_MULTICAST
    POST, REPLY = MSG_MCAST_POST, MSG_MCAST_REPLY
    post = _ProbeLocator.post  # E17's tracer wraps vars(cls)["post"]

    def __init__(self, cluster: Any, enqueue: Any) -> None:
        super().__init__(cluster, enqueue)
        #: one group per thread, keyed by its id
        self.groups = MulticastRegistry()

    def _candidates(self, tid: ThreadId) -> list[int]:
        return sorted(self.groups.members(tid))

    def thread_entered(self, thread: DThread, node: int) -> None:
        self.groups.join(thread.tid, node)

    def thread_left_for_good(self, thread: DThread, node: int) -> None:
        if node != thread.tid.root:
            self.groups.leave(thread.tid, node)

    def thread_gone(self, thread: DThread) -> None:
        self.groups.dissolve(thread.tid)

    def node_crashed(self, node: int) -> None:
        # a dead node is no thread's location, now or after recovery
        for tid in self.groups.groups_of(node):
            self.groups.leave(tid, node)

    def counters(self) -> tuple[dict[str, int], ...]:
        return ({"joins": self.groups.joins, "leaves": self.groups.leaves},)
