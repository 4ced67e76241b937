"""Multicast group membership.

Section 7.1 of the paper proposes tracking migrating threads with
multicast groups: as a thread starts executing on a node, that node's
thread-management system joins the thread's group, so an event can be
addressed to the group and reach the thread directly. This module provides
the membership table; the multicast locator in :mod:`repro.events.locate`
owns one (keyed by thread id) and sends the probes itself.
"""

from __future__ import annotations

from typing import Hashable


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
