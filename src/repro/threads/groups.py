"""Thread groups.

"Threads belonging to an application can form a thread group and [an]
event posted to a thread group will be sent to all the members of the
group. This is based on the notion of process groups [Cheriton 85]."
(§5.3)

The registry is cluster-level: group membership changes are metadata
updates piggybacked on thread creation/termination, which the paper never
charges for. Event *delivery* to each member is fully charged (one locate
plus post per member).
"""

from __future__ import annotations

from repro.errors import GroupError
from repro.threads.ids import GroupId, ThreadId


class GroupRegistry:
    """Cluster-wide map of thread groups to member thread ids."""

    def __init__(self) -> None:
        self._members: dict[GroupId, set[ThreadId]] = {}
        #: memoised fan-out order per group — the delivery engine posts
        #: to members in sorted order on every multicast, so the sort is
        #: paid once per membership change instead of once per post
        self._sorted: dict[GroupId, tuple[ThreadId, ...]] = {}

    def create(self, gid: GroupId) -> None:
        if gid in self._members:
            raise GroupError(f"group {gid} already exists")
        self._members[gid] = set()

    def exists(self, gid: GroupId) -> bool:
        return gid in self._members

    def add(self, gid: GroupId, tid: ThreadId) -> None:
        members = self._members.get(gid)
        if members is None:
            raise GroupError(f"group {gid} does not exist")
        members.add(tid)
        self._sorted.pop(gid, None)

    def remove(self, gid: GroupId, tid: ThreadId) -> bool:
        """Drop a member; empty groups are garbage-collected."""
        members = self._members.get(gid)
        if members is None or tid not in members:
            return False
        members.discard(tid)
        self._sorted.pop(gid, None)
        if not members:
            del self._members[gid]
        return True

    def members(self, gid: GroupId) -> frozenset[ThreadId]:
        members = self._members.get(gid)
        if members is None:
            raise GroupError(f"group {gid} does not exist")
        return frozenset(members)

    def members_or_empty(self, gid: GroupId) -> frozenset[ThreadId]:
        return frozenset(self._members.get(gid, frozenset()))

    def sorted_members(self, gid: GroupId) -> tuple[ThreadId, ...]:
        """Members in fan-out (sorted) order; cached until membership
        changes. Empty tuple for unknown groups."""
        cached = self._sorted.get(gid)
        if cached is None:
            cached = tuple(sorted(self._members.get(gid, ())))
            self._sorted[gid] = cached
        return cached
