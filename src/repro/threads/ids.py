"""Thread and group identifiers.

"We assume that given the unique name of a thread, it is possible to find
the root node." (§7.1) — thread ids therefore *encode* the root node (the
node the thread was created on), which is where the path-following
locator starts walking.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from repro.errors import ThreadError

_TID_RE = re.compile(r"^T(\d+)\.(\d+)$")
_GID_RE = re.compile(r"^G(\d+)\.(\d+)$")


@dataclass(frozen=True, order=True)
class ThreadId:
    """Globally unique thread name: root node + per-root sequence number."""

    root: int
    seq: int
    #: ids key every per-thread table, so the hash is computed once
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.root, self.seq)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"T{self.root}.{self.seq}"

    @classmethod
    def parse(cls, text: str) -> "ThreadId":
        match = _TID_RE.match(text)
        if match is None:
            raise ThreadError(f"malformed thread id {text!r}")
        return cls(root=int(match.group(1)), seq=int(match.group(2)))


@dataclass(frozen=True, order=True)
class GroupId:
    """Thread-group identifier (V-kernel style process groups, §5.3)."""

    root: int
    seq: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.root, self.seq)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"G{self.root}.{self.seq}"

    @classmethod
    def parse(cls, text: str) -> "GroupId":
        match = _GID_RE.match(text)
        if match is None:
            raise ThreadError(f"malformed group id {text!r}")
        return cls(root=int(match.group(1)), seq=int(match.group(2)))


class IdAllocator:
    """Per-node allocator for thread and group ids."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._tids = itertools.count(1)
        self._gids = itertools.count(1)

    def new_tid(self) -> ThreadId:
        return ThreadId(root=self.node_id, seq=next(self._tids))

    def new_gid(self) -> GroupId:
        return GroupId(root=self.node_id, seq=next(self._gids))
