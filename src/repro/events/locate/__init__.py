"""Thread-location strategies (§7.1).

"When an event is posted to a thread, the system must track down the
thread." The paper proposes three strategies, all implemented here behind
one interface:

* :class:`BroadcastLocator` — "broadcast the event request. When the
  machine that has the thread active gets the request, it can block the
  thread [and] run the handler … However, this is communication intensive
  and wasteful." Every node receives the posted event; non-holders reply
  not-found so the origin can detect dead threads.
* :class:`PathLocator` — "follow the path of the thread starting from its
  root node … using information in the system's thread-control blocks.
  On a distributed system comprising of n nodes, it is possible to find
  the thread in n steps." The notice hops along TCB forwarding pointers.
* :class:`MulticastLocator` — "application's threads can create a
  multicast group. When a thread leaves the current node and starts
  executing in another, the thread-management system can join the
  multicast group" — the notice is multicast to the thread's group and
  only the node holding the innermost activation accepts it.
* :class:`CachedLocator` — the optimisation the paper leaves on the
  table: each node caches ``tid -> node`` hints (installed by every
  successful delivery, piggy-backed on existing replies) and a post goes
  straight to the hinted node with a single message. On a stale hint the
  receiving node chases its TCB ``next_node`` forwarding pointer with
  the notice itself, bounded by :data:`LOCATE_RETRIES` forwards; only on
  exhaustion does the post fall back to the configured base strategy
  (``cache_fallback``: path, broadcast or multicast). Steady-state posts
  to a stationary thread cost one message regardless of cluster size and
  migration depth.

Because threads keep moving while notices are in flight, every strategy
retries a bounded number of times before declaring the thread dead.

Each strategy keeps the location state it reads (thread groups, hint
tables, defined beside it) through the :class:`BaseLocator` bookkeeping
hooks; path and broadcast keep none.

On the wire a locate message is the ``tid`` and the notice, both
registered shapes.  The origin's side of the exchange — the verdict
callback, the hop count and retry budget, a probe round's tally — is
kept by the locator under the notice's block id (``_open``) and the
message names it, because the verdict returns to the raiser by a call,
not by a message the paper's protocols do not have.
"""

from __future__ import annotations

from typing import Any

from repro.events.locate.base import (
    LOCATE_RETRIES,
    LOCATE_RETRY_DELAY,
    MSG_BCAST_POST,
    MSG_BCAST_REPLY,
    MSG_CACHED_POST,
    MSG_MCAST_POST,
    MSG_MCAST_REPLY,
    MSG_PATH_POST,
    BaseLocator,
)
from repro.events.locate.broadcast import BroadcastLocator
from repro.events.locate.cached import CachedLocator, LocationHintTable
from repro.events.locate.multicast import MulticastLocator, MulticastRegistry
from repro.events.locate.path import PathLocator

__all__ = [
    "LOCATE_RETRIES", "LOCATE_RETRY_DELAY", "MSG_BCAST_POST",
    "MSG_BCAST_REPLY", "MSG_CACHED_POST", "MSG_MCAST_POST",
    "MSG_MCAST_REPLY", "MSG_PATH_POST", "BroadcastLocator", "CachedLocator",
    "LocationHintTable", "MulticastLocator", "MulticastRegistry",
    "PathLocator", "make_locator",
]


def make_locator(name: str, cluster: Any, enqueue: Any) -> BaseLocator:
    """Instantiate the configured strategy (which registers the message
    types it answers with every kernel)."""
    return {cls.name: cls for cls in (PathLocator, BroadcastLocator,
            MulticastLocator, CachedLocator)}[name](cluster, enqueue)
