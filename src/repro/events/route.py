"""Route: turn one raise into its recipient blocks (§5.3's table).

``raise(e, tid | gtid | oid)`` addresses a thread, every member of a
group, or a passive object. This stage resolves the target, asks
admission control for a verdict on the whole raise, builds the recipient
blocks once, write-ahead journals them when delivery is durable, and
posts each — or defers it to the outbox, or sheds it at the gate.
Each recipient block is opened in the settle stage's open-post table
before anything can conclude it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import EventError, OverloadShedError
from repro.events.admission import ADMIT, DEFER, DEGRADE, DROP
from repro.events.block import EventBlock
from repro.events.post import Poster
from repro.events.settle import NOTICED, Settler
from repro.objects.capability import Capability
from repro.threads.ids import GroupId
from repro.threads.thread import DThread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.events.delivery import EventManager
    from repro.kernel.boot import Cluster


class Router:
    """Target resolution, admission and fan-out of raises."""

    def __init__(self, cluster: "Cluster", events: "EventManager",
                 settle: Settler, post: Poster) -> None:
        self.events = events
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.kernels = cluster.kernels
        self.groups = cluster.groups
        self.find_object = cluster.find_object
        self.admission = events.admission
        self.settle = settle
        self.post = post
        self.durable = cluster.config.durable_delivery
        #: the settle stage's open-post table, and the nodes this cluster
        #: hosts when it is one shard of a sharded run (else None)
        self.open = settle.open
        self.shard = settle.shard
        #: raises routed (each counts once, whatever its fan-out)
        self.posts = 0

    def normalize_target(self, target: Any) -> Any:
        """The id or capability a raise addresses, for a ``target`` that
        is not one already (``EventManager._open`` checks that first)."""
        if isinstance(target, DThread):
            return target.tid
        if isinstance(target, int):
            obj = self.find_object(target)
            if obj is None:
                raise EventError(f"no object with oid {target}")
            return obj.cap
        if hasattr(target, "cap"):
            return target.cap
        raise EventError(
            f"event target must be a ThreadId, GroupId, or object "
            f"capability; got {target!r}")

    def route(self, block: EventBlock) -> int:
        """Start routing; returns the number of recipients targeted."""
        self.posts += 1
        from_node, target = block.raiser_node, block.target
        to_object = isinstance(target, Capability)
        members = (self.groups.sorted_members(target)
                   if isinstance(target, GroupId) else None)
        shard = self.shard
        if members is None and (shard is None or (
                target.home if to_object else target[0]) in shard):
            self.open[block.block_id] = block
        # Write-ahead journaling happens here — at the raise, before the
        # first send — so kernel-internal notices (TARGET_DEAD, ABORT,
        # timers) posted through the post stage directly stay undurable.
        store = (self.kernels[from_node].store
                 if self.durable and from_node in self.kernels else None)
        admission = self.admission
        # Object posts occupy their home node's handler queue; thread
        # posts are charged where they are raised.
        gate_node = target.home if to_object else from_node
        verdict = ADMIT
        if admission is not None:
            verdict = admission.verdict(
                gate_node, from_node, 1 if members is None else len(members),
                store is not None, to_object)
            if verdict == DROP or verdict == DEFER:
                if "event" not in self.tracer.muted:
                    self.tracer.emit("event", "shed", event=block.event,
                                     target=str(target), action=verdict,
                                     node=from_node)
            if verdict == DROP:
                # Rejected at the gate with a §7.2-style notice.
                self.settle.conclude(block, NOTICED, None, OverloadShedError(
                    f"{block.event} -> {target} shed by admission control"),
                    from_node)
                return 1
            if verdict == DEGRADE:
                block.degraded = True
        # A deferred (durable) post is journaled and parked straight into
        # the outbox: nothing is sent or charged now; the flush timer (or
        # the target's recovery announcement) delivers it once the storm
        # passes.
        deferred = verdict == DEFER
        if members is None:
            if not to_object:
                block._resume_token = block.block_id
            if admission is not None and not deferred:
                admission.charge(gate_node, block)
            if store is not None:
                entry = (store.journal_post(block, "object", target.home)
                         if to_object else store.journal_post(block, "thread"))
                if deferred:
                    store.defer(entry.entry_id)
                    return 1
            if to_object:
                self.post.post_object(from_node, block)
            else:
                self.post.post_thread(from_node, target, block)
            return 1
        # Batched fan-out: the member list is resolved once (cached
        # sorted order), every member gets its own copy of the block
        # (separate snapshots/decisions) tied to the raise's sync record,
        # the batch is journaled as one group commit, and one pass posts
        # them — the delivery stack is set up once per multicast, not
        # once per recipient.
        event, raiser_tid = block.event, block.raiser_tid
        raiser_node, synchronous = block.raiser_node, block.synchronous
        user_data, raised_at = block.user_data, block.raised_at
        token = block.block_id
        open_posts = self.open
        blocks = []
        for tid in members:
            member_block = EventBlock(event, raiser_tid, raiser_node, target,
                                      synchronous, user_data, raised_at)
            member_block._resume_token = token
            if shard is None or tid[0] in shard:
                open_posts[member_block.block_id] = member_block
            blocks.append(member_block)
        if admission is not None and not deferred:
            for member_block in blocks:
                admission.charge(from_node, member_block)
        if store is not None and blocks:
            entries = store.journal_post_batch(
                [(b, "thread", None) for b in blocks])
            if deferred:
                for entry in entries:
                    store.defer(entry.entry_id)
                return len(members)
        post = self.post.post_thread
        for tid, member_block in zip(members, blocks):
            post(from_node, tid, member_block)
        return len(members)

    def requeue(self, node: int, dead: Any) -> EventBlock:
        """Re-post a dead letter as a fresh asynchronous block.

        Fresh identity on purpose: the original block id / durable id
        already sits in dedup windows and applied sets cluster-wide, so
        reusing them would get the retry silently swallowed.
        """
        old = dead.block
        fresh = EventBlock(old.event, None, node, old.target, False,
                           old.user_data, self.sim.now)
        self.events.supervisor.counters["requeued"] += 1
        if "supervise" not in self.tracer.muted:
            self.tracer.emit("supervise", "requeue", event=old.event,
                             node=node, dl_id=dead.dl_id)
        self.route(fresh)
        return fresh
