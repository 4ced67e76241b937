"""A cluster node's kernel.

The :class:`Kernel` is a thin composition shell: it owns the node-local
services (RPC endpoint, timer service, thread table) and a message
dispatch table. Higher layers — the object manager, the invocation
engine, the event manager, the DSM manager — are attached by the cluster
builder (:mod:`repro.kernel.boot`) and register their message types here.
This keeps the kernel package free of upward imports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import KernelError, NodeCrashedError
from repro.events.supervise import DeadLetterQueue
from repro.kernel.membership import (
    MSG_SWIM_ACK,
    MSG_SWIM_GOSSIP,
    MSG_SWIM_PING,
    MSG_SWIM_PING_REQ,
    Membership,
)
from repro.kernel.rpc import MSG_REPLY, MSG_REQUEST, RpcEngine
from repro.kernel.tcb import ThreadTable
from repro.kernel.timers import TimerService
from repro.net.message import Message
from repro.net.reliable import MSG_REL_ACK, ReliableChannel
from repro.store.manager import MSG_STORE_ACK, NodeStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.boot import Cluster


class Kernel:
    """Per-node kernel: local services plus a message dispatch table."""

    def __init__(self, cluster: "Cluster", node_id: int) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.sim = cluster.sim
        self.fabric = cluster.fabric
        self.config = cluster.config
        self.tracer = cluster.tracer
        self.rpc = RpcEngine(self)
        self.reliable = ReliableChannel(
            cluster.sim, cluster.fabric, node_id,
            rto_base=cluster.config.retransmit_base,
            max_retransmits=cluster.config.max_retransmits,
            dedup_window=cluster.config.dedup_window,
            ack_delay=cluster.config.ack_delay,
            flow_credits=cluster.config.flow_credits)
        self.crashed = False
        self._arm_transmit()
        self.timers = TimerService(cluster.sim, node_id)
        self.thread_table = ThreadTable(node_id)
        # The journal lives in the *cluster* store: it is the simulated
        # durable medium, so crash() must not be able to touch it.
        self.store = NodeStore(self, cluster.store.journal(node_id))
        self.membership = Membership(self)
        self.dead_letters = DeadLetterQueue(self)
        # Attached by the cluster builder:
        self.objects: Any = None   # repro.objects.manager.ObjectManager
        self.invoker: Any = None   # repro.objects.invocation.InvocationEngine
        self.events: Any = None    # repro.events.delivery.EventManager
        self.dsm: Any = None       # repro.dsm.manager.DsmManager
        self.id_allocator: Any = None  # repro.threads.ids.IdAllocator
        self._dispatch: dict[str, Callable[[Message], None]] = {
            MSG_REQUEST: self.rpc.on_request,
            MSG_REPLY: self.rpc.on_reply,
            MSG_REL_ACK: self.reliable.on_ack,
            MSG_STORE_ACK: self.store.on_store_ack,
            MSG_SWIM_PING: self.membership.on_ping,
            MSG_SWIM_ACK: self.membership.on_ack,
            MSG_SWIM_PING_REQ: self.membership.on_ping_req,
            MSG_SWIM_GOSSIP: self.membership.on_gossip_msg,
        }
        cluster.fabric.attach(node_id, self.deliver)

    def __repr__(self) -> str:  # pragma: no cover - diagnostic only
        return f"<Kernel node={self.node_id}>"

    def register_message_handler(self, mtype: str,
                                 fn: Callable[[Message], None]) -> None:
        """Route messages of ``mtype`` arriving at this node to ``fn``."""
        if mtype in self._dispatch:
            raise KernelError(
                f"node {self.node_id}: message type {mtype!r} already handled")
        self._dispatch[mtype] = fn

    def deliver(self, message: Message) -> None:
        """Fabric delivery callback: dispatch by message type."""
        if message.gossip is not None:
            # Piggybacked membership updates: merge before dispatch (and
            # before rel dedup — a duplicate envelope's gossip is fresh
            # information, and incarnation ordering makes it idempotent).
            self.membership.on_gossip(message.gossip, message.src)
        if message.ack is not None:
            # Piggybacked cumulative ack: settle it before dispatch so a
            # handler's own sends see up-to-date pending state.
            self.reliable.on_cum_ack(message.src, message.ack)
        if message.rel is not None and message.mtype != MSG_REL_ACK:
            if not self.reliable.accept(message):
                return  # duplicate of an already-dispatched message
        fn = self._dispatch.get(message.mtype)
        if fn is None:
            raise KernelError(
                f"node {self.node_id} received unroutable message "
                f"type {message.mtype!r}")
        fn(message)

    def send(self, dst: int, mtype: str, payload: Any = None,
             size: int = 64) -> None:
        """Fire-and-forget message to another node."""
        self.fabric.send(Message(self.node_id, dst, mtype, payload, size))

    def transmit(self, message: Message,
                 on_give_up: Callable[[Message], None] | None = None) -> None:
        """Send through the reliable channel when enabled.

        With ``reliable_delivery`` off this is exactly ``fabric.send``
        (the seed's fire-and-forget semantics, bit-identical traffic).
        With it on, point-to-point remote messages are retransmitted
        until acked; ``on_give_up`` fires if the budget runs out. A
        crashed kernel sends nothing.

        A live kernel's ``transmit`` is the sender itself, bound on the
        instance by :meth:`_arm_transmit` (at construction and recovery),
        so a send pays no relay frame; :meth:`crash` unbinds it, and this
        method, which sends nothing, is what is left.
        """

    def _arm_transmit(self) -> None:
        """Bind ``transmit`` to the live sender: the reliable channel's
        ``send``, or the fabric's (one datagram, no give-up)."""
        self.transmit = (self.reliable.send if self.config.reliable_delivery
                         else self.fabric.send)

    def transmit_unreliable(self, message: Message) -> None:
        """Fire-and-forget send that bypasses the reliable channel.

        Used by the admission gate's ``degrade`` policy: a shed
        idempotent post is downgraded from retransmit-until-acked to a
        single fabric datagram, so overload sheds retransmit pressure
        instead of amplifying it. A crashed kernel sends nothing.
        """
        if self.crashed:
            return
        self.fabric.send(message)

    # ------------------------------------------------------------------
    # crash / recovery (crash-stop model; objects are persistent,
    # threads and kernel tables are volatile — Clouds semantics)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this node: drop off the fabric, lose volatile state.

        Resident threads die; survivors' RPC calls targeting this node
        fail fast; §7.2-style dead-target notices reach raisers whose
        events were queued on the dead threads. Objects homed here keep
        their state (Clouds objects are passive and persistent) and
        become reachable again after :meth:`recover`.
        """
        if self.crashed:
            return
        self.crashed = True
        del self.transmit  # the class's: a crashed kernel sends nothing
        self.fabric.detach(self.node_id)
        if "kernel" not in self.tracer.muted:
            self.tracer.emit("kernel", "crash", node=self.node_id)
        # Kill every thread with a frame here (or rooted here while not
        # yet executing anywhere). Copy: destruction mutates the dict.
        victims = []
        for thread in list(self.cluster.live_threads.values()):
            if any(frame.node == self.node_id for frame in thread.frames):
                victims.append(thread)
            elif not thread.frames and thread.tid.root == self.node_id:
                victims.append(thread)
        error = NodeCrashedError(f"node {self.node_id} crashed")
        for thread in victims:
            self.cluster.invoker.destroy_thread_abrupt(thread, error)
        # Volatile kernel state is gone, §7.1 location state included.
        self.cluster.events.locator.node_crashed(self.node_id)
        self.thread_table.clear()
        self.timers.cancel_all()
        self.reliable.reset()
        self.objects.on_crash()
        self.store.on_crash()
        self.membership.on_crash()
        self.dead_letters.on_crash()
        self.rpc.fail_all(error)
        # Survivors observe the crash (fail-fast for calls in flight).
        for kernel in self.cluster.kernels.values():
            if kernel is not self:
                kernel.rpc.fail_calls_to(self.node_id, error)

    def recover(self) -> None:
        """Rejoin the fabric after a crash.

        Without durability the volatile state comes back empty (the PR 2
        semantics). With ``durable_delivery`` the journal is replayed
        first — outbox, applied set, handler registry, checkpointed
        objects — and once the charged replay time has elapsed the store
        re-dispatches pending posts and announces the recovery so peers
        flush posts addressed here.
        """
        if not self.crashed:
            return
        replayed, replay_time = self.store.recover()
        self.crashed = False
        self._arm_transmit()
        self.fabric.attach(self.node_id, self.deliver)
        if "kernel" not in self.tracer.muted:
            self.tracer.emit("kernel", "recover", node=self.node_id,
                             replayed=replayed)
        if self.config.durable_delivery:
            self.store.schedule_redelivery(replay_time)
        self.membership.rejoin()
