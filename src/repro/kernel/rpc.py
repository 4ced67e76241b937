"""Request/reply engine between node kernels.

Kernel subsystems (locators, the DSM protocol, TCB cleanup, …) talk to
their peers on other nodes with a classic correlated request/reply
exchange on top of the fabric. ``request()`` returns a
:class:`~repro.sim.primitives.SimFuture` resolved with the peer's answer;
services are plain callables registered per service name and may answer
immediately or asynchronously by returning a future themselves.

Robustness: every call records its destination, so a node crash can fail
the calls targeting it immediately (:meth:`RpcEngine.fail_calls_to`)
instead of leaking parked futures. Calls without an explicit timeout
inherit ``config.rpc_default_timeout``. A request is sent once: lost
messages are the reliable channel's to retransmit
(``reliable_delivery``), and a duplicate or post-timeout reply finds no
outstanding call and is ignored.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.errors import RpcError, RpcTimeout
from repro.net.message import Message
from repro.sim.primitives import SimFuture

MSG_REQUEST = "rpc.request"
MSG_REPLY = "rpc.reply"

ServiceFn = Callable[[Any, Message], Any]


class SizedReply:
    """Wrap a service result to control the reply message's wire size.

    Used by bulk services (DSM page grants) so bandwidth-aware latency
    models charge for the payload, not a 64-byte control message.
    """

    __slots__ = ("value", "size")

    def __init__(self, value: Any, size: int) -> None:
        self.value = value
        self.size = int(size)


class _Call:
    """Sender-side record of one outstanding request."""

    __slots__ = ("fut", "dst", "service", "timeout")

    def __init__(self, fut: SimFuture[Any], dst: int, service: str,
                 timeout: float | None) -> None:
        self.fut = fut
        self.dst = dst
        self.service = service
        self.timeout = timeout


class RpcEngine:
    """Per-node request/reply endpoint.

    One engine lives in each kernel and sends through the kernel's
    (possibly reliable) transmit path. The engine owns the two message
    types above — the kernel routes them here.
    """

    def __init__(self, kernel: Any) -> None:
        self.sim = kernel.sim
        self.node_id = kernel.node_id
        self.kernel = kernel
        self._services: dict[str, ServiceFn] = {}
        self._outstanding: dict[int, _Call] = {}
        self._call_ids = itertools.count(1)
        self.timeouts = 0
        self.failed_by_crash = 0

    def serve(self, service: str, fn: ServiceFn) -> None:
        """Register the handler for ``service`` on this node."""
        if service in self._services:
            raise RpcError(f"service {service!r} already registered "
                           f"on node {self.node_id}")
        self._services[service] = fn

    @property
    def outstanding(self) -> int:
        """Number of calls still awaiting a reply (leak diagnostics)."""
        return len(self._outstanding)

    def request(self, dst: int, service: str, payload: Any = None,
                size: int = 64,
                timeout: float | None = None) -> SimFuture[Any]:
        """Send a request; the returned future resolves with the reply.

        A service exception on the peer fails the future with that
        exception. ``timeout`` (virtual seconds) fails it with
        :class:`RpcTimeout` — used by locators to detect dead threads.
        When omitted, ``config.rpc_default_timeout`` applies.
        """
        if timeout is None:
            timeout = self.kernel.config.rpc_default_timeout
        call_id = next(self._call_ids)
        fut: SimFuture[Any] = SimFuture(self.sim)
        self._outstanding[call_id] = _Call(fut, dst, service, timeout)
        self.kernel.transmit(Message(
            self.node_id, dst, MSG_REQUEST,
            {"call_id": call_id, "service": service, "payload": payload,
             "reply_to": self.node_id}, size))
        if timeout is not None:
            self.sim.call_after(timeout, self._expire, call_id)
        return fut

    def _expire(self, call_id: int) -> None:
        call = self._outstanding.pop(call_id, None)
        if call is None:
            return  # answered or failed meanwhile
        self.timeouts += 1
        if not call.fut.done:
            call.fut.fail(RpcTimeout(
                f"{call.service} to node {call.dst} timed out "
                f"after {call.timeout}s"))

    # ------------------------------------------------------------------
    # crash handling
    # ------------------------------------------------------------------

    def fail_calls_to(self, dst: int, error: BaseException) -> int:
        """Fail every outstanding call targeting ``dst`` (it crashed)."""
        doomed = [cid for cid, call in self._outstanding.items()
                  if call.dst == dst]
        for cid in doomed:
            call = self._outstanding.pop(cid)
            self.failed_by_crash += 1
            if not call.fut.done:
                call.fut.fail(error)
        return len(doomed)

    def fail_all(self, error: BaseException) -> int:
        """Fail every outstanding call (this node crashed)."""
        doomed = list(self._outstanding.values())
        self._outstanding.clear()
        for call in doomed:
            self.failed_by_crash += 1
            if not call.fut.done:
                call.fut.fail(error)
        return len(doomed)

    # ------------------------------------------------------------------
    # message entry points (wired by the kernel's dispatch table)
    # ------------------------------------------------------------------

    def on_request(self, message: Message) -> None:
        body = message.payload
        service = body["service"]
        fn = self._services.get(service)
        if fn is None:
            self._reply(body, error=RpcError(
                f"node {self.node_id} has no service {service!r}"))
            return
        try:
            result = fn(body["payload"], message)
        except BaseException as exc:  # noqa: BLE001 - shipped to caller
            self._reply(body, error=exc)
            return
        if isinstance(result, SimFuture):
            result.add_done_callback(
                lambda fut: self._reply_from_future(body, fut))
        else:
            self._reply(body, result)

    def _reply_from_future(self, body: dict, fut: SimFuture[Any]) -> None:
        try:
            result = fut.result()
        except BaseException as exc:  # noqa: BLE001
            self._reply(body, error=exc)
            return
        self._reply(body, result)

    def _reply(self, body: dict, result: Any = None,
               error: BaseException | None = None) -> None:
        """Answer with ``result``, or with ``error`` (which crosses a
        wire as the codec's error shape) when the service failed."""
        size = 64
        if isinstance(result, SizedReply):
            size = result.size
            result = result.value
        outcome = ({"result": result} if error is None
                   else {"error": error})
        self.kernel.transmit(Message(
            self.node_id, body["reply_to"], MSG_REPLY,
            {"call_id": body["call_id"], **outcome}, size))

    def on_reply(self, message: Message) -> None:
        body = message.payload
        call = self._outstanding.pop(body["call_id"], None)
        if call is None or call.fut.done:
            return  # duplicate or post-timeout reply
        error = body.get("error")
        if error is not None:
            call.fut.fail(error)
        else:
            call.fut.resolve(body["result"])
