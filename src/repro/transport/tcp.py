"""Real TCP transport: loopback sockets, length-prefixed frames.

The proof that nothing above the port secretly depends on the
simulator: ``ClusterConfig(transport="tcp")`` runs the *stock*
kernel/event/reliable/durable/supervision stack over actual sockets
with wall-clock timers.  One asyncio loop (owned by the cluster's
:class:`~repro.transport.realtime.RealtimeScheduler`) hosts one
listening socket per node; a message posted to node ``d`` rides a real
TCP connection to ``d``'s server and re-enters the fabric's delivery
hook on arrival.

Wire format — length-prefixed frames::

    4-byte big-endian frame length (at most MAX_FRAME)
    1-byte format:     0 (the only one; 1 and 2 are retired)
    uvarint dst node
    body:              codec-encoded Message (codec VERSION 4)

A frame is appended to its connection's outgoing buffer, and the frames
a scheduler turn produces for a connection leave in a single ``write``
when the turn ends; the receiver walks whatever one ``recv`` carried
with a moving offset and hands every decoded message to the scheduler,
so delivery stays a scheduler callback (order and the idle hook depend
on it); a frame that one recv ends in the middle of grows in one buffer
until it is whole.  A frame that is too long, names no known format,
does not decode or arrives on a connection this cluster did not dial
(a stranger's, however well formed) is *rejected*: counted in
``frames_rejected`` and raised as a :class:`~repro.errors.NetworkError`
from the scheduler's ``run()`` — never swallowed by asyncio's exception
handler, and never delivered, so ``in_flight`` counts exactly the
frames this cluster posted.  An over-long frame also costs its
connection, whose stream cannot be re-synchronised.

Envelopes travel through the compact wire codec
(:mod:`repro.transport.codec` — the same format the sharded backend
batches over its pipes), a real serialization boundary: the receiver
gets a deep copy, and a payload the codec has no shape for is refused
at the sender like a frame that is too long.  All nodes still live in
one process, for one reason: a thread's continuation is a Python
generator and never leaves the process, so invocation messages name it
(``tid``); events — the paper's subject — cross as bytes.

Known limits, stated plainly: wall-clock runs are not seed
reproducible (use the sim backends for determinism), and fault
injection that depends on virtual time (``FaultPlan`` windows) ticks
in real seconds here.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any

from repro.errors import NetworkError
from repro.transport import codec
from repro.transport.base import Transport
from repro.transport.codec import _append_uvarint, _read_uvarint
from repro.transport.realtime import RealtimeScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

    from repro.net.message import Message

#: frame length prefix: 4-byte unsigned big-endian
_LEN = struct.Struct(">I")

#: longest frame (format byte + dst + body) either side accepts; a
#: length prefix beyond it is garbage, not something worth buffering for
MAX_FRAME = 1 << 24

#: frame body format (first byte after the length prefix); 1 and 2 are
#: retired, not reusable: they are rejected like any unknown byte
_FMT_CODEC = 0


def _raise(error: BaseException) -> None:
    raise error


class _FrameReceiver:
    """asyncio.Protocol reassembling length-prefixed frames.

    A recv's frames are walked in place; the incomplete frame it ends in
    grows in one ``bytearray`` until a later recv completes it, and is
    then walked as one ``bytes``: a frame split over k segments is
    copied a bounded number of times, not k.
    """

    def __init__(self, owner: "AsyncioTransport") -> None:
        self._owner = owner
        self._buf = bytearray()  # the incomplete frame a recv ended in
        #: the bytes ``_buf`` must hold before a walk can take a frame
        self._need = _LEN.size
        #: did this cluster dial the connection?  Asked of the owner at
        #: the first frame (every own connection exists by then)
        self.own: bool | None = None

    # asyncio.Protocol interface (duck-typed; BaseProtocol methods that
    # we do not need are omitted and asyncio tolerates that only on
    # subclasses, so provide the full minimal set explicitly)
    def connection_made(self, transport: Any) -> None:
        self._transport = transport

    def connection_lost(self, exc: Exception | None) -> None:
        if self._buf:  # the peer went away mid-frame
            self._owner._frames_rejected += 1

    def pause_writing(self) -> None:  # pragma: no cover - backpressure
        pass

    def resume_writing(self) -> None:  # pragma: no cover - backpressure
        pass

    def eof_received(self) -> bool:
        return False

    def data_received(self, data: bytes) -> None:
        buf = self._buf
        if buf:
            buf += data
            if len(buf) < self._need:
                return  # still incomplete: nothing to walk
            data = bytes(buf)
            buf.clear()
        pos = 0
        size = len(data)
        self._need = _LEN.size
        while size - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(data, pos)
            if length > MAX_FRAME:
                self._owner._reject(self, NetworkError(
                    f"tcp frame of {length} bytes exceeds MAX_FRAME"))
                self._transport.close()
                return
            start = pos + _LEN.size
            end = start + length
            if end > size:
                self._need = end - pos
                break
            self._owner._on_frame(self, data, start, end)
            pos = end
        if pos < size:
            buf += memoryview(data)[pos:]


class AsyncioTransport(Transport):
    """TCP loopback transport on an asyncio loop.

    Parameters
    ----------
    host:
        Interface to bind per-node servers on (default loopback).
    base_port:
        ``0`` (default) binds ephemeral ports and records the actual
        address per node; a non-zero base gives node ``i`` port
        ``base_port + i``.
    poll:
        Run-loop exit poll period handed to the scheduler.
    """

    BACKEND = "tcp"

    def __init__(self, host: str = "127.0.0.1", base_port: int = 0,
                 poll: float = 0.005) -> None:
        super().__init__()
        self.scheduler = RealtimeScheduler(poll=poll)
        self.scheduler.add_idle_hook(lambda: self._in_flight == 0)
        self._host = host
        self._base_port = base_port
        self._servers: dict[int, "asyncio.AbstractServer"] = {}
        #: node -> (host, port) actually bound
        self.addresses: dict[int, tuple[str, int]] = {}
        #: node -> client connection (one per destination)
        self._conns: dict[int, Any] = {}
        #: dst -> frames of the current turn, written when it ends
        self._outgoing: dict[int, bytearray] = {}
        self._in_flight = 0
        self._posted = 0
        self._frames_sent = 0
        self._frames_received = 0
        self._frames_rejected = 0
        self._bytes_sent = 0
        self._started = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Bind one server per attached node, then dial each of them."""
        if self._started:
            return
        loop = self.scheduler.loop

        async def bring_up() -> None:
            for node in sorted(self._endpoints):
                port = (0 if self._base_port == 0
                        else self._base_port + node)
                server = await loop.create_server(
                    lambda: _FrameReceiver(self), self._host, port)
                self._servers[node] = server
                sockname = server.sockets[0].getsockname()
                self.addresses[node] = (sockname[0], sockname[1])
            for node in sorted(self._endpoints):
                host, port = self.addresses[node]
                conn, _protocol = await loop.create_connection(
                    lambda: _FrameReceiver(self), host, port)
                self._conns[node] = conn

        loop.run_until_complete(bring_up())
        self._started = True

    def close(self) -> None:
        if self.scheduler._closed:
            return
        loop = self.scheduler.loop
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()

        async def shut_down() -> None:
            for server in self._servers.values():
                server.close()
                await server.wait_closed()

        loop.run_until_complete(shut_down())
        self._servers.clear()
        self.scheduler.close()

    # -- timed movement -------------------------------------------------

    def post(self, message: "Message", dst: int, delay: float) -> None:
        self._posted += 1
        self._in_flight += 1
        self.scheduler.call_after(delay, self._transmit, message, dst)

    def _transmit(self, message: "Message", dst: int) -> None:
        conn = self._conns.get(dst)
        if conn is None or conn.is_closing():
            # The wire to a gone destination swallows the frame, like a
            # crashed machine's NIC; local crash semantics are handled
            # above the port by the fabric/kernel.
            self._in_flight -= 1
            return
        head = bytearray((_FMT_CODEC,))
        _append_uvarint(head, dst)
        try:
            body = codec.encode_message(message)
            length = len(head) + len(body)
            if length > MAX_FRAME:
                raise NetworkError(
                    f"tcp frame of {length} bytes exceeds MAX_FRAME")
        except Exception:  # nothing leaves; run() raises it, no hang
            self._in_flight -= 1
            raise
        out = self._outgoing.get(dst)
        if out is None:
            if not self._outgoing:
                self.scheduler.loop.call_soon(self._flush)
            out = self._outgoing[dst] = bytearray()
        out += _LEN.pack(length)
        out += head
        out += body
        self._frames_sent += 1
        self._bytes_sent += _LEN.size + length

    def _flush(self) -> None:
        """One ``write`` per connection for everything a turn framed.
        The buffer is handed over (asyncio may keep a view of it)."""
        outgoing, self._outgoing = self._outgoing, {}
        for dst, out in outgoing.items():
            conn = self._conns.get(dst)
            if conn is not None:  # else close() beat the flush
                conn.write(out)

    # -- receive path ---------------------------------------------------

    def _on_frame(self, source: _FrameReceiver, data: bytes, start: int,
                  end: int) -> None:
        try:
            fmt = data[start]
            dst, pos = _read_uvarint(data, start + 1)
            body = data[pos:end]
            if fmt != _FMT_CODEC:
                raise NetworkError(f"unknown tcp frame format {fmt}")
            message = codec.decode_message(body)
            if not self._dialed_here(source):
                raise NetworkError(
                    "tcp frame from a connection this cluster did not "
                    f"dial ({source._transport.get_extra_info('peername')})")
        except Exception as exc:  # noqa: BLE001 - hostile bytes, any failure
            if not isinstance(exc, NetworkError):
                exc = NetworkError(f"undecodable tcp frame: {exc!r}")
            self._reject(source, exc)
            return
        self._frames_received += 1
        # hop back onto the scheduler so delivery order/stats match the
        # timer path and the idle hook sees the decrement
        self.scheduler.call_soon(self._deliver, message, dst)

    def _deliver(self, message: "Message", dst: int) -> None:
        try:
            if self._hook is None:  # pragma: no cover - wiring guard
                raise NetworkError("no delivery hook installed")
            self._hook(message, dst)
        finally:
            self._in_flight -= 1

    def _dialed_here(self, source: _FrameReceiver) -> bool:
        """Is ``source`` the far end of one of this cluster's own
        connections?  Only a frame such a connection carries was counted
        in flight, so only such a frame is delivered (DESIGN.md §6)."""
        own = source.own
        if own is None:
            peer = source._transport.get_extra_info("peername")
            own = source.own = any(conn.get_extra_info("sockname") == peer
                                   for conn in self._conns.values())
        return own

    def _reject(self, source: _FrameReceiver, error: NetworkError) -> None:
        """A frame arrived that cannot be delivered: raise ``error``
        from the scheduler's ``run()``, and settle ``in_flight`` for a
        frame one of this cluster's own connections carried."""
        self._frames_rejected += 1
        if self._dialed_here(source):
            self._in_flight -= 1
        self.scheduler.call_soon(_raise, error)

    # -- stats ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        data = super().stats()
        data.update(
            posted=self._posted,
            frames_sent=self._frames_sent,
            frames_received=self._frames_received,
            frames_rejected=self._frames_rejected,
            bytes_sent=self._bytes_sent,
            in_flight=self._in_flight,
        )
        return data
