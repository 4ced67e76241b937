"""Compact wire codec for cross-process message envelopes.

Every envelope the sharded backend batches over its pipes and the TCP
backend frames onto a socket goes through this module: a struct-packed
envelope, plain scalars and containers, and a **shape registry** for
the kernel values that cross the wire (capabilities, thread and group
ids, event blocks, thread snapshots, exceptions).  That is the whole
contract: names and registered shapes only.  A value of any other type
— a subclass of a shape included, since its extra state would be
dropped — is refused at *encode* with a :class:`CodecError` naming the
message type and the Python type, and nothing a peer sends is ever
executed or imported: an exception crosses as its class *name* plus
codec-valued args, looked up in two fixed namespaces (``repro.errors``
and the builtin exceptions); a name from anywhere else arrives as
``RpcError("<qualname>: <message>")``.

Determinism contract (what lets the sharded backend run on this codec):
decoding reconstructs objects with ``__new__`` + attribute assignment,
so the receiving process's module-level id counters (the one behind
``EventBlock.block_id``) are **not** advanced and every id — the
fabric-assigned ``Message.msg_id`` too — survives the hop verbatim.

Wire format, all integers as zigzag varints and floats as IEEE-754
doubles (bit-exact — virtual timestamps must survive the hop)::

    message   := VERSION flags src dst mtype payload size msg_id
                 [rel_node rel_seq] [ack] [gossip]
    batch     := VERSION count { deliver_at seq dst message }*
    value     := tag <tag-specific body>

Unknown version bytes or value tags raise :class:`CodecError` (a
:class:`~repro.errors.NetworkError`), so a frame from a different codec
revision fails loudly instead of mis-decoding.
"""

from __future__ import annotations

import builtins
import struct
from typing import Any

from repro import errors
from repro.errors import NetworkError, RpcError

__all__ = [
    "CodecError", "encode_message", "decode_message",
    "encode_batch", "decode_batch",
]

#: bump on any incompatible wire-format change (2: value tag 16, the
#: per-value fallback to a general serializer, is retired)
VERSION = 2

_DOUBLE = struct.Struct(">d")


class CodecError(NetworkError):
    """A frame could not be encoded/decoded by this codec revision."""


# ----------------------------------------------------------------------
# varints (zigzag so negative ids — e.g. the -1 reply src — stay small)
# ----------------------------------------------------------------------

def _append_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _append_varint(out: bytearray, value: int) -> None:
    # zigzag works for arbitrary-precision ints: no 64-bit clamp
    value = (value << 1) if value >= 0 else ((-value << 1) - 1)
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


# Readers index past a truncated buffer's end freely: the IndexError
# becomes a CodecError in _decoding, once per frame instead of per byte.

def _read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    byte = buf[pos]
    if byte < 0x80:  # nearly every id, tag and length is one byte
        return byte, pos + 1
    result = byte & 0x7F
    shift = 7
    while True:
        pos += 1
        byte = buf[pos]
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos + 1
        shift += 7


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    raw = buf[pos]
    if raw < 0x80:
        return (raw >> 1) ^ -(raw & 1), pos + 1
    raw, pos = _read_uvarint(buf, pos)
    return (raw >> 1) ^ -(raw & 1), pos


# ----------------------------------------------------------------------
# value encoding
# ----------------------------------------------------------------------

_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_TUPLE = 7
_T_LIST = 8
_T_DICT = 9
_T_CAPABILITY = 10
_T_THREAD_ID = 11
_T_GROUP_ID = 12
_T_FRAME_INFO = 13
_T_SNAPSHOT = 14
_T_EVENT_BLOCK = 15
_T_RETIRED = 16  # positional like the mtype tags: kept, and rejected
_T_ERROR = 17

#: message types observed on the fabric, in registry order — the wire
#: carries ``index + 1`` (0 = inline string follows). Append only;
#: reordering is a VERSION bump. ``fd.beat`` (the retired heartbeat) is
#: a reserved slot: tags are positional, so it keeps every later tag.
MTYPE_REGISTRY = (
    "event.post-object", "event.resume", "rel.ack", "store.ack",
    "rpc.request", "rpc.reply", "invoke.request", "invoke.reply",
    "locate.bcast", "locate.bcast-reply", "locate.path",
    "locate.mcast", "locate.mcast-reply", "locate.cached",
    "thread.complete", "thread.unwind", "fd.beat",
    "dsm.installed", "dsm.inval", "dsm.page", "dsm.yield",
    "swim.ping", "swim.ack", "swim.ping-req", "swim.gossip",
    "degrade.done",
)
_MTYPE_TAG = {name: i + 1 for i, name in enumerate(MTYPE_REGISTRY)}


def _append_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _append_uvarint(out, len(raw))
    out += raw


def _read_str(buf: bytes, pos: int) -> tuple[str, int]:
    length = buf[pos]
    if length < 0x80:
        pos += 1
    else:
        length, pos = _read_uvarint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise CodecError("truncated string")
    return buf[pos:end].decode("utf-8"), end


def _read_raw(buf: bytes, pos: int) -> tuple[bytes, int]:
    length, pos = _read_uvarint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise CodecError("truncated bytes")
    return buf[pos:end], end


def _append_value(out: bytearray, value: Any) -> None:
    """Dispatch on ``type(value)``, never isinstance: a subclass may
    carry extra state a shape encoding would drop, so subclasses (and
    every unregistered type) are refused rather than truncated."""
    _WRITERS.get(type(value), _append_other)(out, value)


def _append_bool(out: bytearray, value: bool) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _append_int(out: bytearray, value: int) -> None:
    out.append(_T_INT)
    if 0 <= value < 0x40:
        out.append(value << 1)
    else:
        _append_varint(out, value)


def _append_float(out: bytearray, value: float) -> None:
    out.append(_T_FLOAT)
    out += _DOUBLE.pack(value)


def _append_text(out: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    out.append(_T_STR)
    _append_uvarint(out, len(raw))
    out += raw


def _append_bytes(out: bytearray, value: bytes, tag: int = _T_BYTES) -> None:
    out.append(tag)
    _append_uvarint(out, len(value))
    out += value


def _append_items(out: bytearray, value: Any) -> None:
    out.append(_T_TUPLE if type(value) is tuple else _T_LIST)
    _append_uvarint(out, len(value))
    for item in value:
        _WRITERS.get(type(item), _append_other)(out, item)


def _append_dict(out: bytearray, value: dict) -> None:
    out.append(_T_DICT)
    _append_uvarint(out, len(value))
    for key, item in value.items():
        _WRITERS.get(type(key), _append_other)(out, key)
        _WRITERS.get(type(item), _append_other)(out, item)


#: the classes an error frame may name: never an import, so a peer's
#: bytes choose among these and nothing else
_ERROR_CLASSES = {
    name: cls for namespace in (builtins, errors)
    for name, cls in vars(namespace).items()
    if isinstance(cls, type) and issubclass(cls, Exception)}


def _append_other(out: bytearray, value: Any) -> None:
    """No writer is registered for ``type(value)``: an exception travels
    as the error shape, anything else does not travel."""
    cls = type(value)
    if not isinstance(value, BaseException):
        raise CodecError(f"no wire shape for a value of type "
                         f"{cls.__module__}.{cls.__qualname__}")
    out.append(_T_ERROR)
    if _ERROR_CLASSES.get(cls.__name__) is cls:
        mark = len(out)
        try:
            _append_str(out, cls.__name__)
            _append_items(out, value.args)
            return
        except CodecError:  # an arg with no shape: send the message only
            del out[mark:]
    _append_str(out, cls.__qualname__)
    _append_items(out, (str(value),))


#: ``type(value)`` -> writer; the shape classes join in _register_shapes
_WRITERS: dict[type, Any] = {
    type(None): lambda out, value: out.append(_T_NONE),
    bool: _append_bool, int: _append_int, float: _append_float,
    str: _append_text, bytes: _append_bytes, tuple: _append_items,
    list: _append_items, dict: _append_dict,
}


def _read_value(buf: bytes, pos: int) -> tuple[Any, int]:
    tag = buf[pos]
    if tag <= _T_FALSE:
        return _SINGLETONS[tag], pos + 1
    if tag > _T_ERROR:
        raise CodecError(f"unknown value tag {tag} (codec version {VERSION})")
    return _READERS[tag](buf, pos + 1)


def _read_float(buf: bytes, pos: int) -> tuple[float, int]:
    end = pos + _DOUBLE.size
    if end > len(buf):
        raise CodecError("truncated float")
    return _DOUBLE.unpack_from(buf, pos)[0], end


def _read_list(buf: bytes, pos: int) -> tuple[list, int]:
    count, pos = _read_uvarint(buf, pos)
    items = []
    for _ in range(count):
        item, pos = _read_value(buf, pos)
        items.append(item)
    return items, pos


def _read_tuple(buf: bytes, pos: int) -> tuple[tuple, int]:
    items, pos = _read_list(buf, pos)
    return tuple(items), pos


def _read_dict(buf: bytes, pos: int) -> tuple[dict, int]:
    count, pos = _read_uvarint(buf, pos)
    data = {}
    for _ in range(count):
        key, pos = _read_value(buf, pos)
        data[key], pos = _read_value(buf, pos)
    return data, pos


def _read_retired(buf: bytes, pos: int) -> tuple[Any, int]:
    raise CodecError(f"unknown value tag {_T_RETIRED} (retired in "
                     f"codec version 2; this build speaks {VERSION})")


def _read_error(buf: bytes, pos: int) -> tuple[BaseException, int]:
    name, pos = _read_str(buf, pos)
    args, pos = _read_value(buf, pos)
    cls = _ERROR_CLASSES.get(name)
    if cls is None:
        return RpcError(f"{name}: {', '.join(map(str, args))}"), pos
    return cls(*args), pos


_SINGLETONS = (None, True, False)
#: value tag -> reader, in ``_T_*`` order: the singletons have none, the
#: shapes get theirs in _register_shapes
_READERS = [None, None, None, _read_varint, _read_float, _read_str,
            _read_raw, _read_tuple, _read_list, _read_dict,
            None, None, None, None, None, None, _read_retired, _read_error]

_Message: Any = None  # resolved, with the shape classes, on first use


def _register_shapes() -> None:
    """Resolve ``Message`` and the registry of common payload shapes,
    once per process and on first use (importing them with this module
    would pull the event and thread layers into every process that only
    frames bytes).  A dataclass shape is a tag, a class and a field plan
    run by one generic writer and reader; EventBlock has its own pair."""
    global _Message
    from operator import attrgetter

    from repro.events.block import EventBlock, FrameInfo, ThreadSnapshot
    from repro.net.message import Message
    from repro.objects.capability import Capability
    from repro.threads.ids import GroupId, ThreadId
    i = (_append_varint, _read_varint)
    s = (_append_str, _read_str)
    v = (_append_value, _read_value)
    for tag, cls, plan in (
            (_T_CAPABILITY, Capability,
             (("oid", i), ("home", i), ("transport", s), ("cls_name", s))),
            (_T_THREAD_ID, ThreadId, (("root", i), ("seq", i))),
            (_T_GROUP_ID, GroupId, (("root", i), ("seq", i))),
            (_T_FRAME_INFO, FrameInfo,
             (("oid", i), ("entry", s), ("node", i), ("steps", i))),
            (_T_SNAPSHOT, ThreadSnapshot,
             (("tid", v), ("state", s), ("node", v), ("frames", v)))):
        _WRITERS[cls] = _shape_writer(
            tag, attrgetter(*(name for name, _ in plan)),
            [append for _, (append, _) in plan])
        _READERS[tag] = _shape_reader(cls, [read for _, (_, read) in plan])
    _WRITERS[EventBlock], _READERS[_T_EVENT_BLOCK] = _block_codec(
        EventBlock, attrgetter(*EventBlock.__slots__))
    _Message = Message


def _shape_writer(tag: int, fields: Any, appends: list) -> Any:
    def write(out: bytearray, value: Any) -> None:
        out.append(tag)
        for append, item in zip(appends, fields(value)):
            append(out, item)
    return write


def _shape_reader(cls: type, reads: list) -> Any:
    def read(buf: bytes, pos: int) -> tuple[Any, int]:
        values = []
        for read_field in reads:
            value, pos = read_field(buf, pos)
            values.append(value)
        return cls(*values), pos  # field order = plan order
    return read


def _block_codec(cls: type, slot_values: Any) -> tuple[Any, Any]:
    """The one shape on every post: each slot is a value, dispatched
    here without a call in between, and most slots hold a singleton."""
    def write(out: bytearray, block: Any) -> None:
        out.append(_T_EVENT_BLOCK)
        for item in slot_values(block):
            if item is None:
                out.append(_T_NONE)
            else:
                _WRITERS.get(type(item), _append_other)(out, item)

    def read(buf: bytes, pos: int) -> tuple[Any, int]:
        # __new__ + setattr, never __init__: the receiver's module
        # counter must not tick and block_id arrives verbatim
        block = cls.__new__(cls)
        for slot in cls.__slots__:
            if buf[pos] <= _T_FALSE:
                value = _SINGLETONS[buf[pos]]
                pos += 1
            else:
                value, pos = _read_value(buf, pos)
            setattr(block, slot, value)
        return block, pos
    return write, read


# ----------------------------------------------------------------------
# message envelopes
# ----------------------------------------------------------------------

_F_DST_STR = 1
_F_REL = 2
_F_ACK = 4
# Piggybacked SWIM gossip (PR 10). Optional-field flags keep knobs-off
# frames byte-identical to earlier builds, so VERSION stays 1.
_F_GOSSIP = 8


def _append_message(out: bytearray, message: Any) -> None:
    flags = 0
    if type(message.dst) is not int:
        flags |= _F_DST_STR
    if message.rel is not None:
        flags |= _F_REL
    if message.ack is not None:
        flags |= _F_ACK
    if message.gossip is not None:
        flags |= _F_GOSSIP
    out.append(flags)
    _append_varint(out, message.src)
    if flags & _F_DST_STR:
        _append_str(out, message.dst)
    else:
        _append_varint(out, message.dst)
    tag = _MTYPE_TAG.get(message.mtype, 0)
    _append_uvarint(out, tag)
    if not tag:
        _append_str(out, message.mtype)
    try:
        _append_value(out, message.payload)
        _append_varint(out, message.size)
        _append_varint(out, message.msg_id)
        if flags & _F_REL:
            _append_varint(out, message.rel[0])
            _append_varint(out, message.rel[1])
        if flags & _F_ACK:
            _append_varint(out, message.ack)
        if flags & _F_GOSSIP:
            _append_value(out, message.gossip)
    except CodecError as exc:
        raise CodecError(f"{message.mtype}: {exc}") from None


def _read_message(buf: bytes, pos: int) -> tuple[Any, int]:
    flags = buf[pos]
    src, pos = _read_varint(buf, pos + 1)
    if flags & _F_DST_STR:
        dst, pos = _read_str(buf, pos)
    else:
        dst, pos = _read_varint(buf, pos)
    tag, pos = _read_uvarint(buf, pos)
    if tag:
        if tag > len(MTYPE_REGISTRY):
            raise CodecError(
                f"unknown mtype tag {tag} (codec version {VERSION})")
        mtype = MTYPE_REGISTRY[tag - 1]
    else:
        mtype, pos = _read_str(buf, pos)
    payload, pos = _read_value(buf, pos)
    size, pos = _read_varint(buf, pos)
    msg_id, pos = _read_varint(buf, pos)
    rel = ack = gossip = None
    if flags & _F_REL:
        rel_node, pos = _read_varint(buf, pos)
        rel_seq, pos = _read_varint(buf, pos)
        rel = (rel_node, rel_seq)
    if flags & _F_ACK:
        ack, pos = _read_varint(buf, pos)
    if flags & _F_GOSSIP:
        gossip, pos = _read_value(buf, pos)
    message = _Message.__new__(_Message)
    message.src = src
    message.dst = dst
    message.mtype = mtype
    message.payload = payload
    message.size = size
    message.msg_id = msg_id
    message.rel = rel
    message.ack = ack
    message.gossip = gossip
    return message, pos


def _decoding(read: Any, buf: bytes) -> Any:
    """Run one top-level decode: check the version byte, and turn
    whatever malformed bytes provoke below — a bad utf-8 run, an
    unhashable dict key, a shape or exception constructor's own
    validation — into the one error type callers are promised."""
    if not buf:
        raise CodecError("empty frame")
    if buf[0] != VERSION:
        raise CodecError(f"unknown codec version {buf[0]} "
                         f"(this build speaks {VERSION})")
    if _Message is None:
        _register_shapes()
    try:
        return read(buf, 1)
    except CodecError:
        raise
    except IndexError:
        raise CodecError("truncated frame") from None
    except Exception as exc:  # noqa: BLE001 - hostile bytes, any failure
        raise CodecError(f"malformed frame: {exc!r}") from exc


def encode_message(message: Any) -> bytes:
    """One envelope to bytes (self-delimiting)."""
    if _Message is None:
        _register_shapes()
    out = bytearray((VERSION,))
    _append_message(out, message)
    return bytes(out)


def decode_message(buf: bytes) -> Any:
    """Inverse of :func:`encode_message`."""
    return _decoding(_read_message, buf)[0]


# ----------------------------------------------------------------------
# window batches (the sharded barrier's unit of transfer)
# ----------------------------------------------------------------------

def encode_batch(records: list[tuple[float, int, Any, int]]) -> bytes:
    """Pack ``(deliver_at, seq, message, dst)`` records into one blob.

    One blob per (destination shard, window) on the barrier pipes; the
    parent routes blobs by counting, never decoding.
    """
    if _Message is None:
        _register_shapes()
    out = bytearray((VERSION,))
    _append_uvarint(out, len(records))
    for deliver_at, seq, message, dst in records:
        out += _DOUBLE.pack(deliver_at)
        _append_uvarint(out, seq)
        _append_varint(out, dst)
        _append_message(out, message)
    return bytes(out)


def _read_batch(blob: bytes, pos: int) -> list[tuple[float, int, Any, int]]:
    count, pos = _read_uvarint(blob, pos)
    records = []
    for _ in range(count):
        deliver_at, pos = _read_float(blob, pos)
        seq, pos = _read_uvarint(blob, pos)
        dst, pos = _read_varint(blob, pos)
        message, pos = _read_message(blob, pos)
        records.append((deliver_at, seq, message, dst))
    return records


def decode_batch(blob: bytes) -> list[tuple[float, int, Any, int]]:
    """Inverse of :func:`encode_batch`."""
    return _decoding(_read_batch, blob)
