"""The VERSION 4 codec carries what the VERSION 2 generic codec did.

``repro.transport.codec`` writes the post path's payloads positionally,
an event block as a presence bitmap and its set slots, and a
capability's transport and an ack's status as table tags, all in
straight-line code compiled at first use.  The section below is the
generic VERSION 2 codec it grew from — one writer or reader call per
value, one loop per shape row, every payload a tagged value — kept
verbatim as the reference (its ``CodecError`` is the real one, so both
raise the same type).  The bytes differ; what they carry may not.
Drawn messages cover every registered shape, event blocks with every
slot type (typical ones and any value at all: negative, multi-byte and
2**70 ints, -0.0 / nan / inf, long and non-ASCII strings, nested
containers, errors), the post path's payload shapes and payloads that
misfit them, envelopes with ``rel``, ``ack`` and ``gossip``, a string
``dst`` and an inline mtype, and batches of them.  The codec must
refuse what the reference refuses (with the same text), and its decode
of its own bytes must equal the reference's decode of the reference's
bytes at the value level: every type, float bits, exception type and
args, every event block slot but the receiver-written ones
(``RECEIVER_WRITTEN``, which arrive None), and every dict's key order
but a shaped payload's own, which is the shape's.  On random bytes, on
mutated VERSION 4 encodings and on mutated golden vectors of all three
versions, only ``CodecError`` may escape either decoder.

The example budget is the hypothesis profile's (``tests/conftest.py``):
CI runs this file again under ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import builtins
import math
import struct
from typing import Any

from hypothesis import given, settings, strategies as st

from repro import errors
from repro.errors import RpcError, UndeliverableError
from repro.events.block import EventBlock, FrameInfo, ThreadSnapshot
from repro.kernel.config import TRANSPORT_NAMES
from repro.net.message import Message
from repro.objects.capability import Capability
from repro.threads.ids import GroupId, ThreadId
from repro.transport import codec
from repro.transport.codec import CodecError
from tests.test_codec import (
    GOLDEN,
    GOLDEN_BATCH,
    GOLDEN_V2,
    GOLDEN_V2_BATCH,
    GOLDEN_V3,
    GOLDEN_V3_BATCH,
    RECEIVER_WRITTEN,
)

# ======================================================================
# the reference: the generic codec, verbatim
# ======================================================================

#: bump on any incompatible wire-format change (2: value tag 16, the
#: per-value fallback to a general serializer, is retired)
VERSION = 2

_DOUBLE = struct.Struct(">d")


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
# Piggybacked SWIM gossip. Optional-field flags keep knobs-off
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


# ======================================================================
# drawn values, messages and batches
# ======================================================================

INTS = st.one_of(
    st.integers(-70, 70), st.integers(-(1 << 24), 1 << 24),
    st.sampled_from([1 << 70, -(1 << 70), (1 << 63) - 1, -(1 << 63)]))
FLOATS = st.one_of(st.floats(),
                   st.sampled_from([-0.0, 0.0, math.nan, math.inf,
                                    -math.inf]))
#: short strings, strings past 64 bytes, and non-ASCII ones
TEXTS = st.one_of(st.text(max_size=8), st.text(min_size=65, max_size=120),
                  st.sampled_from(["E17", "block", "événement", "ключ",
                                   "\U0001f642" * 20]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXTS,
                    st.binary(max_size=12))
KEYS = st.one_of(st.none(), st.booleans(), INTS, TEXTS)
TIDS = st.builds(ThreadId, root=INTS, seq=INTS)
CAPABILITIES = st.builds(Capability, oid=INTS, home=INTS,
                         transport=st.sampled_from(sorted(TRANSPORT_NAMES)),
                         cls_name=TEXTS)
SHAPES = st.one_of(
    CAPABILITIES, TIDS, st.builds(GroupId, root=INTS, seq=INTS),
    st.builds(FrameInfo, oid=INTS, entry=TEXTS, node=INTS, steps=INTS),
    st.builds(ThreadSnapshot, tid=st.none() | TIDS, state=TEXTS,
              node=st.none() | INTS,
              frames=st.lists(st.builds(FrameInfo, INTS, TEXTS, INTS, INTS),
                              max_size=3).map(tuple)))
ERRORS = st.builds(
    lambda cls, args: cls(*args),
    st.sampled_from([UndeliverableError, KeyError, ValueError, RpcError]),
    st.lists(st.one_of(INTS, TEXTS, st.none()), max_size=3))
VALUES = st.recursive(
    st.one_of(SCALARS, SHAPES, ERRORS, st.tuples(INTS, INTS)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=10)

#: what each event block slot holds on a post, drawn beside any value at
#: all so the codec's typed rows meet their kind and everything else
TYPICAL = {
    "event": TEXTS, "raiser_tid": st.none() | TIDS,
    "raiser_node": st.none() | INTS, "target": CAPABILITIES | TIDS,
    "synchronous": st.booleans(), "user_data": INTS,
    "snapshot": st.none() | SHAPES,
    "raised_at": FLOATS, "delivered_at": st.none() | FLOATS,
    "block_id": INTS, "durable_id": st.none() | st.tuples(INTS, INTS),
    "_resume_token": st.none() | INTS, "degraded": st.booleans(),
    "_admission": st.sampled_from([None, False]) | st.tuples(INTS, INTS),
}


@st.composite
def blocks(draw) -> EventBlock:
    """A block whose every slot holds a drawn value."""
    block = EventBlock("E")
    for slot in EventBlock.__slots__:
        setattr(block, slot, draw(TYPICAL[slot] | VALUES))
    return block


STATUSES = st.sampled_from(["delivered", "noticed", "quarantined"]) | TEXTS
#: the post path's payloads, the keys in the shape's order or not, and
#: ones that misfit their shape
POSTS = st.one_of(
    st.fixed_dictionaries({"block": blocks()}),
    st.fixed_dictionaries({"oid": INTS, "block": blocks()}),
    st.fixed_dictionaries({"acks": st.lists(
        st.tuples(st.tuples(INTS, INTS), STATUSES), max_size=4)}),
    st.fixed_dictionaries({"acks": st.lists(
        st.tuples(st.tuples(INTS, INTS | TEXTS), STATUSES | INTS)
        | VALUES, max_size=3)}),
    st.fixed_dictionaries({"cum": INTS | VALUES},
                          optional={"sel": VALUES}),
    st.fixed_dictionaries({"token": VALUES, "value": VALUES,
                           "error": st.none() | ERRORS}),
    st.fixed_dictionaries({"error": ERRORS, "token": INTS, "value": VALUES}),
    st.fixed_dictionaries({"block": blocks()},
                          optional={"cum": INTS, "acks": VALUES}))


@st.composite
def messages(draw, payloads=st.one_of(VALUES, blocks(), POSTS)) -> Message:
    return Message(
        src=draw(INTS), dst=draw(INTS | TEXTS),
        mtype=draw(st.sampled_from(codec.MTYPE_REGISTRY) | TEXTS),
        payload=draw(payloads), size=draw(INTS), msg_id=draw(INTS),
        rel=draw(st.none() | st.tuples(INTS, INTS)),
        ack=draw(st.none() | INTS),
        gossip=draw(st.none() | st.lists(st.tuples(INTS, TEXTS, INTS),
                                         max_size=3).map(tuple)))


#: window batches of posts, acks and scalar payloads (the message
#: property draws the rest)
BATCHES = st.lists(st.tuples(FLOATS, st.integers(0, 1 << 40),
                             messages(POSTS | SCALARS), INTS), max_size=3)


# ======================================================================
# comparing what two decoders built
# ======================================================================

def same(a: Any, b: Any) -> bool:
    """Field equality that types every value, compares floats by their
    bits (nan, -0.0), exceptions by type and args, dicts in their key
    order, and event blocks slot by slot bar the receiver-written ones
    (the codec does not send them: ``a``'s must be None)."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack(">d", a) == struct.pack(">d", b)
    if isinstance(a, BaseException):
        return same(a.args, b.args)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return same(list(a), list(b)) and same(list(a.values()),
                                               list(b.values()))
    if type(a) is EventBlock:
        return all(getattr(a, slot) is None if slot in RECEIVER_WRITTEN
                   else same(getattr(a, slot), getattr(b, slot))
                   for slot in EventBlock.__slots__)
    if type(a) is Message:
        return all(same_payload(a.payload, b.payload)
                   if name == "payload" else same(getattr(a, name),
                                                  getattr(b, name))
                   for name in Message.__slots__)
    if type(a) in (Capability, ThreadId, GroupId):
        return vars(a) == vars(b)  # the instance layout, not only ==
    return a == b


def same_payload(a: Any, b: Any) -> bool:
    """A payload dict may come back in its shape's key order: compare
    its items by key (the dict's own notion of one key), typed."""
    if same(a, b):
        return True
    if type(a) is not dict or type(b) is not dict:
        return False
    keys = {key: key for key in b}
    return len(a) == len(b) and all(
        key in b and same(key, keys[key]) and same(value, b[key])
        for key, value in a.items())


def outcome(fn: Any, *args: Any) -> tuple:
    """``("ok", result)`` or ``("error", type, text)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("error", type(exc), str(exc))


def only_codec_error_escapes(data: bytes) -> None:
    """The one thing the two decoders agree on for bytes of either
    version or none: each returns what it read or raises CodecError."""
    for decode in (codec.decode_message, codec.decode_batch,
                   decode_message, decode_batch):
        got = outcome(decode, data)
        assert got[0] == "ok" or got[1] is CodecError, got


# ======================================================================
# the properties
# ======================================================================

@settings(deadline=None)
@given(messages())
def test_compiled_message_codec_is_the_reference(message):
    """At the value level: the bytes differ, what they carry may not."""
    got = outcome(codec.encode_message, message)
    want = outcome(encode_message, message)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert same(codec.decode_message(got[1]), decode_message(want[1]))
    else:
        assert got[1] is want[1] is CodecError


@settings(deadline=None)
@given(BATCHES)
def test_compiled_batch_codec_is_the_reference(records):
    got = codec.decode_batch(codec.encode_batch(records))
    want = decode_batch(encode_batch(records))
    assert len(got) == len(want)
    for (at, seq, message, dst), (at_r, seq_r, message_r, dst_r) in zip(
            got, want):
        assert same((at, seq, dst), (at_r, seq_r, dst_r))
        assert same(message, message_r)


class WiderId(ThreadId):
    """A shape subclass: the shape would drop whatever it adds."""


class Count(int):
    """An int subclass."""


class Name(str):
    """A str subclass."""


def _carriers(value: Any) -> list[tuple[str, Any]]:
    """``value`` deep in an unshaped payload, as a dict key, and in the
    post path's shaped payloads: a value row, an event block's typed and
    untyped slots, an ack's status."""
    block = EventBlock("E", raiser_node=value)
    other = EventBlock("E", user_data=value)
    return [("rpc.request", value), ("rpc.request", {"deep": [1, (value,)]}),
            ("rpc.request", {value: 1}),
            ("event.resume", {"token": value, "value": 1, "error": None}),
            ("event.post-object", {"block": block}),
            ("event.post-object", {"block": other}),
            ("store.ack", {"acks": [((1, 2), value)]})]


@settings(deadline=None)
@given(st.one_of(
    SHAPES, ERRORS, st.builds(WiderId, root=INTS, seq=INTS),
    st.builds(Count, INTS), st.builds(Name, TEXTS),
    st.sampled_from([complex(1, 2), object(), RuntimeError(complex(3, 4))])))
def test_compiled_codec_refuses_what_the_reference_refuses(value):
    """The same CodecError text (message type and Python type), or
    bytes that carry what the reference's did, wherever the value
    sits."""
    for mtype, payload in _carriers(value):
        message = Message(src=0, dst=1, mtype=mtype, payload=payload)
        got = outcome(codec.encode_message, message)
        want = outcome(encode_message, message)
        if want[0] == "error":
            assert got == want
        else:
            assert got[0] == "ok", got
            assert same(codec.decode_message(got[1]),
                        decode_message(want[1]))


@settings(deadline=None)
@given(st.binary(max_size=96))
def test_both_decoders_agree_on_random_bytes(data):
    only_codec_error_escapes(bytes([codec.VERSION]) + data)
    only_codec_error_escapes(bytes([VERSION]) + data)
    only_codec_error_escapes(data)


@st.composite
def mutated(draw, source) -> bytes:
    data = bytearray(draw(source))
    if data and draw(st.booleans()):
        return bytes(data[:draw(st.integers(0, len(data) - 1))])
    for _ in range(draw(st.integers(1, 3))):
        if len(data) > 1:
            at = draw(st.integers(1, len(data) - 1))
            data[at] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


GOLDEN_BYTES = st.sampled_from(
    [bytes.fromhex(h) for h in (*GOLDEN.values(), GOLDEN_BATCH,
                                *GOLDEN_V2.values(), GOLDEN_V2_BATCH,
                                *GOLDEN_V3.values(), GOLDEN_V3_BATCH)])


@settings(deadline=None)
@given(st.one_of(mutated(GOLDEN_BYTES),
                 mutated(messages().map(codec.encode_message)),
                 mutated(BATCHES.map(codec.encode_batch))))
def test_both_decoders_agree_on_mutated_frames(data):
    only_codec_error_escapes(data)
