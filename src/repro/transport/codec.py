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

Fewer values on the wire: the message types of the post path each have
a registered **payload shape** (:data:`PAYLOAD_SHAPES`), so a payload
dict with exactly the shape's keys travels as its values in the shape's
order, an optional key as a presence bit in the envelope flags, and
decodes to a dict in the shape's key order; any other payload travels
as a tagged value.  An event block is a presence bitmap and then only
the slots that hold something other than their default, and a small
fixed string set (a capability's transport, an ack's status) is a
table tag.

Straight-line code: the envelope, the batch record loop, the containers,
every registered shape and every payload shape are *plan rows* (a field
and its kind), and on first use :func:`_register_shapes` turns each row
into inline Python and compiles it once per process, as
:mod:`dataclasses` does for ``__init__``.  The source text comes from
the rows alone; nothing derived from wire bytes is ever compiled.  A
value row handles ``None`` / ``bool``, one- to three-byte varints,
``str`` and ``float`` in place; anything else (a container, a shape,
bytes, an error, a longer int) is one call through the writer or reader
table, whose own fields are inline again.  Nothing is cached between
calls: every string and capability is encoded and decoded where it
stands.

Determinism contract (what lets the sharded backend run on this codec):
decoding reconstructs objects with ``__new__`` + attribute assignment,
so the receiving process's module-level id counters (the one behind
``EventBlock.block_id``) are **not** advanced and every id — the
fabric-assigned ``Message.msg_id`` too — survives the hop verbatim.

Wire format, all integers as zigzag varints (untagged where the plan
says int, uvarint for counts, lengths and bitmaps) and floats as
IEEE-754 doubles (bit-exact — virtual timestamps must survive the
hop)::

    message   := VERSION flags src dst mtype payload size msg_id
                 [rel_node rel_seq] [ack] [gossip]
    flags     := dst-is-str 1 | rel 2 | ack 4 | gossip 8 | shaped 16
                 | optional-key presence bits 32 64 128
    payload   := shaped ? { row }* in the mtype's shape order : value
    row       := int | value | block | acks       (the row's kind)
    block     := bitmap { slot }*    (the set slots, in row order)
    slot      := its kind, untagged | value       (per its bitmap bit)
    acks      := count { origin seq status }*
    status    := 1..3 (a table tag) | 0 str
    batch     := VERSION count { deliver_at seq dst message }*
    value     := tag <tag-specific body>

Unknown version bytes, flags, value tags, table tags or bitmap bits
raise :class:`CodecError` (a :class:`~repro.errors.NetworkError`), so a
frame from a different codec revision fails loudly instead of
mis-decoding.
"""

from __future__ import annotations

import builtins
import linecache
import struct
from itertools import groupby
from operator import itemgetter
from typing import Any

from repro import errors
from repro.errors import NetworkError, RpcError

__all__ = [
    "CodecError", "encode_message", "decode_message",
    "encode_batch", "decode_batch",
]

#: bump on any incompatible wire-format change (2: value tag 16, the
#: per-value fallback to a general serializer, is retired; 3: payload
#: shapes, the event block bitmap and table tags; 4: ``event.post-object``
#: drops its ``oid`` row, which no receiver read)
VERSION = 4

_DOUBLE = struct.Struct(">d")


class CodecError(NetworkError):
    """A frame could not be encoded/decoded by this codec revision."""


# ----------------------------------------------------------------------
# varints (zigzag so negative ids — e.g. the -1 reply src — stay small);
# the compiled code inlines up to three bytes and calls these past that
# ----------------------------------------------------------------------

def _append_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


# Readers index past a truncated buffer's end freely: the IndexError
# becomes a CodecError in _decoding, once per frame instead of per byte.

def _read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    byte = buf[pos]
    if byte < 0x80:
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


# ----------------------------------------------------------------------
# value tags, the generic (non-inline) writers and readers
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

#: mtype -> its payload's positional shape: ``(key, kind, optional)``
#: rows in wire order.  A kind is ``int`` (an untagged varint), ``value``
#: (a tagged value; ``rare``: one written through ``_append_value``, not
#: in place), ``block`` (an untagged event block) or ``acks``
#: (``store.ack``'s list of ``((origin, seq), status)``).  The post
#: path's four types have one; any other type's payload, and a payload
#: that does not fit its shape, travels as a tagged value.  At most
#: three optional rows: their presence bits are the envelope flags'
#: top three.
PAYLOAD_SHAPES = {
    "event.post-object": (("block", "block", False),),
    "event.resume": (("token", "int", False), ("value", "rare", False),
                     ("error", "rare", False)),
    "rel.ack": (("cum", "int", False), ("sel", "rare", True)),
    "store.ack": (("acks", "acks", False),),
}

#: the fixed string sets that travel as one-byte table tags; both are
#: positional like the mtype tags (append only).  A capability's
#: transport is always one of ``TRANSPORT_NAMES`` (its constructor
#: checks), so that table has no escape; an ack status outside the
#: outbox's three travels as tag 0 and the string.
_ACK_STATUSES = ("delivered", "noticed", "quarantined")
_ACK_STATUS_TAG = {name: i + 1 for i, name in enumerate(_ACK_STATUSES)}

#: EventBlock slots in wire order, each with its kind and the default
#: the bitmap leaves out.  Row ``i``'s bit is ``1 << i``: the slot
#: follows as its kind, untagged, or as a tagged value for a ``value``
#: row (``rare``: one written through ``_append_value``, not in place).
#: A typed row has a second bit, past the rows' own, for a value of any
#: other type, which then follows as a tagged value.  The slots every
#: post sets come first, so a post's bitmap is one varint byte.
#: ``delivered_at`` does not travel: the receiver sets it when delivery
#: begins (``events/execute.py``, ``objects/manager.py``) and nothing
#: reads it before, so a decoded block has it ``None`` (DESIGN.md,
#: "Codec").
_BLOCK_ROWS = (
    ("event", "str", None), ("raiser_node", "int", None),
    ("target", "Capability", None), ("user_data", "value", None),
    ("raised_at", "float", None), ("block_id", "int", None),
    ("durable_id", "pair", None), ("raiser_tid", "rare", None),
    ("synchronous", "rare", False), ("snapshot", "rare", None),
    ("_resume_token", "rare", None), ("degraded", "rare", False),
    ("_admission", "rare", None))
_BLOCK_RECEIVER_SLOTS = ("delivered_at",)


def _read_str(buf: bytes, pos: int) -> tuple[str, int]:
    length, pos = _read_uvarint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise CodecError("truncated string")
    return buf[pos:end].decode("utf-8"), end


def _append_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _append_uvarint(out, len(raw))
    out += raw


def _append_bytes(out: bytearray, value: bytes) -> None:
    out.append(_T_BYTES)
    _append_uvarint(out, len(value))
    out += value


def _read_raw(buf: bytes, pos: int) -> tuple[bytes, int]:
    length, pos = _read_uvarint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise CodecError("truncated bytes")
    return buf[pos:end], end


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


def _read_retired(buf: bytes, pos: int) -> tuple[Any, int]:
    raise CodecError(f"unknown value tag {_T_RETIRED} (retired in "
                     f"codec version 2; this build speaks {VERSION})")


def _read_unknown(buf: bytes, pos: int) -> tuple[Any, int]:
    raise CodecError(f"unknown value tag {buf[pos - 1]} "
                     f"(codec version {VERSION})")


def _read_error(buf: bytes, pos: int) -> tuple[BaseException, int]:
    name, pos = _read_str(buf, pos)
    args, pos = _read_value(buf, pos)
    cls = _ERROR_CLASSES.get(name)
    if cls is None:
        return RpcError(f"{name}: {', '.join(map(str, args))}"), pos
    return cls(*args), pos


_SINGLETONS = (None, True, False)
#: a one-byte zigzag varint -> its int
_UNZIGZAG = tuple((byte >> 1) ^ -(byte & 1) for byte in range(0x80))
#: a ``dict.get`` default no payload value can be
_ABSENT = object()

#: ``type(value)`` -> writer, for the values the inline code hands on:
#: bytes here, the containers and the shapes join in _register_shapes
#: (scalars never get here, every compiled value writes them in place)
_WRITERS: dict[type, Any] = {bytes: _append_bytes}

#: value tag -> reader, one entry per possible tag byte; tags 0-5 (the
#: scalars) are read in place by every compiled value and have none,
#: the containers and the shapes join in _register_shapes
_READERS: list[Any] = [None] * 6 + [_read_raw] + [_read_unknown] * 249
_READERS[_T_RETIRED] = _read_retired
_READERS[_T_ERROR] = _read_error

# Compiled on first use by _register_shapes (see the next section).
_append_value: Any = None
_read_value: Any = None
_append_items: Any = None
_append_message: Any = None
_read_message: Any = None
_append_batch: Any = None
_read_batch: Any = None
_Message: Any = None

# envelope flags: optional fields cost nothing when absent
_F_DST_STR = 1
_F_REL = 2
_F_ACK = 4
_F_GOSSIP = 8  # piggybacked SWIM gossip
_F_SHAPED = 16  # the payload is its mtype's positional shape
_F_OPTIONAL = 32  # the first optional row's presence bit; then 64, 128


# ----------------------------------------------------------------------
# the compiler: plan rows -> straight-line source
# ----------------------------------------------------------------------
#
# Each emitter returns the source lines that write or read one field in
# place.  A writer appends through ``w`` (``out.append``) and holds the
# varint it is writing in ``z``; a reader advances ``pos`` through
# ``buf``.  A shape's plan row is ``(field, kind)``: "int" is an
# untagged zigzag varint, "str" untagged length-prefixed utf-8,
# "transport" a capability transport's table tag, "value" a tagged
# value of any codec type.

def _indent(lines: list[str], depth: int = 1) -> list[str]:
    return ["    " * depth + line for line in lines]


def _put_uvarint() -> list[str]:
    """Write the non-negative int in ``z``."""
    return ["if z < 0x80:",
            "    w(z)",
            "elif z < 0x4000:",
            "    w(z & 0x7F | 0x80)",
            "    w(z >> 7)",
            "elif z < 0x200000:",
            "    w(z & 0x7F | 0x80)",
            "    w(z >> 7 & 0x7F | 0x80)",
            "    w(z >> 14)",
            "else:",
            "    _append_uvarint(out, z)"]


def _put_int(expr: str) -> list[str]:
    # zigzag works for arbitrary-precision ints: no 64-bit clamp
    return [f"z = {expr}",
            "z = z << 1 if z >= 0 else (-z << 1) - 1",
            *_put_uvarint()]


def _put_str(expr: str) -> list[str]:
    return [f"raw = {expr}.encode()",
            "z = len(raw)",
            *_put_uvarint(),
            "out += raw"]


def _put_transport(expr: str) -> list[str]:
    return [f"z = _TRANSPORT_TAG.get({expr})",
            "if z is None:",
            f"    raise CodecError(f'no transport tag for {{{expr}!r}}')",
            "w(z)"]


def _put_fields(obj: str, rows: tuple) -> list[str]:
    """Write the fields of the shape instance ``obj``: a run of value
    rows in one loop (an iteration costs about what unrolling saves, and
    the run's code is then written once), the rest in line."""
    lines = []
    for kind, run in groupby(rows, key=itemgetter(1)):
        fields = [f"{obj}.{field}" for field, _ in run]
        if kind == "value":
            lines += _put_each("(" + "".join(f"{field}, " for field in fields)
                               + ")")
        else:
            lines += [line for field in fields for line in _PUT[kind](field)]
    return lines


def _put_value(x: str) -> list[str]:
    """Write the value in local ``x``.  Dispatch is on ``type(x)``
    exactly, never isinstance: a subclass reaches ``_append_other`` and
    is refused rather than truncated."""
    return [f"if {x} is None:",
            f"    w({_T_NONE})",
            f"elif {x} is True:",
            f"    w({_T_TRUE})",
            f"elif {x} is False:",
            f"    w({_T_FALSE})",
            "else:",
            f"    t = type({x})",
            "    if t is int:",
            f"        w({_T_INT})",
            *_indent(_put_int(x), 2),
            "    elif t is str:",
            f"        w({_T_STR})",
            *_indent(_put_str(x), 2),
            "    elif t is float:",
            f"        w({_T_FLOAT})",
            f"        out += _pack_double({x})",
            "    else:",
            f"        _WRITERS.get(t, _append_other)(out, {x})"]


def _put_each(values: str) -> list[str]:
    """Write each item of ``values`` as a value."""
    return [f"for x in {values}:", *_indent(_put_value("x"))]


def _put_dict(expr: str) -> list[str]:
    return [f"w({_T_DICT})",
            f"z = len({expr})",
            *_put_uvarint(),
            f"for entry in {expr}.items():",
            *_indent(_put_each("entry"))]


def _varint_rest(var: str) -> list[str]:
    """Finish the varint at ``pos`` whose first byte, ``var``, has the
    continuation bit set."""
    return ["if buf[pos + 1] < 0x80:",
            f"    {var} = {var} & 0x7F | buf[pos + 1] << 7",
            "    pos += 2",
            "elif buf[pos + 2] < 0x80:",
            f"    {var} = ({var} & 0x7F | (buf[pos + 1] & 0x7F) << 7"
            " | buf[pos + 2] << 14)",
            "    pos += 3",
            "else:",
            f"    {var}, pos = _read_uvarint(buf, pos)"]


def _take_uvarint(var: str) -> list[str]:
    """Read a non-negative varint at ``pos`` into ``var``."""
    return [f"{var} = buf[pos]",
            f"if {var} < 0x80:",
            "    pos += 1",
            "else:",
            *_indent(_varint_rest(var))]


def _take_int(var: str) -> list[str]:
    return [f"{var} = buf[pos]",
            f"if {var} < 0x80:",
            f"    {var} = _UNZIGZAG[{var}]",
            "    pos += 1",
            "else:",
            *_indent(_varint_rest(var)),
            f"    {var} = ({var} >> 1) ^ -({var} & 1)"]


def _take_str(var: str) -> list[str]:
    return ["n = buf[pos]",
            "if n < 0x80:",
            "    pos += 1",
            "else:",
            "    n, pos = _read_uvarint(buf, pos)",
            "end = pos + n",
            "if end > len(buf):",
            "    raise CodecError('truncated string')",
            f"{var} = buf[pos:end].decode()",
            "pos = end"]


def _take_table(var: str, table: str, name: str,
                escape: bool) -> list[str]:
    """Read a ``name`` table tag into ``var``: 1.. index ``table``; 0 is a
    string that follows when the table has an ``escape``, an error
    otherwise."""
    lines = ["n = buf[pos]",
             "pos += 1",
             f"if 0 < n <= len({table}):",
             f"    {var} = {table}[n - 1]"]
    if escape:
        return lines + ["elif not n:", *_indent(_take_str(var)),
                        "else:",
                        f"    raise CodecError(f'unknown {name} tag {{n}}')"]
    return lines + ["else:",
                    f"    raise CodecError(f'unknown {name} tag {{n}}')"]


def _take_transport(var: str) -> list[str]:
    return _take_table(var, "_TRANSPORTS", "transport", escape=False)


def _take_fields(rows: tuple, prefix: str = "f_") -> list[str]:
    return [line for field, kind in rows
            for line in _TAKE[kind](prefix + field)]


def _build(name: str, build: str, rows: tuple, var: str,
           prefix: str = "f_") -> list[str]:
    """Make the shape instance ``var`` from the read fields.  ``call``
    runs the constructor, ``tuple`` builds a named tuple in C, ``frozen``
    fills a ``__new__`` instance (so no id counter ticks and no
    validation reruns) through its ``__dict__``, past the frozen
    dataclass's own ``__setattr__``."""
    values = ", ".join(prefix + field for field, _ in rows)
    if build == "call":
        return [f"{var} = {name}({values})"]
    if build == "tuple":
        return [f"{var} = _tuple_new({name}, ({values},))"]
    return [f"{var} = _new({name})",
            "fields = " + var + ".__dict__",
            *[f"fields['{field}'] = {prefix}{field}" for field, _ in rows]]


def _take_value(var: str) -> list[str]:
    """Read the value at ``pos`` into ``var``: the scalars in place,
    every other tag through ``_READERS`` (which rejects unknown ones)."""
    return ["tag = buf[pos]",
            f"if tag < {_T_INT}:",
            f"    {var} = _SINGLETONS[tag]",
            "    pos += 1",
            f"elif tag == {_T_INT}:",
            "    pos += 1",
            *_indent(_take_int(var)),
            f"elif tag == {_T_STR}:",
            "    pos += 1",
            *_indent(_take_str(var)),
            f"elif tag == {_T_FLOAT}:",
            f"    {var} = _unpack_double(buf, pos + 1)[0]",
            "    pos += 9",
            "else:",
            f"    {var}, pos = _READERS[tag](buf, pos + 1)"]


def _take_each(count: str, into: str) -> list[str]:
    """Read ``count`` values onto the end of the list ``into``."""
    return [f"for _ in range({count}):",
            *_indent(_take_value("x")),
            f"    {into}.append(x)"]


def _take_dict(var: str) -> list[str]:
    return [*_take_uvarint("count"),
            f"{var} = {{}}",
            "for _ in range(count):",
            *_indent(_take_value("key")),
            *_indent(_take_value("item")),
            f"    {var}[key] = item"]


_PUT = {"int": _put_int, "str": _put_str, "transport": _put_transport}
_TAKE = {"int": _take_int, "str": _take_str, "value": _take_value,
         "transport": _take_transport}

#: Capability's wire layout (the event block's ``target`` row writes it
#: in place too)
_CAPABILITY_ROWS = (("oid", "int"), ("home", "int"),
                    ("transport", "transport"), ("cls_name", "str"))


def _function(signature: str, body: list[str]) -> str:
    return "\n".join([f"def {signature}:", *_indent(body), ""])


def _shape_source(name: str, tag: int, build: str, rows: tuple) -> list[str]:
    """A writer and a reader for one registered shape."""
    read = [*_take_fields(rows), *_build(name, build, rows, "obj"),
            "return obj, pos"]
    return [_function(f"_write_{name}(out, value)",
                      ["w = out.append", f"w({tag})",
                       *_put_fields("value", rows)]),
            _function(f"_read_{name}(buf, pos)", read)]


# -- the event block: a presence bitmap, then the set slots ------------

#: typed row kind -> (the test a value of that kind passes, its untagged
#: writer, its reader)
_TYPED = {
    "str": ("type({x}) is str", _put_str, _take_str),
    "int": ("type({x}) is int", _put_int, _take_int),
    "float": ("type({x}) is float",
              lambda x: [f"out += _pack_double({x})"],
              lambda var: [f"{var} = _unpack_double(buf, pos)[0]",
                           "pos += 8"]),
    "Capability": ("type({x}) is Capability",
                   lambda x: _put_fields(x, _CAPABILITY_ROWS),
                   lambda var: [*_take_fields(_CAPABILITY_ROWS, "c_"),
                                *_build("Capability", "frozen",
                                        _CAPABILITY_ROWS, var, "c_")]),
    "pair": ("type({x}) is tuple and len({x}) == 2 and type({x}[0]) is int"
             " and type({x}[1]) is int",
             lambda x: [*_put_int(f"{x}[0]"), *_put_int(f"{x}[1]")],
             lambda var: [*_take_int("p_0"), *_take_int("p_1"),
                          f"{var} = (p_0, p_1)"]),
}


#: the block's value row kinds: a tagged value in place, or one call
_UNTYPED = {"value": (_put_value, _take_value),
            "rare": (lambda x: [f"_append_value(out, {x})"],
                     lambda var: [f"{var}, pos = _read_value(buf, pos)"])}


def _block_bits() -> list[tuple[int, int]]:
    """Each block row's (bit, fallback bit): the fallback bit, 0 for a
    value row, numbers the typed rows past the rows' own bits."""
    bits, spare = [], len(_BLOCK_ROWS)
    for row, (_, kind, _) in enumerate(_BLOCK_ROWS):
        typed = kind in _TYPED
        bits.append((1 << row, 1 << spare if typed else 0))
        spare += typed
    return bits


def _put_block(obj: str) -> list[str]:
    """Write the event block ``obj`` untagged.  One pass: a byte is kept
    for the bitmap and filled in once the slots are written (a bitmap
    past seven bits takes more bytes, inserted)."""
    lines = ["at = len(out)", "w(0)", "bits = 0"]
    for (slot, kind, default), (bit, other) in zip(_BLOCK_ROWS,
                                                   _block_bits()):
        lines.append(f"x = {obj}.{slot}")
        if kind in _UNTYPED:
            lines += [f"if x is not {default}:", f"    bits |= {bit}",
                      *_indent(_UNTYPED[kind][0]("x"))]
            continue
        test, put, _ = _TYPED[kind]
        lines += [f"if {test.format(x='x')}:", f"    bits |= {bit}",
                  *_indent(put("x")),
                  f"elif x is not {default}:", f"    bits |= {other}",
                  "    _append_value(out, x)"]
    return lines + ["if bits < 0x80:",
                    "    out[at] = bits",
                    "else:",
                    "    del out[at]",
                    "    wide = bytearray()",
                    "    _append_uvarint(wide, bits)",
                    "    out[at:at] = wide"]


def _take_block(var: str) -> list[str]:
    """Read an untagged event block into ``var``: ``__new__`` and slot
    assignment, never ``__init__``, so the receiver's block counter does
    not tick and ``block_id`` arrives verbatim."""
    every = sum(bit | other for bit, other in _block_bits())
    lines = [*_take_uvarint("bits"),
             f"if bits & {~every}:",
             "    raise CodecError(f'unknown event block slots in {bits:#x}')",
             f"{var} = _new(EventBlock)"]
    for (slot, kind, default), (bit, other) in zip(_BLOCK_ROWS,
                                                   _block_bits()):
        store = f"    {var}.{slot} = x"
        take = _UNTYPED[kind][1] if kind in _UNTYPED else _TYPED[kind][2]
        lines += [f"if bits & {bit}:", *_indent(take("x")), store]
        if other:
            lines += [f"elif bits & {other}:",
                      "    x, pos = _read_value(buf, pos)", store]
        lines += ["else:", f"    {var}.{slot} = {default}"]
    return lines + [f"{var}.{slot} = None" for slot in _BLOCK_RECEIVER_SLOTS]


# -- payload shapes ------------------------------------------------------

def _put_acks(x: str) -> list[str]:
    """``store.ack``'s list: a count, then each ``((origin, seq),
    status)`` as two ints and a status tag.  Anything else in the list
    does not fit the shape (``_Misfit``)."""
    return [f"if type({x}) is not list:",
            "    raise _Misfit",
            f"z = len({x})",
            *_put_uvarint(),
            f"for entry in {x}:",
            "    if type(entry) is not tuple or len(entry) != 2:",
            "        raise _Misfit",
            "    entry_id, status = entry",
            "    if (type(entry_id) is not tuple or len(entry_id) != 2",
            "            or type(status) is not str):",
            "        raise _Misfit",
            "    origin, seq = entry_id",
            "    if type(origin) is not int or type(seq) is not int:",
            "        raise _Misfit",
            *_indent(_put_int("origin")),
            *_indent(_put_int("seq")),
            "    z = _ACK_STATUS_TAG.get(status, 0)",
            "    w(z)",
            "    if not z:",
            *_indent(_put_str("status"), 2)]


def _take_acks(var: str) -> list[str]:
    return [*_take_uvarint("count"),
            f"{var} = []",
            "for _ in range(count):",
            *_indent(_take_int("origin")),
            *_indent(_take_int("seq")),
            *_indent(_take_table("status", "_ACK_STATUSES", "status",
                                      escape=True)),
            f"    {var}.append(((origin, seq), status))"]


#: payload row kind -> (the test a dict value must pass, its writer)
_PAYLOAD_PUT = {
    "int": _TYPED["int"][:2],
    "value": ("{x} is not _ABSENT", _put_value),
    "rare": ("{x} is not _ABSENT", _UNTYPED["rare"][0]),
    "block": ("type({x}) is EventBlock", _put_block),
    "acks": ("{x} is not _ABSENT", _put_acks),
}
_PAYLOAD_TAKE = {"int": _take_int, "value": _take_value,
                 "rare": _UNTYPED["rare"][1],
                 "block": _take_block, "acks": _take_acks}


class _Misfit(Exception):
    """Raised inside a compiled envelope writer when a payload dict does
    not fit its mtype's shape; the writer drops what the shape wrote and
    sends the dict as a tagged value."""


def _payload_put(mtype: str, rows: tuple) -> list[str]:
    """Write ``payload`` as ``mtype``'s positional shape and set the flag
    bits it earned (``_F_SHAPED`` and the optional rows' presence bits)
    in the envelope's flags byte at ``head``; raise ``_Misfit`` (before
    writing, but for a list that turns out not to fit) when the dict is
    not the shape's."""
    optional_rows = [key for key, _, optional in rows if optional]
    if len(optional_rows) > 3:
        raise CodecError(f"{mtype}: more than three optional payload rows")
    lines = [f"extra = {_F_SHAPED}"]
    count = [str(len(rows) - len(optional_rows))]
    for key, kind, optional in rows:
        lines.append(f"p_{key} = payload.get({key!r}, _ABSENT)")
        misfit = [f"if not {_PAYLOAD_PUT[kind][0].format(x=f'p_{key}')}:",
                  "    raise _Misfit"]
        if optional:
            bit = _F_OPTIONAL << optional_rows.index(key)
            lines += [f"if p_{key} is not _ABSENT:", *_indent(misfit),
                      f"    extra |= {bit}"]
            count.append(f"(p_{key} is not _ABSENT)")
        else:
            lines += misfit
    lines += [f"if len(payload) != {' + '.join(count)}:", "    raise _Misfit"]
    for key, kind, optional in rows:
        body = _PAYLOAD_PUT[kind][1](f"p_{key}")
        lines += ([f"if extra & {_F_OPTIONAL << optional_rows.index(key)}:",
                   *_indent(body)] if optional else body)
    return lines + ["out[head] = flags | extra"]


def _payload_take(mtype: str, rows: tuple) -> list[str]:
    """Read ``mtype``'s positional shape into the dict ``payload``, keys
    in the shape's order."""
    optional_rows = [key for key, _, optional in rows if optional]
    lines = [f"if flags >= {_F_OPTIONAL << len(optional_rows)}:",
             f"    raise CodecError(f'{mtype}: unknown payload rows in "
             "flags {flags:#x}')",
             "payload = {}"]
    for key, kind, optional in rows:
        body = [*_PAYLOAD_TAKE[kind](f"p_{key}"),
                f"payload[{key!r}] = p_{key}"]
        lines += ([f"if flags & {_F_OPTIONAL << optional_rows.index(key)}:",
                   *_indent(body)] if optional else body)
    return lines


def _generic_source() -> list[str]:
    """The value entry points and the container codecs."""
    read_items = [*_take_uvarint("count"), "items = []",
                  *_take_each("count", "items")]
    return [
        _function("_append_value(out, x)", ["w = out.append",
                                            *_put_value("x")]),
        _function("_read_value(buf, pos)",
                  [*_take_value("value"), "return value, pos"]),
        _function("_append_items(out, value)",
                  ["w = out.append",
                   f"w({_T_TUPLE} if type(value) is tuple else {_T_LIST})",
                   "z = len(value)", *_put_uvarint(), *_put_each("value")]),
        _function("_read_list(buf, pos)", [*read_items, "return items, pos"]),
        _function("_read_tuple(buf, pos)",
                  [*read_items, "return tuple(items), pos"]),
        _function("_append_dict(out, value)",
                  ["w = out.append", *_put_dict("value")]),
        _function("_read_dict(buf, pos)",
                  [*_take_dict("data"), "return data, pos"]),
        _function("_write_EventBlock(out, value)",
                  ["w = out.append", f"w({_T_EVENT_BLOCK})",
                   *_put_block("value")]),
        _function("_read_EventBlock(buf, pos)",
                  [*_take_block("block"), "return block, pos"])]


def _envelope_source() -> list[str]:
    """The envelope and the batch record loop around it.  A payload that
    fits its mtype's shape, and any other dict, is written and read in
    place."""
    shaped_put, shaped_take = [], []
    for mtype, rows in PAYLOAD_SHAPES.items():
        test = f"{'el' if shaped_put else ''}if tag == {_MTYPE_TAG[mtype]}:"
        shaped_put += [test, *_indent(_payload_put(mtype, rows))]
        shaped_take += [test, *_indent(_payload_take(mtype, rows))]
    shaped_put += ["else:", *_indent(_put_dict("payload"))]
    shaped_take += ["else:",
                    "    raise CodecError(f'shaped payload flag on {mtype}, "
                    "which has no payload shape')"]
    write = ["w = out.append",
             "dst = message.dst",
             "rel = message.rel",
             "ack = message.ack",
             "gossip = message.gossip",
             f"flags = 0 if type(dst) is int else {_F_DST_STR}",
             "if rel is not None:",
             f"    flags |= {_F_REL}",
             "if ack is not None:",
             f"    flags |= {_F_ACK}",
             "if gossip is not None:",
             f"    flags |= {_F_GOSSIP}",
             "head = len(out)",
             "w(flags)",
             *_put_int("message.src"),
             f"if flags & {_F_DST_STR}:",
             *_indent(_put_str("dst")),
             "else:",
             *_indent(_put_int("dst")),
             "tag = z = _MTYPE_TAG.get(message.mtype, 0)",
             *_put_uvarint(),
             "if not tag:",
             *_indent(_put_str("message.mtype")),
             "try:",
             "    payload = message.payload",
             "    if type(payload) is dict:",
             "        mark = len(out)",
             "        try:",
             *_indent(shaped_put, 3),
             "        except _Misfit:",
             "            del out[mark:]",
             "            _append_dict(out, payload)",
             "    else:",
             "        _append_value(out, payload)",
             *_indent(_put_int("message.size")),
             *_indent(_put_int("message.msg_id")),
             "    if rel is not None:",
             *_indent(_put_int("rel[0]"), 2),
             *_indent(_put_int("rel[1]"), 2),
             "    if ack is not None:",
             *_indent(_put_int("ack"), 2),
             "    if gossip is not None:",
             "        _append_value(out, gossip)",
             "except CodecError as exc:",
             "    raise CodecError(f'{message.mtype}: {exc}') from None"]
    read = ["flags = buf[pos]",
            "pos += 1",
            f"if flags >= {_F_OPTIONAL} and not flags & {_F_SHAPED}:",
            "    raise CodecError(f'unknown envelope flags {flags:#x}')",
            *_take_int("src"),
            f"if flags & {_F_DST_STR}:",
            *_indent(_take_str("dst")),
            "else:",
            *_indent(_take_int("dst")),
            *_take_uvarint("tag"),
            "if tag:",
            f"    if tag > {len(MTYPE_REGISTRY)}:",
            "        raise CodecError(",
            f"            f'unknown mtype tag {{tag}} (codec version {VERSION})')",
            "    mtype = MTYPE_REGISTRY[tag - 1]",
            "else:",
            *_indent(_take_str("mtype")),
            f"if flags & {_F_SHAPED}:",
            *_indent(shaped_take),
            f"elif buf[pos] == {_T_DICT}:",
            "    pos += 1",
            *_indent(_take_dict("payload")),
            "else:",
            "    payload, pos = _read_value(buf, pos)",
            *_take_int("size"),
            *_take_int("msg_id"),
            "rel = ack = gossip = None",
            f"if flags & {_F_REL}:",
            *_indent(_take_int("rel_node")),
            *_indent(_take_int("rel_seq")),
            "    rel = (rel_node, rel_seq)",
            f"if flags & {_F_ACK}:",
            *_indent(_take_int("ack")),
            f"if flags & {_F_GOSSIP}:",
            "    gossip, pos = _read_value(buf, pos)",
            "message = _new(Message)",
            *[f"message.{field} = {field}" for field in (
                "src", "dst", "mtype", "payload", "size", "msg_id", "rel",
                "ack", "gossip")],
            "return message, pos"]
    write_batch = ["w = out.append",
                   "z = len(records)",
                   *_put_uvarint(),
                   "for deliver_at, seq, message, dst in records:",
                   "    out += _pack_double(deliver_at)",
                   "    z = seq",
                   *_indent(_put_uvarint()),
                   *_indent(_put_int("dst")),
                   "    _append_message(out, message)"]
    read_batch = [*_take_uvarint("count"),
                  "records = []",
                  "for _ in range(count):",
                  "    deliver_at = _unpack_double(buf, pos)[0]",
                  "    pos += 8",
                  *_indent(_take_uvarint("seq")),
                  *_indent(_take_int("dst")),
                  "    message, pos = _read_message(buf, pos)",
                  "    records.append((deliver_at, seq, message, dst))",
                  "return records"]
    return [_function("_append_message(out, message)", write),
            _function("_read_message(buf, pos)", read),
            _function("_append_batch(out, records)", write_batch),
            _function("_read_batch(buf, pos)", read_batch)]


def _register_shapes() -> None:
    """Resolve ``Message`` and the registry of common payload shapes,
    then compile every codec function from its plan rows — once per
    process and on first use (importing the shapes with this module
    would pull the event and thread layers into every process that only
    frames bytes)."""
    global _Message, _append_value, _read_value, _append_items
    global _append_message, _read_message, _append_batch, _read_batch
    from repro.events.block import EventBlock, FrameInfo, ThreadSnapshot
    from repro.kernel.config import TRANSPORT_NAMES
    from repro.net.message import Message
    from repro.objects.capability import Capability
    from repro.store.outbox import DELIVERED, NOTICED, QUARANTINED
    from repro.threads.ids import GroupId, ThreadId
    shipped = {slot for slot, _, _ in _BLOCK_ROWS}
    if (shipped | set(_BLOCK_RECEIVER_SLOTS) != set(EventBlock.__slots__)
            or len(shipped) != len(_BLOCK_ROWS)):
        raise CodecError("EventBlock slots and the codec's block rows differ")
    if _ACK_STATUSES != (DELIVERED, NOTICED, QUARANTINED):
        raise CodecError("the outbox's ack statuses and the codec's differ")
    i, s, v = "int", "str", "value"
    #: (tag, class, build, rows): a shape's wire layout is its rows in
    #: order; the event block is compiled on its own (_put_block)
    plans = (
        (_T_CAPABILITY, Capability, "frozen", _CAPABILITY_ROWS),
        (_T_THREAD_ID, ThreadId, "call", (("root", i), ("seq", i))),
        (_T_GROUP_ID, GroupId, "call", (("root", i), ("seq", i))),
        (_T_FRAME_INFO, FrameInfo, "tuple",
         (("oid", i), ("entry", s), ("node", i), ("steps", i))),
        (_T_SNAPSHOT, ThreadSnapshot, "tuple",
         (("tid", v), ("state", s), ("node", v), ("frames", v))))
    namespace = {
        "__name__": __name__, "CodecError": CodecError, "Message": Message,
        "EventBlock": EventBlock,
        "MTYPE_REGISTRY": MTYPE_REGISTRY, "_MTYPE_TAG": _MTYPE_TAG,
        "_WRITERS": _WRITERS, "_READERS": _READERS, "_ABSENT": _ABSENT,
        "_SINGLETONS": _SINGLETONS, "_UNZIGZAG": _UNZIGZAG,
        "_TRANSPORTS": TRANSPORT_NAMES,
        "_TRANSPORT_TAG": {name: tag for tag, name in enumerate(
            TRANSPORT_NAMES, start=1)},
        "_ACK_STATUSES": _ACK_STATUSES, "_ACK_STATUS_TAG": _ACK_STATUS_TAG,
        "_append_other": _append_other, "_Misfit": _Misfit,
        "_append_uvarint": _append_uvarint, "_read_uvarint": _read_uvarint,
        "_pack_double": _DOUBLE.pack, "_unpack_double": _DOUBLE.unpack_from,
        "_new": object.__new__,
        "_tuple_new": tuple.__new__}
    sources = _generic_source() + _envelope_source()
    for tag, cls, build, rows in plans:
        namespace[cls.__name__] = cls
        sources += _shape_source(cls.__name__, tag, build, rows)
    for source in sources:
        # one compile per function keeps the parser's peak memory small
        filename = f"<codec {source[4:source.index('(')]}>"
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    _WRITERS.update({tuple: namespace["_append_items"],
                     list: namespace["_append_items"],
                     dict: namespace["_append_dict"]})
    _READERS[_T_TUPLE] = namespace["_read_tuple"]
    _READERS[_T_LIST] = namespace["_read_list"]
    _READERS[_T_DICT] = namespace["_read_dict"]
    for tag, cls, *_ in (*plans, (_T_EVENT_BLOCK, EventBlock)):
        _WRITERS[cls] = namespace[f"_write_{cls.__name__}"]
        _READERS[tag] = namespace[f"_read_{cls.__name__}"]
    _append_value = namespace["_append_value"]
    _read_value = namespace["_read_value"]
    _append_items = namespace["_append_items"]
    _append_message = namespace["_append_message"]
    _read_message = namespace["_read_message"]
    _append_batch = namespace["_append_batch"]
    _read_batch = namespace["_read_batch"]
    _Message = Message


# ----------------------------------------------------------------------
# message envelopes
# ----------------------------------------------------------------------

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
    if _Message is None:
        _register_shapes()
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
    _append_batch(out, records)
    return bytes(out)


def decode_batch(blob: bytes) -> list[tuple[float, int, Any, int]]:
    """Inverse of :func:`encode_batch`."""
    if _Message is None:
        _register_shapes()
    return _decoding(_read_batch, blob)
