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

Straight-line code: the envelope, the batch record loop, the containers
and every registered shape are *plan rows* (a field and its kind: int,
str or value), and on first use :func:`_register_shapes` turns each row
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
#: per-value fallback to a general serializer, is retired)
VERSION = 2

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

# envelope flags: optional fields cost nothing when absent, so frames
# with every knob off are the bytes the first codec revision sent
_F_DST_STR = 1
_F_REL = 2
_F_ACK = 4
_F_GOSSIP = 8  # piggybacked SWIM gossip


# ----------------------------------------------------------------------
# the compiler: plan rows -> straight-line source
# ----------------------------------------------------------------------
#
# Each emitter returns the source lines that write or read one field in
# place.  A writer appends through ``w`` (``out.append``) and holds the
# varint it is writing in ``z``; a reader advances ``pos`` through
# ``buf``.  A plan row is ``(field, kind)``: "int" is an untagged zigzag
# varint, "str" untagged length-prefixed utf-8, "value" a tagged value
# of any codec type.

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


_PUT = {"int": _put_int, "str": _put_str}
_TAKE = {"int": _take_int, "str": _take_str, "value": _take_value}


def _function(signature: str, body: list[str]) -> str:
    return "\n".join([f"def {signature}:", *_indent(body), ""])


def _shape_source(name: str, tag: int, build: str, rows: tuple,
                  checks: dict) -> list[str]:
    """A writer and a reader for one registered shape.  The reader takes
    every row in line; the writer walks a run of value rows in one loop
    (an iteration costs about what unrolling saves, and the run's code
    is then written once).  ``build`` says how the reader makes the
    object: ``call`` runs the constructor, ``tuple`` builds a named
    tuple in C, ``slots`` fills a ``__new__`` instance (so no id counter
    ticks) once the class's own ``checks`` (field -> the values it may
    take) passed, and ``frozen`` does the same through the instance's
    ``__dict__``, past the frozen dataclass's own ``__setattr__``."""
    write = ["w = out.append", f"w({tag})"]
    for kind, run in groupby(rows, key=itemgetter(1)):
        fields = [f"value.{field}" for field, _ in run]
        if kind == "value":
            write += _put_each("(" + "".join(f"{field}, " for field in fields)
                               + ")")
        else:
            write += [line for field in fields for line in _PUT[kind](field)]
    read = [line for field, kind in rows for line in _TAKE[kind](f"f_{field}")]
    for field in checks:
        read += [f"if f_{field} not in _valid_{name}_{field}:",
                 f"    raise CodecError(f'{name}.{field} {{f_{field}!r}}"
                 " is not a valid value')"]
    values = ", ".join(f"f_{field}" for field, _ in rows)
    if build == "call":
        read += [f"return {name}({values}), pos"]
    elif build == "tuple":
        read += [f"return _tuple_new({name}, ({values},)), pos"]
    elif build == "slots":
        read += [f"obj = _new({name})",
                 *[f"obj.{field} = f_{field}" for field, _ in rows],
                 "return obj, pos"]
    else:  # frozen: its own __setattr__ is shut
        read += [f"obj = _new({name})",
                 "fields = obj.__dict__",
                 *[f"fields['{field}'] = f_{field}" for field, _ in rows],
                 "return obj, pos"]
    return [_function(f"_write_{name}(out, value)", write),
            _function(f"_read_{name}(buf, pos)", read)]


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
                  [*_take_dict("data"), "return data, pos"])]


def _envelope_source() -> list[str]:
    """The envelope and the batch record loop around it.  A dict payload
    (every post and ack) is written and read in place."""
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
             "w(flags)",
             *_put_int("message.src"),
             f"if flags & {_F_DST_STR}:",
             *_indent(_put_str("dst")),
             "else:",
             *_indent(_put_int("dst")),
             "z = _MTYPE_TAG.get(message.mtype, 0)",
             *_put_uvarint(),
             "if not z:",
             *_indent(_put_str("message.mtype")),
             "try:",
             "    payload = message.payload",
             "    if type(payload) is dict:",
             *_indent(_put_dict("payload"), 2),
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
            f"if buf[pos] == {_T_DICT}:",
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
    from repro.threads.ids import GroupId, ThreadId
    i, s, v = "int", "str", "value"
    #: (tag, class, build, rows, checks): a shape's wire layout is its
    #: rows in order; Capability's check is its __post_init__'s
    plans = (
        (_T_CAPABILITY, Capability, "frozen",
         (("oid", i), ("home", i), ("transport", s), ("cls_name", s)),
         {"transport": TRANSPORT_NAMES}),
        (_T_THREAD_ID, ThreadId, "call", (("root", i), ("seq", i)), {}),
        (_T_GROUP_ID, GroupId, "call", (("root", i), ("seq", i)), {}),
        (_T_FRAME_INFO, FrameInfo, "tuple",
         (("oid", i), ("entry", s), ("node", i), ("steps", i)), {}),
        (_T_SNAPSHOT, ThreadSnapshot, "tuple",
         (("tid", v), ("state", s), ("node", v), ("frames", v)), {}),
        (_T_EVENT_BLOCK, EventBlock, "slots",
         tuple((slot, v) for slot in EventBlock.__slots__), {}))
    namespace = {
        "__name__": __name__, "CodecError": CodecError, "Message": Message,
        "MTYPE_REGISTRY": MTYPE_REGISTRY, "_MTYPE_TAG": _MTYPE_TAG,
        "_WRITERS": _WRITERS, "_READERS": _READERS,
        "_SINGLETONS": _SINGLETONS, "_UNZIGZAG": _UNZIGZAG,
        "_append_other": _append_other,
        "_append_uvarint": _append_uvarint, "_read_uvarint": _read_uvarint,
        "_pack_double": _DOUBLE.pack, "_unpack_double": _DOUBLE.unpack_from,
        "_new": object.__new__,
        "_tuple_new": tuple.__new__}
    sources = _generic_source() + _envelope_source()
    for tag, cls, build, rows, checks in plans:
        name = cls.__name__
        namespace[name] = cls
        for field, allowed in checks.items():
            namespace[f"_valid_{name}_{field}"] = allowed
        sources += _shape_source(name, tag, build, rows, checks)
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
    for tag, cls, *_ in plans:
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
