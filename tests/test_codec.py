"""Tests for the compact wire codec (:mod:`repro.transport.codec`).

The codec's contract is strict: every :class:`~repro.net.message.Message`
field survives the hop verbatim (ids included — decoding must not tick
the receiver's module counters, or same-seed sharded digests would
drift), common payload shapes round-trip through the shape registry,
a value of any other type is refused at encode, and frames from a
different codec revision fail loudly with :class:`CodecError`.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import NetworkError, RpcError, UndeliverableError
from repro.events.block import EventBlock, FrameInfo, ThreadSnapshot
from repro.net.message import Message
from repro.objects.capability import Capability
from repro.threads.ids import GroupId, ThreadId
from repro.transport.codec import (
    MTYPE_REGISTRY,
    VERSION,
    CodecError,
    decode_batch,
    decode_message,
    encode_batch,
    encode_message,
)


def roundtrip(message: Message) -> Message:
    return decode_message(encode_message(message))


def assert_messages_equal(a: Message, b: Message) -> None:
    for field in ("src", "dst", "mtype", "payload", "size", "msg_id",
                  "rel", "ack"):
        assert getattr(a, field) == getattr(b, field), field


class WiderId(ThreadId):
    """ThreadId subclass: the shape would drop whatever it adds."""


class PayloadOnlyThisTest:
    """A payload type the shape registry does not know."""


class ForeignError(Exception):
    """An exception class from outside the two fixed namespaces."""


# ----------------------------------------------------------------------
# envelope fields
# ----------------------------------------------------------------------

class TestEnvelope:
    def test_every_field_roundtrips(self):
        message = Message(src=3, dst=11, mtype="event.post-object",
                          payload={"a": 1}, size=96)
        out = roundtrip(message)
        assert_messages_equal(message, out)
        assert out is not message

    def test_rel_and_ack_roundtrip(self):
        message = Message(src=0, dst=1, mtype="rel.ack", payload=None,
                          rel=(7, 1234), ack=5678)
        out = roundtrip(message)
        assert out.rel == (7, 1234)
        assert out.ack == 5678

    def test_negative_src_and_string_dst(self):
        # the fabric uses src=-1 replies and string pseudo-destinations
        message = Message(src=-1, dst="group:42", mtype="event.resume")
        out = roundtrip(message)
        assert out.src == -1
        assert out.dst == "group:42"

    def test_registry_mtype_travels_as_tag(self):
        for mtype in MTYPE_REGISTRY:
            out = roundtrip(Message(src=0, dst=1, mtype=mtype))
            assert out.mtype == mtype

    def test_unregistered_mtype_travels_inline(self):
        message = Message(src=0, dst=1, mtype="custom.not-in-registry")
        # the inline form costs the string bytes the registry saves
        assert len(encode_message(message)) > len(encode_message(
            Message(src=0, dst=1, mtype="event.post-object",
                    msg_id=message.msg_id)))
        assert roundtrip(message).mtype == "custom.not-in-registry"

    def test_msg_id_verbatim_and_counter_not_ticked(self):
        block = EventBlock("PING")
        message = Message(src=0, dst=1, mtype="event.post-object",
                          payload={"block": block}, msg_id=41)
        assert roundtrip(message).msg_id == 41
        assert roundtrip(message).payload["block"].block_id == block.block_id
        # decoding ten envelopes must not advance the block-id counter:
        # the next locally-built block is exactly one past the last one
        for _ in range(10):
            roundtrip(message)
        assert EventBlock("PING").block_id == block.block_id + 1

    def test_msg_id_is_the_fabrics_to_assign(self):
        # an envelope mints nothing; the fabric numbers what it sends
        assert Message(src=0, dst=1, mtype="x").msg_id == 0


# ----------------------------------------------------------------------
# payload values
# ----------------------------------------------------------------------

class TestValues:
    @pytest.mark.parametrize("payload", [
        None, True, False, 0, -1, 1 << 80, -(1 << 80), "", "événement",
        b"\x00\xffbytes", (1, "two", None), [3.5, [1, 2]],
        {"k": (True, {"nested": b"v"})}, 0.0, -0.0, 1e-308, math.pi,
    ])
    def test_scalars_and_containers(self, payload):
        out = roundtrip(Message(src=0, dst=1, mtype="x", payload=payload))
        assert out.payload == payload
        assert type(out.payload) is type(payload)

    def test_floats_bit_exact(self):
        for value in (-0.0, 1e-308, math.pi, 1.0 + 2**-52):
            out = roundtrip(Message(src=0, dst=1, mtype="x",
                                    payload=value))
            assert math.copysign(1.0, out.payload) == \
                math.copysign(1.0, value)
            assert out.payload.hex() == value.hex()

    def test_unknown_type_is_refused_at_encode(self):
        # wherever it sits in the payload, and in a batch as well
        for value, type_name in [
                (PayloadOnlyThisTest(), "PayloadOnlyThisTest"),
                (complex(1.5, -2.0), "builtins.complex"),
                (lambda: None, "builtins.function"),
                (PayloadOnlyThisTest, "builtins.type")]:
            for payload in (value, {"deep": [1, (value,)]}, {value: 1}):
                message = Message(src=0, dst=1, mtype="rpc.request",
                                  payload=payload)
                with pytest.raises(CodecError,
                                   match=f"rpc.request: .*{type_name}"):
                    encode_message(message)
                with pytest.raises(CodecError, match=type_name):
                    encode_batch([(0.5, 1, message, 1)])


# ----------------------------------------------------------------------
# shape registry
# ----------------------------------------------------------------------

class TestShapes:
    def test_capability(self):
        cap = Capability(oid=17, home=3, transport="rpc",
                         cls_name="ScaleSink")
        out = roundtrip(Message(src=0, dst=1, mtype="x", payload=cap))
        assert out.payload == cap

    def test_thread_and_group_ids(self):
        payload = (ThreadId(root=2, seq=9), GroupId(root=0, seq=4))
        out = roundtrip(Message(src=0, dst=1, mtype="x", payload=payload))
        assert out.payload == payload
        assert type(out.payload[0]) is ThreadId
        assert type(out.payload[1]) is GroupId

    def test_thread_snapshot_with_frames(self):
        snapshot = ThreadSnapshot(
            tid=ThreadId(root=1, seq=2), state="suspended", node=5,
            frames=(FrameInfo(oid=3, entry="on_scale", node=5, steps=7),))
        out = roundtrip(Message(src=0, dst=1, mtype="x",
                                payload=snapshot))
        assert out.payload == snapshot
        assert out.payload.program_counter == (3, "on_scale", 7)

    def test_event_block_all_slots_and_counter_not_ticked(self):
        block = EventBlock("SCALE", raiser_tid=ThreadId(root=0, seq=1),
                           raiser_node=2, target=4, synchronous=True,
                           user_data=(2, 7), raised_at=1.25,
                           delivered_at=1.5)
        block.durable_id = (2, 99)
        block.degraded = True
        out = roundtrip(Message(src=0, dst=1, mtype="x", payload=block))
        for slot in EventBlock.__slots__:
            assert getattr(out.payload, slot) == getattr(block, slot), slot
        # decoding must not mint a new block id on the receiver
        follower = EventBlock("SCALE")
        assert follower.block_id == block.block_id + 1

    def test_shape_subclass_is_refused_not_truncated(self):
        message = Message(src=0, dst=1, mtype="x",
                          payload=WiderId(root=1, seq=2))
        with pytest.raises(CodecError, match="x: .*WiderId"):
            encode_message(message)

    @pytest.mark.parametrize("error", [
        UndeliverableError("resume for PING undeliverable to node 2"),
        KeyError("missing"),
        ValueError(3, ("nested", None), 2.5),
        OSError(2, "No such file"),
    ])
    def test_error_of_a_known_class_roundtrips(self, error):
        out = roundtrip(Message(src=0, dst=1, mtype="event.resume",
                                payload={"token": 7, "error": error}))
        assert type(out.payload["error"]) is type(error)
        assert out.payload["error"].args == error.args

    def test_error_args_without_a_shape_travel_as_the_message(self):
        out = roundtrip(Message(src=0, dst=1, mtype="rpc.reply",
                                payload=RuntimeError(complex(1, 2))))
        assert type(out.payload) is RuntimeError
        assert out.payload.args == ("(1+2j)",)

    @pytest.mark.parametrize("error, text", [
        (ForeignError("boom", 3), "ForeignError: ('boom', 3)"),
        (CodecError("not in repro.errors"),
         "CodecError: not in repro.errors"),
        (KeyboardInterrupt(), "KeyboardInterrupt: "),  # not an Exception
    ])
    def test_foreign_error_arrives_as_rpc_error(self, error, text):
        out = roundtrip(Message(src=0, dst=1, mtype="rpc.reply",
                                payload={"call_id": 1, "error": error}))
        assert type(out.payload["error"]) is RpcError
        assert str(out.payload["error"]) == text

    def test_error_frame_never_names_its_way_to_an_import(self):
        # tag 17, then a dotted path where a class name belongs
        frame = (bytes([VERSION, 0, 0, 2, 1, 17, 9]) + b"os.system"
                 + bytes([7, 1, 5, 2]) + b"id" + bytes([128, 1, 2]))
        error = decode_message(frame).payload
        assert type(error) is RpcError and str(error) == "os.system: id"


# ----------------------------------------------------------------------
# failure modes
# ----------------------------------------------------------------------

class TestErrors:
    def test_codec_error_is_a_network_error(self):
        assert issubclass(CodecError, NetworkError)

    def test_unknown_version_rejected(self):
        frame = bytearray(encode_message(Message(src=0, dst=1, mtype="x")))
        frame[0] = VERSION + 1
        with pytest.raises(CodecError, match="version"):
            decode_message(bytes(frame))
        with pytest.raises(CodecError, match="version"):
            decode_batch(bytes(frame))

    def test_empty_frame_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"")
        with pytest.raises(CodecError):
            decode_batch(b"")

    def test_unknown_mtype_tag_rejected(self):
        # a frame from a future registry revision: flags 0, src 0,
        # dst 0, then an mtype tag past this build's registry
        frame = bytes([VERSION, 0, 0, 0, len(MTYPE_REGISTRY) + 1])
        with pytest.raises(CodecError, match="mtype tag"):
            decode_message(frame)

    def test_unknown_value_tag_rejected(self):
        for tag in (16, 18, 200):  # 16 is retired: a length-prefixed blob
            frame = bytes([VERSION, 0, 0, 2, 1, tag, 3, 1, 2, 3, 128, 1, 2])
            with pytest.raises(CodecError, match=f"value tag {tag}"):
                decode_message(frame)

    def test_truncated_frame_rejected(self):
        frame = encode_message(Message(
            src=0, dst=1, mtype="event.post-object",
            payload={"k": "a long enough payload string"}))
        for cut in (2, len(frame) // 2, len(frame) - 1):
            with pytest.raises(CodecError):
                decode_message(frame[:cut])


# ----------------------------------------------------------------------
# window batches
# ----------------------------------------------------------------------

class TestBatch:
    def test_roundtrip_preserves_order_and_fields(self):
        records = [
            (0.005, 1, Message(src=0, dst=5, mtype="event.post-object",
                               payload=(0, 1)), 5),
            (0.005, 2, Message(src=1, dst="group:9", mtype="rel.ack",
                               rel=(1, 3), ack=44), 7),
            (0.010, 3, Message(src=2, dst=0, mtype="custom.mtype",
                               payload=Capability(oid=1, home=0,
                                                  transport="rpc")), 0),
        ]
        out = decode_batch(encode_batch(records))
        assert len(out) == len(records)
        for (at_a, seq_a, msg_a, dst_a), (at_b, seq_b, msg_b, dst_b) in \
                zip(records, out):
            assert at_a.hex() == at_b.hex()
            assert seq_a == seq_b and dst_a == dst_b
            assert_messages_equal(msg_a, msg_b)

    def test_empty_batch_roundtrips(self):
        assert decode_batch(encode_batch([])) == []

    def test_truncated_batch_rejected(self):
        blob = encode_batch(
            [(0.5, 1, Message(src=0, dst=1, mtype="x"), 1)])
        with pytest.raises(CodecError):
            decode_batch(blob[:len(blob) - 2])


# ----------------------------------------------------------------------
# the wire format is frozen: golden vectors and a decode fuzzer
# ----------------------------------------------------------------------

def _golden_block() -> EventBlock:
    block = EventBlock("USER_PING", raiser_tid=ThreadId(2, 9), raiser_node=2,
                       target=Capability(oid=12, home=1, transport="rpc",
                                         cls_name="Sink"),
                       synchronous=True, user_data={"post": 41, "w": 0.25},
                       snapshot=ThreadSnapshot(
                           tid=ThreadId(0, 3), state="blocked", node=None,
                           frames=(FrameInfo(5, "work", 1, 17),)),
                       raised_at=1.5, delivered_at=None)
    block.block_id = 77
    block.durable_id = (2, 300)
    block.degraded = True
    block._admission = (0, 1)
    return block


def golden_messages() -> dict[str, Message]:
    def msg(payload=None, **kw):
        fields = dict(src=0, dst=1, mtype="event.post-object", size=64,
                      msg_id=1000)
        fields.update(kw)
        return Message(payload=payload, **fields)
    return {
        "capability": msg(Capability(oid=7, home=2, transport="dsm",
                                     cls_name="Counter")),
        "thread_id": msg(ThreadId(3, 130)),
        "group_id": msg(GroupId(1, 4)),
        "frame_info": msg(FrameInfo(oid=9, entry="run", node=0, steps=300)),
        "snapshot": msg(ThreadSnapshot(
            tid=ThreadId(1, 2), state="running", node=3,
            frames=(FrameInfo(1, "a", 0, 1), FrameInfo(2, "b", 1, 2)))),
        "event_block": msg(_golden_block(), size=256),
        "scalars": msg((None, True, False, -1, 1 << 70, 2.5, "h\u00e9",
                        b"\x00\xff", [1, [2]], {"k": (3,)})),
        "rel": msg("x", rel=(0, 129), msg_id=128),
        "ack": msg(None, mtype="rel.ack", ack=4000),
        "rel_ack_gossip": msg(5, rel=(2, 1), ack=0,
                              gossip=((1, "suspect", 3), (2, "alive", 0))),
        "string_dst": msg(None, src=-1, dst="mcast:grp",
                          mtype="locate.mcast"),
        "inline_mtype": msg([1], mtype="t.unregistered"),
        "error_shape": msg({"token": 77, "value": None,
                            "error": UndeliverableError(
                                "resume undeliverable to node 2", 2)},
                           mtype="event.resume", size=96),
    }


def golden_batch() -> list:
    messages = golden_messages()
    return [(0.005, 0, messages["event_block"], 1),
            (0.0075, 1, messages["rel"], 300),
            (1e-3, 200, messages["string_dst"], 0)]


#: encode_message() of golden_messages() at the commit before the codec
#: was rebuilt for speed (PR 12) — the rebuilt encoder must emit these
#: bytes exactly, and so must every later one while VERSION stays 2
#: (VERSION 1 -> 2 changed the leading byte of each vector and nothing
#: else; ``error_shape`` joined then, in place of the retired tag 16's)
GOLDEN = {
    "capability": "02000002010a0e040364736d07436f756e7465728001d00f",
    "thread_id": "02000002010b0684028001d00f",
    "group_id": "02000002010c02088001d00f",
    "frame_info": "02000002010d120372756e00d8048001d00f",
    "snapshot": "02000002010e0b02040772756e6e696e67030607020d020161000"
                "20d04016202048001d00f",
    "event_block": "02000002010f0509555345525f50494e470b041203040a18020"
                   "37270630453696e6b0109020504706f73740352050177043fd0"
                   "0000000000000e0b000607626c6f636b65640007010d0a04776"
                   "f726b0222043ff800000000000000039a010702030403d80400"
                   "010702030003028004d00f",
    "scalars": "0200000201070a000102030103808080808080808080800204400400"
               "0000000000050368c3a9060200ff0802030208010304090105016b07"
               "0103068001d00f",
    "rel": "020200020105017880018002008202",
    "ack": "0204000203008001d00fc03e",
    "rel_ack_gossip": "020e000201030a8001d00f04020007020703030205077375"
                      "73706563740306070303040505616c6976650300",
    "string_dst": "020101096d636173743a6772700c008001d00f",
    "inline_mtype": "02000002000e742e756e72656769737465726564080103028001"
                    "d00f",
    "error_shape": "020000020209030505746f6b656e039a01050576616c756500"
                   "05056572726f721112556e64656c6976657261626c654572726f"
                   "720702051e726573756d6520756e64656c6976657261626c6520"
                   "746f206e6f646520320304c001d00f",
}
GOLDEN_BATCH = (
    "02033f747ae147ae147b0002000002010f0509555345525f50494e470b04120304"
    "0a1802037270630453696e6b0109020504706f73740352050177043fd000000000"
    "00000e0b000607626c6f636b65640007010d0a04776f726b0222043ff800000000"
    "000000039a010702030403d80400010702030003028004d00f3f7eb851eb851eb8"
    "01d80402000201050178800180020082023f50624dd2f1a9fcc801000101096d63"
    "6173743a6772700c008001d00f")


class TestGoldenVectors:
    def test_every_case_has_a_vector(self):
        assert set(golden_messages()) == set(GOLDEN)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_encoder_emits_the_frozen_bytes(self, name):
        assert encode_message(golden_messages()[name]).hex() == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_frozen_bytes_decode_to_the_message(self, name):
        expected = golden_messages()[name]
        decoded = decode_message(bytes.fromhex(GOLDEN[name]))
        assert type(decoded.payload) is type(expected.payload)
        assert decoded.gossip == expected.gossip
        if name == "event_block":
            for slot in EventBlock.__slots__:
                assert (getattr(decoded.payload, slot)
                        == getattr(expected.payload, slot)), slot
            decoded.payload = expected.payload = None
        if name == "error_shape":  # exceptions compare by identity
            got = decoded.payload.pop("error")
            want = expected.payload.pop("error")
            assert type(got) is type(want) and got.args == want.args
        assert_messages_equal(decoded, expected)

    def test_batch_blob_is_frozen_both_ways(self):
        assert encode_batch(golden_batch()).hex() == GOLDEN_BATCH
        decoded = decode_batch(bytes.fromhex(GOLDEN_BATCH))
        assert [(at, seq, dst) for at, seq, _m, dst in decoded] \
            == [(at, seq, dst) for at, seq, _m, dst in golden_batch()]
        # re-encoding what was decoded closes the loop on every field
        assert encode_batch(decoded).hex() == GOLDEN_BATCH


class TestDecodeFuzz:
    """Malformed input raises CodecError and nothing else.  Inputs are
    short, so a decode that fails to terminate would be a loop that
    stopped consuming bytes — every case here finishes in microseconds."""

    def _mutants(self):
        rng = random.Random(20260929)
        vectors = [bytes.fromhex(h) for h in GOLDEN.values()]
        vectors.append(bytes.fromhex(GOLDEN_BATCH))
        for _ in range(1500):
            yield bytes([VERSION]) + rng.randbytes(rng.randrange(0, 48))
            yield rng.randbytes(rng.randrange(0, 48))
        for vector in vectors:
            for cut in range(len(vector)):
                yield vector[:cut]
            for _ in range(300):
                mutant = bytearray(vector)
                for _ in range(rng.randrange(1, 4)):
                    mutant[rng.randrange(1, len(mutant))] ^= \
                        1 << rng.randrange(8)
                yield bytes(mutant)

    def test_only_codec_error_escapes(self):
        decoded = rejected = 0
        for data in self._mutants():
            for decode in (decode_message, decode_batch):
                try:
                    decode(data)
                    decoded += 1
                except CodecError:
                    rejected += 1
        assert rejected > 5000
        assert decoded > 0  # some flips land in a value and still parse

    def test_nesting_past_the_recursion_limit_is_a_codec_error(self):
        # flags, src, dst, mtype tag 1, then 5 000 one-element tuples
        frame = bytes([VERSION, 0, 0, 2, 1]) + bytes([7, 1]) * 5000
        with pytest.raises(CodecError):
            decode_message(frame)

    def test_constructor_and_unicode_failures_are_codec_errors(self):
        capability = bytearray.fromhex(GOLDEN["capability"])
        at = capability.index(b"dsm")
        capability[at:at + 3] = b"xyz"  # Capability() rejects transport
        with pytest.raises(CodecError):
            decode_message(bytes(capability))
        capability[at:at + 3] = b"\xff\xfe\xfd"  # not utf-8
        with pytest.raises(CodecError):
            decode_message(bytes(capability))
        # a list as a dict key (unhashable): tag 9, count 1, key [ ]
        frame = bytes([VERSION, 0, 0, 2, 1, 9, 1, 8, 0, 0, 128, 1, 2])
        with pytest.raises(CodecError):
            decode_message(frame)
