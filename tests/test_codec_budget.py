"""What one envelope costs the wire codec, in Python frames.

Every cross-shard post is encoded into a window batch on one side and
decoded on the other, and every tcp post and ack is one envelope each
way.  The codec writes and reads each registered shape in straight-line
code compiled from its plan rows, so a post costs a handful of frames,
not one or two per value as the generic writer and reader did.  These
tests count the Python frames (``sys.setprofile`` call events) that one
``encode_*`` / ``decode_*`` makes for the envelopes the E17 workloads
move, warm (the first use compiles the codec), and hold each to a
literal budget that is at most half of what the generic codec made for
the same envelope.
"""

import pytest

from repro.events.block import EventBlock
from repro.net.message import Message
from repro.objects.capability import Capability
from repro.transport import codec
from tests.frames import FrameCensus

SINK = Capability(oid=21, home=20, transport="rpc", cls_name="Sink")


def block(user_data: int, block_id: int, durable_id=None) -> EventBlock:
    posted = EventBlock("E17", raiser_node=3, target=SINK,
                        user_data=user_data, raised_at=0.25)
    posted.block_id = block_id
    posted.durable_id = durable_id
    return posted


def sharded_post(block_id: int = 40) -> Message:
    """A ``sharded_mix`` post: multi-byte user data and msg id."""
    return Message(src=33, dst=20, mtype="event.post-object", size=128,
                   msg_id=5000, payload={"block": block(4000, block_id),
                                         "oid": 21})


#: name -> (envelope or batch records, encode, decode)
CASES = {
    "sharded post": (sharded_post(), codec.encode_message,
                     codec.decode_message),
    # a tcp_closed post: reliable, journaled (durable_id), multi-byte ids
    "durable post": (Message(
        src=1, dst=2, mtype="event.post-object", size=128, msg_id=5000,
        rel=(1, 900), payload={"block": block(25, 4000, (1, 900)),
                               "oid": 3}),
        codec.encode_message, codec.decode_message),
    "store.ack": (Message(
        src=0, dst=2, mtype="store.ack", size=48, msg_id=5000, ack=7,
        payload={"acks": [((2, 3), "delivered"), ((2, 4), "delivered")]}),
        codec.encode_message, codec.decode_message),
    "rel.ack": (Message(src=1, dst=0, mtype="rel.ack", size=32, msg_id=17,
                        payload={"cum": 6}),
                codec.encode_message, codec.decode_message),
    "10-post batch": ([(0.25 + i * 1e-3, 3000 + i, sharded_post(63 + i), 20)
                       for i in range(10)],
                      codec.encode_batch, codec.decode_batch),
}

#: frames per (encode, decode) the generic codec made for these cases
GENERIC = {
    "sharded post": (32, 40), "durable post": (39, 52),
    "store.ack": (31, 46), "rel.ack": (13, 15),
    "10-post batch": (341, 423),
}

#: frames per (encode, decode) now: the public function, the envelope
#: (the dict payload in place), the event block, the capability and a
#: tuple each, and for a decode ``_decoding``
BUDGET = {
    "sharded post": (4, 5), "durable post": (5, 6),
    "store.ack": (7, 8), "rel.ack": (2, 3),
    "10-post batch": (32, 33),
}


def frames(fn, arg) -> int:
    with FrameCensus() as census:
        fn(arg)
    return sum(census.values())


def test_every_budget_is_at_most_half_the_generic_count():
    assert set(BUDGET) == set(GENERIC) == set(CASES)
    for name, (encode, decode) in BUDGET.items():
        generic_encode, generic_decode = GENERIC[name]
        assert encode <= generic_encode // 2, name
        assert decode <= generic_decode // 2, name


@pytest.mark.parametrize("name", sorted(CASES))
def test_frames_per_envelope(name):
    value, encode, decode = CASES[name]
    data = encode(value)
    decode(data)  # warm: compiled
    counted = frames(encode, value), frames(decode, data)
    budget = BUDGET[name]
    assert counted[0] <= budget[0] and counted[1] <= budget[1], counted
