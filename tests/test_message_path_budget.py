"""What one simulated message costs between ``Fabric.send`` and the
receiving endpoint.

Every post, forwarded notice, invocation and ack is one envelope, so this
path is paid ``msgs_per_post`` times per post. On the sim wire it is one
scheduler callback, and that callback is the fabric's own delivery hook;
the Python frames under ``src/repro`` from the send to the endpoint are
held to a budget, so a relay frame added anywhere on the path fails here.
Each case runs on both scheduler backends, on ``ShardSimTransport``'s
local path and under ``serializing_wire`` (whose codec frames are the
fixture's, not the path's, and are not counted).
"""

from pathlib import Path

import pytest

import repro
from repro.net import Fabric, FaultPlan, Message
from repro.sim.scheduler import make_simulator
from repro.transport.sharded import ShardSimTransport
from repro.transport.simlocal import SimTransport
from tests.frames import FrameCensus

SRC = Path(repro.__file__).resolve().parent
CODEC = str(SRC / "transport" / "codec.py")

#: Python frames under ``src/repro`` from ``Fabric.send`` to the endpoint,
#: the same on both backends: send, copies, post, call_at, run,
#: ``_drain``, one ``_pop_timed``, the hook; the sharded wire adds its own
#: ``post`` in front of the sim one. 10 / 12 (heap / wheel) while the
#: send asked ``transport.routable`` and ``FixedLatency.delay`` and the
#: wheel pushed through ``_place`` and made a miss pop at the new instant
FRAME_BUDGET = {
    ("heap", "sim"): 8, ("wheel", "sim"): 8,
    ("heap", "sharded"): 9, ("wheel", "sharded"): 9,
    ("heap", "serializing"): 8, ("wheel", "serializing"): 8,
}

WIRES = ("sim", "sharded", "serializing")


@pytest.fixture(params=[(s, w) for s in ("heap", "wheel") for w in WIRES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def wire(request, monkeypatch):
    """``(key, sim, fabric, inbox, scheduled)``: a two-node fabric on the
    drawn backend and wire; ``scheduled`` lists every callback passed to
    the scheduler's ``call_at``."""
    backend, kind = request.param
    if kind == "serializing":
        request.getfixturevalue("serializing_wire")
    sim = make_simulator(backend)
    if kind == "sharded":
        transport = ShardSimTransport(sim, local_nodes=range(2),
                                      all_nodes=range(4), lookahead=1e-3)
    else:
        transport = SimTransport(sim)
    fabric = Fabric(transport)
    inbox = []
    for node in range(2):
        fabric.attach(node, inbox.append)
    scheduled = []
    call_at = vars(type(sim))["call_at"]

    def spy(self, when, fn, *args):
        scheduled.append(fn)
        return call_at(self, when, fn, *args)

    monkeypatch.setattr(type(sim), "call_at", spy)
    return request.param, sim, fabric, inbox, scheduled


def is_delivery_hook(fn, fabric):
    return fn.__self__ is fabric and fn.__func__ is Fabric._deliver


def test_one_send_schedules_the_delivery_hook_once(wire):
    _, sim, fabric, inbox, scheduled = wire
    fabric.send(Message(src=0, dst=1, mtype="t.one"))
    assert len(scheduled) == 1 and is_delivery_hook(scheduled[0], fabric)
    sim.run()
    assert [m.mtype for m in inbox] == ["t.one"]
    assert len(scheduled) == 1
    assert fabric.stats.snapshot() == {
        "sent": 1, "delivered": 1, "dropped": 0, "bytes_sent": 64,
        "type:t.one": 1}


def test_python_frames_from_send_to_endpoint(wire):
    key, sim, fabric, _, _ = wire
    census = FrameCensus(lambda code: code.co_filename.startswith(str(SRC))
                         and code.co_filename != CODEC)
    fabric.detach(1)
    fabric.attach(1, census.stop)  # the endpoint
    message = Message(src=0, dst=1, mtype="t.frames")
    with census:
        fabric.send(message)
        sim.run()
    first = next(iter(census))  # keys keep the order of first entry
    assert (first == ("fabric.py", "send")
            and census.last == ("fabric.py", "_deliver"))
    assert sum(census.values()) <= FRAME_BUDGET[key], census


def test_a_duplicate_is_two_envelopes_with_one_rel(wire):
    """The copy is due when its original is and is posted right behind
    it, so it rides on the original's entry: one scheduled hook, one
    callback, two envelopes (two scheduled hooks before entries were
    shared)."""
    _, sim, fabric, inbox, scheduled = wire
    fabric.faults = FaultPlan(duplicate_rate=1.0)
    fabric.send(Message(src=0, dst=1, mtype="t.dup", rel=(0, 1)))
    assert len(scheduled) == 1 and is_delivery_hook(scheduled[0], fabric)
    assert sim.stats()["scheduled"] == 1
    sim.run()
    assert sim.stats()["executed"] == 1
    first, second = inbox
    assert first.msg_id != second.msg_id
    assert first.rel == second.rel == (0, 1)
    assert fabric.stats.sent == 1 and fabric.stats.delivered == 2
