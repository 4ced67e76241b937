"""The receiver's in-order fast path in ``ReliableChannel.accept`` is
exact, as a property.

An in-order arrival with nothing held out of order only moves the
cumulative floor and schedules the ack. ``OracleChannel.accept`` below is
the general bookkeeping every arrival used to run, kept verbatim as the
reference. Drawn arrival runs from two senders — in order, reordered,
duplicated, with gaps, and far enough past a small ``dedup_window`` that
the out-of-order set is trimmed and the floor jumps — feed both channels,
with ack timers left to fire between some arrivals. After every step the
two agree on the return value, the floor, the held seqs, the duplicate
and coalescing counters and every ack sent.

The example budget is the hypothesis profile's (``tests/conftest.py``):
CI runs this file again under ``--hypothesis-profile=ci``.
"""

from hypothesis import given, settings, strategies as st

from repro.net.message import Message
from repro.net.reliable import ReliableChannel
from repro.sim import Simulator

SENDERS = (1, 2)
TICK = "tick"


class OracleChannel(ReliableChannel):
    """``accept`` as it was before the in-order fast path."""

    def accept(self, message: Message) -> bool:
        sender, seq = message.rel  # type: ignore[misc]
        floor = self._floor.get(sender, 0)
        seen = self._seen.setdefault(sender, set())
        if seq <= floor or seq in seen:
            self.duplicates_suppressed += 1
            self._flush_ack(sender)
            return False
        seen.add(seq)
        while floor + 1 in seen:
            floor += 1
            seen.discard(floor)
        self._floor[sender] = floor
        if len(seen) > self.dedup_window:
            trim = sorted(seen)[:len(seen) - self.dedup_window]
            for stale in trim:
                seen.discard(stale)
            if trim[-1] > floor:
                floor = trim[-1]
                while floor + 1 in seen:
                    floor += 1
                    seen.discard(floor)
                self._floor[sender] = floor
        self._schedule_ack(sender)
        return True


class Wire:
    """Stands in for the fabric: records every ack the channel sends."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append((message.dst, message.mtype, message.payload))


@st.composite
def arrival_run(draw):
    """One sender's seqs 1..n with some lost, some repeated and some
    moved a few places later."""
    n = draw(st.integers(0, 30))
    lost = draw(st.sets(st.integers(1, max(n, 1)), max_size=n // 2))
    seqs = [seq for seq in range(1, n + 1) if seq not in lost]
    for at in draw(st.lists(st.integers(0, 40), max_size=6)):
        if seqs:
            at %= len(seqs)
            seqs.insert(at, seqs[at])
    for at, by in draw(st.lists(st.tuples(st.integers(0, 40),
                                          st.integers(1, 4)), max_size=8)):
        if seqs:
            at %= len(seqs)
            seqs.insert(min(at + by, len(seqs) - 1), seqs.pop(at))
    return seqs


@st.composite
def programs(draw):
    """Both senders' runs interleaved, with ack-timer ticks among them."""
    runs = {sender: draw(arrival_run()) for sender in SENDERS}
    order = draw(st.permutations(
        [sender for sender, seqs in runs.items() for _ in seqs]
        + [TICK] * draw(st.integers(0, 6))))
    steps, taken = [], {sender: 0 for sender in SENDERS}
    for item in order:
        if item == TICK:
            steps.append(TICK)
        else:
            steps.append((item, runs[item][taken[item]]))
            taken[item] += 1
    return steps


def observe(channel):
    return (dict(channel._floor),
            {sender: set(seen) for sender, seen in channel._seen.items()
             if seen},
            channel.duplicates_suppressed, channel.acks_coalesced,
            channel.acks_sent, list(channel.fabric.sent))


def build(cls, dedup_window, ack_delay):
    sim = Simulator()
    return sim, cls(sim, Wire(), 0, dedup_window=dedup_window,
                    ack_delay=ack_delay)


@settings(deadline=None)
@given(steps=programs(), dedup_window=st.integers(1, 6),
       ack_delay=st.sampled_from([0.0, 1e-3]))
def test_fast_path_matches_the_general_bookkeeping(steps, dedup_window,
                                                   ack_delay):
    fast_sim, fast = build(ReliableChannel, dedup_window, ack_delay)
    oracle_sim, oracle = build(OracleChannel, dedup_window, ack_delay)
    for step in steps:
        if step == TICK:
            for sim in (fast_sim, oracle_sim):
                sim.run(until=sim.now + 2e-3)
        else:
            sender, seq = step
            got = fast.accept(Message(src=sender, dst=0, mtype="t.data",
                                      rel=(sender, seq)))
            want = oracle.accept(Message(src=sender, dst=0, mtype="t.data",
                                         rel=(sender, seq)))
            assert got == want, step
        assert observe(fast) == observe(oracle), step
    for sim in (fast_sim, oracle_sim):
        sim.run()
    assert observe(fast) == observe(oracle)
