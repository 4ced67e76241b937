"""What a yield and an external raise cost in Python frames, and what
the request objects they build are.

A home-node object post builds one ``SimFuture`` (the external raise's
answer, built already resolved with no frame) and one request on the
master handler thread (the handler's ``compute``), and reads the clock
twice (the delivery stamp and the handler's own ``ctx.now``). The
handler's generator is the master's frame itself: its ``compute``
runs inline when nothing else is due by its end, and when it ends the
master takes the next post in the same step. Each request is a plain
``__slots__`` class built by its own ``__init__`` — a ``ctx`` method
that only passes its argument on is the class itself — a future
settles in one frame, and ``ctx.now`` is a C-level getter. These tests
hold the frames per post, the same on both scheduler backends (a busy
master, a parked one, a durable post arriving by message and one from
its raise to its ack's commit), per ``compute`` step of a thread-based
handler and per notice to a thread two nodes from its root, counted by
``tests/frames.py``; and the absence of an instance ``__dict__``, every
type's keyword construction, defaults and ``repr``, and the NaN rule of
the three time validators.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro import Capability, DistObject, entry
from repro.errors import KernelError, ProcessError
from repro.events.handlers import HandlerContext
from repro.kernel.timers import TimerService
from repro.sim import Channel, SimFuture, Simulator
from repro.threads import syscalls as sc
from repro.threads.attributes import TimerSpec
from repro.threads.thread import RECV_FOLDS
from tests.conftest import make_cluster, run_to_result
from tests.frames import (
    BURST,
    N,
    PATHS,
    arrived_post_frames,
    breakdown,
    chain_compute_frames,
    chase_frames,
    durable_frames,
    parked_post_frames,
    post_frames,
)
from tests.test_syscall_surface import SYSCALLS

#: Python frames per home-node post, everything counted, on either
#: backend: ``raise_event`` (bound to ``raise_external`` itself, which
#: builds its future resolved with route's count) → ``_open`` (the
#: event-name table and the target's type checked inline), route, and
#: ``post_object``, which accepts, looks
#: the handler up in the routing table and queues the post
#: (``run_object_handler``), all inside the raise; the handler's two
#: generator resumptions, ``Compute.__init__`` and the ``advance_to``
#: that lets the master's step carry on at the compute's end; the
#: frame's exit (``frame_returned`` popping it inline) and the master's
#: ``frame_exit``, which concludes the post and starts the next after
#: one ``nothing_due_now``; and a scheduled step per 32 posts, when the
#: step's fold budget is spent. 17 while the compute was a ``call_at``,
#: a timed pop and a new ``_step``; 20 / 22 (heap / wheel) while ``raise_event``
#: was a relay, the future was built by ``SimFuture.__init__`` and
#: completed by ``settle``, and the wheel pushed through ``_place`` and
#: made a miss pop after each clock move; 35 / 37 while the raise went
#: through ``_raise``, ``require_event`` and
#: ``normalize_target``, the home-node post through ``_handle_object_post``,
#: ``_run_object_post``, ``ObjectManager.get``, ``object_handler_fn`` and
#: ``DistObject.oid``, the compute through ``_dispatch``,
#: ``schedule_step_after`` and ``call_after``, the return through
#: ``pop_frame`` and ``clear_failures``, and ``nothing_due_now`` through
#: ``_timed_due_now`` and ``_live_at``; 42 / 44 while every handler ran
#: under ``_serve`` under ``_master_loop``, which took each post with a
#: ``Recv``; 49 / 51 while the requests were frozen dataclasses (builder
#: + generated ``__init__`` + ``__post_init__``), the future completed
#: through ``settle`` → ``_complete`` → ``done`` and ``ctx.now`` was a
#: property frame.
FRAME_BUDGET = {"heap": 15, "wheel": 15}

#: the same, one post per millisecond, so each finds the master parked
#: and wakes it with one scheduled step, a ``call_at`` from
#: ``run_object_handler`` (the pump's own frame included): 22 while the
#: wake went through ``resume_with``, ``schedule_step`` and
#: ``call_soon``, 24 with the compute's wake-up scheduled, 27 / 30 with
#: the raise's three relays and the wheel's two above, 28 /
#: 31 while ``run_frame`` started the frame through ``push_frame``
#: and ``step_now``, 41 / 44 with the relays above, 49 / 52 with the
#: ``Recv`` park and the channel hand-off
PARKED_BUDGET = {"heap": 19, "wheel": 19}

#: the relays a parked master's wake paid and must not again
PARKED_GONE = {("thread.py", "resume_with"), ("thread.py", "schedule_step"),
               ("scheduler.py", "call_soon")}

#: a durable post that arrives by message at its object's home node,
#: from the arrival on: the reliable channel's accept and ack, the
#: journal's ``post`` record, the handler, the applied marker and the
#: owed ack's flush; 25 while the arrival passed through
#: ``_on_post_object`` and ``append_batch`` stamped each ``ack`` record
#: through ``append``, 26 while each of the burst's messages took a
#: scheduler entry of its own (a ``call_at`` and a timed pop; they now
#: ride on one, ``Simulator.ride``), 28 with the compute's wake-up
#: scheduled, 28 / 30 with the wheel's relays above, 36 / 38
#: with the relays in ``DURABLE_GONE`` too, 47 / 50 with the relays
#: above too
ARRIVED_BUDGET = {"heap": 23, "wheel": 23}

#: scheduler callbacks over the N posts of the two message-borne
#: durable paths, the census's second unit (``python -m tests.frames``
#: prints them per post: 0.06 and 0.52); 270 and 371 (1.05 and 1.45 per
#: post) while each message took a scheduler entry of its own
CALLBACK_BUDGET = {"arrived": 16, "durable": 132}

#: a durable post from its raise on node 0 to the commit of its ack
#: there, BURST every GAP to a private-state sink on node 1: the raise,
#: ``journal_post`` (``Outbox.record`` and the ``post`` record), the
#: reliable send, the fabric hop, the receive path above, the ``ack``
#: record of the ``store.ack`` batch and this post's share of the
#: checkpoints and of the acks of both channels; 40 with the relays
#: ``Kernel.transmit`` and ``_on_post_object`` and ``append_batch``'s
#: stamps through ``append``, 41 while each message of a burst took a
#: scheduler entry of its own, 43 with the compute's
#: wake-up scheduled, 48 / 52 with the
#: raise's and the wheel's relays above and the message hop's
#: ``routable`` and ``delay`` (``Fabric.send`` probes its endpoint dict
#: and reads ``FixedLatency``'s floats), 66 / 70 through the relays in
#: ``DURABLE_GONE`` too
DURABLE_BUDGET = {"heap": 37, "wheel": 37}

#: one ``compute`` step of a thread-based handler on its surrogate: the
#: generator, ``Compute.__init__`` and ``advance_to``, the surrogate's
#: scheduled step carrying on at the compute's end; 5 while each step
#: was a timed pop, ``_step`` and ``call_at``, 5 / 7 while the wheel
#: added ``_place`` and its miss pop,
#: 8 / 10 through ``_dispatch``, ``schedule_step_after`` and
#: ``call_after``
COMPUTE_BUDGET = {"heap": 3, "wheel": 3}

#: a notice raised on node 3 to a thread rooted on node 0 that sleeps
#: on node 2, one per millisecond (the pump's frame included): route
#: and the local probe on node 3, the §7.1 path locate (three messages,
#: each ``_forward`` -> transmit -> fabric -> ``on_message`` ->
#: ``_arrived``, one TCB probe per node), the enqueue and the
#: suspension, then three thread-based handlers on the surrogate (per
#: run: ``_offer``, ``_execute_registration``, the ``SURROGATE_COST``
#: timer, ``_run_on_surrogate``, ``run_frame``, the handler's two
#: steps and its ``compute`` timer, ``frame_returned``,
#: ``_handler_exited``, ``_decided``) and the conclusion; 117 / 136
#: with the raise's three relays, the wheel's and each message's
#: ``routable`` and ``delay`` (3 messages per notice), 178 / 197
#: through the relays in ``CHASE_GONE`` (179 / 198 when the census also
#: counted ``snapshot``'s list comprehension), 122 / 141 with the raise's
#: ``innermost_here`` probe and each handler's ``effective_deadline``,
#: 118 / 137 with the conclusion's ``current_node``, 108 while each
#: message took a scheduler entry of its own (108.02; a few now ride),
#: 107 while ``Kernel.transmit`` relayed each datagram through
#: ``_send_datagram`` (107.98), 104 while each delivery recorded its
#: latency in the executor's reservoir (104.98)
CHASE_BUDGET = {"heap": 103, "wheel": 103}

#: frames the old objects and relays paid and the new ones must not
GONE = {("syscalls.py", "__post_init__"), ("<string>", "__init__"),
        ("primitives.py", "_complete"), ("primitives.py", "done"),
        ("context.py", "now"), ("context.py", "compute"),
        ("context.py", "recv"), ("manager.py", "_master_loop"),
        ("manager.py", "_serve"), ("primitives.py", "__len__"),
        ("delivery.py", "_raise"), ("names.py", "require_event"),
        ("route.py", "normalize_target"),
        ("post.py", "_handle_object_post"), ("post.py", "_run_object_post"),
        ("manager.py", "get"), ("manager.py", "object_handler_fn"),
        ("base.py", "oid"), ("thread.py", "_dispatch"),
        ("thread.py", "schedule_step_after"), ("scheduler.py", "call_after"),
        ("thread.py", "pop_frame"), ("supervise.py", "clear_failures"),
        ("scheduler.py", "_timed_due_now"), ("scheduler.py", "_live_at"),
        ("boot.py", "raise_event"), ("primitives.py", "__init__"),
        ("primitives.py", "settle")}

#: the wheel's bucket push, gone from every path (its miss pop would
#: show in ``test_the_wheel_costs_what_the_heap_does``)
WHEEL_GONE = {("scheduler.py", "_place")}

#: the message hop's routing probe and latency call, which every locate
#: message, reliable send and ack paid
HOP_GONE = {("base.py", "routable"), ("latency.py", "delay")}

#: the relays a notice to a chased thread paid and must not again: the
#: locate hop's ``_hop``, ``_accept`` and membership check and its TCB
#: probe's ``get``; the chain step's ``current_object``, ``procedure``,
#: ``call_after``, ``push_frame``, ``step_now``, park (``block``),
#: ``_outcome``, ``in_order`` and ``__len__``, ``take_stash``,
#: ``DistObject.oid`` and ``effective_deadline``; the raise's
#: ``innermost_here``; the conclusion's ``current_node``;
#: ``ThreadId.__hash__``; the kernel's datagram relay
#: ``_send_datagram``; and each message's ``HOP_GONE``
CHASE_GONE = {("path.py", "_hop"), ("base.py", "_accept"),
              ("base.py", "_membership"), ("membership.py", "enabled"),
              ("tcb.py", "get"), ("thread.py", "current_object"),
              ("perthread.py", "procedure"), ("scheduler.py", "call_after"),
              ("thread.py", "push_frame"), ("thread.py", "step_now"),
              ("thread.py", "block"), ("execute.py", "_outcome"),
              ("handlers.py", "in_order"), ("handlers.py", "__len__"),
              ("thread.py", "take_stash"), ("base.py", "oid"),
              ("supervise.py", "effective_deadline"),
              ("tcb.py", "innermost_here"), ("thread.py", "current_node"),
              ("ids.py", "__hash__"),
              ("node.py", "_send_datagram"),
              ("stats.py", "record")} | HOP_GONE

#: the relays a durable post paid and must not again: the journal's
#: ``_stamp`` and ``JournalRecord.__init__`` per record; the checkpoint
#: countdown's ``_after_append``, ``enabled`` and ``note_append`` per
#: journaled operation; the owed ack's ``_owe_ack``; the reliable
#: channel's ``_peer``, ``_dispatch`` and ``_Pending.__init__`` per send
#: (``OutboxEntry``'s dataclass ``__init__`` is counted below); the
#: kernel's ``transmit`` in front of the reliable send and the
#: ``event.post-object`` handler's ``_on_post_object`` in front of
#: ``post_object``; and each message's ``HOP_GONE``
DURABLE_GONE = {("journal.py", "_stamp"), ("journal.py", "__init__"),
                ("manager.py", "_after_append"), ("manager.py", "enabled"),
                ("checkpoint.py", "note_append"), ("manager.py", "_owe_ack"),
                ("reliable.py", "_peer"), ("reliable.py", "_dispatch"),
                ("reliable.py", "__init__"), ("node.py", "transmit"),
                ("post.py", "_on_post_object")} | HOP_GONE


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_home_node_post_frame_budget(scheduler):
    per_post, frames = post_frames(scheduler)
    # the run's tail (the master parking, run's own frames) is < 1 post
    assert math.floor(per_post) == FRAME_BUDGET[scheduler], frames
    assert not GONE & set(frames), frames


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_parked_master_post_frame_budget(scheduler):
    per_post, frames = parked_post_frames(scheduler)
    assert math.floor(per_post) == PARKED_BUDGET[scheduler], frames
    assert not (GONE | PARKED_GONE) & set(frames), frames
    # the wake is one scheduled step, the only instant hop of the post:
    # one ``call_at`` and one callback besides the pump's
    assert frames["scheduler.py", "call_at"] == N, frames
    assert frames.callbacks == 2 * N, frames


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_arrived_post_frame_budget(scheduler):
    per_post, frames = arrived_post_frames(scheduler)
    assert math.floor(per_post) == ARRIVED_BUDGET[scheduler], frames
    assert frames.callbacks <= CALLBACK_BUDGET["arrived"]
    assert not DURABLE_GONE & set(frames), frames
    assert frames["post.py", "post_object"] == N


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_durable_post_frame_budget(scheduler):
    per_post, frames = durable_frames(scheduler)
    assert math.floor(per_post) == DURABLE_BUDGET[scheduler], frames
    assert frames.callbacks <= CALLBACK_BUDGET["durable"]
    assert not DURABLE_GONE & set(frames), frames
    # the only dataclass built is each message, so no OutboxEntry
    assert frames["<string>", "__init__"] == frames["fabric.py", "send"]
    # one ``append`` per post and applied record; each ``store.ack``
    # batch's ``ack`` records are stamped inside one ``append_batch``
    assert frames["journal.py", "append"] >= 2 * N, frames
    assert frames["journal.py", "append_batch"] <= 2 * N // BURST, frames
    # a burst's messages share scheduler entries: under one timed pop
    # per post, and one ``ride`` per message that joined an entry
    assert frames["scheduler.py", "_pop_timed"] < N, frames
    assert frames["scheduler.py", "ride"] > N // 2, frames
    # an in-order arrival rides the open ack window inline: one window
    # per burst each way reaches ``_schedule_ack``
    assert frames["reliable.py", "_schedule_ack"] == 2 * N // BURST


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_chain_compute_step_frame_budget(scheduler):
    per_step, frames = chain_compute_frames(scheduler)
    assert math.floor(per_step) == COMPUTE_BUDGET[scheduler], frames
    # the notice's delivery arms two timers (the suspension's and the
    # surrogate's) and the first step, run inside it, a third; each
    # scheduled step then folds RECV_FOLDS computes and times the next
    # (N + 2 timers while every compute was one), all with call_at
    assert not {("thread.py", "_dispatch"),
                ("thread.py", "schedule_step_after"),
                ("scheduler.py", "call_after")} & set(frames), frames
    timed = 1 + (N - 1) // (RECV_FOLDS + 1)
    assert frames["scheduler.py", "call_at"] == 2 + timed, frames
    assert frames["scheduler.py", "advance_to"] == N - timed, frames


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_chased_thread_notice_frame_budget(scheduler):
    per_notice, frames = chase_frames(scheduler)
    assert math.floor(per_notice) == CHASE_BUDGET[scheduler], frames
    assert not CHASE_GONE & set(frames), frames
    # one TCB probe per node the locate visits and one for the raise's
    # local fast path on node 3, none a Python frame
    assert frames["path.py", "_arrived"] == 3 * N, frames


@pytest.mark.parametrize("path", sorted(PATHS))
def test_the_wheel_costs_what_the_heap_does(path):
    """Every pinned path enters the same functions the same number of
    times on both backends, but for the run's tail: an empty wheel
    looks at its overflow heap once more before the run ends."""
    heap, wheel = (PATHS[path](backend)[1] for backend in ("heap", "wheel"))
    assert not WHEEL_GONE & set(wheel), wheel
    tail = ("scheduler.py", "_timed_head")
    assert 0 <= wheel.pop(tail, 0) - heap.pop(tail, 0) <= 1
    assert heap == wheel


def test_the_census_prints_one_path_function_by_function(capsys):
    """``python -m tests.frames compute wheel`` prints this."""
    breakdown("compute", "wheel")
    head, *lines, rest = capsys.readouterr().out.splitlines()
    assert head.split()[:2] == ["compute", "wheel"]
    assert math.floor(float(head.split()[2])) == COMPUTE_BUDGET["wheel"]
    # and the second unit: the one notice's few callbacks over N steps
    assert head.split()[3:] == ["frames", "0.02", "callbacks", "per",
                                "post"]
    assert ["1.00", "syscalls.py:__init__"] in [line.split() for line in lines]
    assert rest.endswith("(the rest)")


# ----------------------------------------------------------------------
# the request objects
# ----------------------------------------------------------------------

CAP = Capability(oid=7, home=1, transport="rpc")
SIM = Simulator()
FUTURE = SimFuture(SIM)
CHANNEL = Channel(SIM)

#: name -> (keywords given, every field after construction, repr)
CONSTRUCTION = {
    "Compute": ({"seconds": 1.5}, {"seconds": 1.5}, "Compute(seconds=1.5)"),
    "SleepFor": ({"seconds": 0.0}, {"seconds": 0.0},
                 "SleepFor(seconds=0.0)"),
    "WaitFor": ({"future": FUTURE}, {"future": FUTURE},
                f"WaitFor(future={FUTURE!r})"),
    "Recv": ({"channel": CHANNEL}, {"channel": CHANNEL},
             f"Recv(channel={CHANNEL!r})"),
    "Invoke": ({"cap": CAP, "entry": "work"},
               {"cap": CAP, "entry": "work", "args": (),
                "as_handler": False, "handler_block": None},
               f"Invoke(cap={CAP!r}, entry='work', args=(), "
               "as_handler=False, handler_block=None)"),
    "InvokeAsync": ({"cap": CAP, "entry": "work", "args": (1,)},
                    {"cap": CAP, "entry": "work", "args": (1,),
                     "claimable": True},
                    f"InvokeAsync(cap={CAP!r}, entry='work', args=(1,), "
                    "claimable=True)"),
    "CreateObject": ({"cls": DistObject},
                     {"cls": DistObject, "node": None, "args": (),
                      "kwargs": {}, "transport": None},
                     f"CreateObject(cls={DistObject!r}, node=None, args=(), "
                     "kwargs={}, transport=None)"),
    "AttachHandler": ({"event": "E", "context": HandlerContext.ATTACHING,
                       "fn_name": "on_e"},
                      {"event": "E", "context": HandlerContext.ATTACHING,
                       "fn_name": "on_e", "target": None, "procedure": None,
                       "deadline": None},
                      f"AttachHandler(event='E', "
                      f"context={HandlerContext.ATTACHING!r}, "
                      "fn_name='on_e', target=None, procedure=None, "
                      "deadline=None)"),
    "Raise": ({"event": "E", "target": CAP},
              {"event": "E", "target": CAP, "user_data": None,
               "synchronous": False},
              f"Raise(event='E', target={CAP!r}, user_data=None, "
              "synchronous=False)"),
    "FieldAccess": ({"name": "w"}, {"name": "w", "value": None,
                                    "write": False},
                    "FieldAccess(name='w', value=None, write=False)"),
    "Call": ({"fn": len}, {"fn": len, "args": ()},
             "Call(fn=<built-in function len>, args=())"),
}


def test_the_table_covers_every_syscall():
    assert set(CONSTRUCTION) == SYSCALLS


@pytest.mark.parametrize("name", sorted(CONSTRUCTION))
def test_keyword_construction_defaults_and_repr(name):
    cls = getattr(sc, name)
    given, fields, text = CONSTRUCTION[name]
    request = cls(**given)
    assert {slot: getattr(request, slot) for slot in cls.__slots__} == fields
    assert repr(request) == text
    # positional construction in field order builds the same request
    assert repr(cls(*fields.values())) == text
    # identity, not field, equality: nothing compares or hashes requests
    assert request != cls(**given)


def test_create_object_kwargs_default_is_fresh():
    first = sc.CreateObject(cls=DistObject)
    second = sc.CreateObject(cls=DistObject)
    assert first.kwargs == {} and first.kwargs is not second.kwargs


def test_async_handle_is_slotted_with_fields_in_its_repr():
    handle = sc.AsyncHandle(tid="t1", result=None)
    assert not hasattr(handle, "__dict__")
    assert repr(handle) == "AsyncHandle(tid='t1', result=None)"


@pytest.mark.parametrize("name", sorted(CONSTRUCTION))
def test_requests_have_no_instance_dict(name):
    cls = getattr(sc, name)
    request = cls(**CONSTRUCTION[name][0])
    assert not hasattr(request, "__dict__")
    assert not dataclasses.is_dataclass(cls)
    with pytest.raises(AttributeError):
        request.extra = 1


def test_sim_future_has_no_instance_dict():
    assert not hasattr(SimFuture(SIM), "__dict__")


def test_builders_are_the_request_classes():
    """The four one-argument builders build in the request's own
    ``__init__``, with the builder's keyword."""
    cluster = make_cluster(n_nodes=1)
    seen = {}

    class Probe(DistObject):
        @entry
        def go(self, ctx):
            seen["now"] = ctx.now
            seen["requests"] = (ctx.compute(seconds=0.5),
                                ctx.sleep(seconds=0.25),
                                ctx.wait(future=FUTURE),
                                ctx.recv(channel=CHANNEL))
            yield ctx.compute(0.5)
            return ctx.now

    cap = cluster.create_object(Probe, node=0)
    thread = cluster.spawn(cap, "go", at=0)
    assert run_to_result(cluster, thread) == seen["now"] + 0.5 == cluster.now
    assert [type(r) for r in seen["requests"]] == [
        sc.Compute, sc.SleepFor, sc.WaitFor, sc.Recv]


# ----------------------------------------------------------------------
# NaN is not a time
# ----------------------------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: sc.Compute(NAN), lambda: sc.SleepFor(NAN),
    lambda: TimerSpec("TIMER", NAN), lambda: sc.Compute(-1.0),
    lambda: sc.SleepFor(-1.0), lambda: TimerSpec("TIMER", 0.0)],
    ids=["compute-nan", "sleep-nan", "timer-nan", "compute-neg",
         "sleep-neg", "timer-zero"])
def test_builders_refuse_nan_like_a_negative_time(build):
    with pytest.raises(ProcessError):
        build()


def test_kernel_timer_refuses_nan_like_a_zero_interval():
    timers = TimerService(Simulator(), 0)
    for interval in (NAN, 0.0):
        with pytest.raises(KernelError):
            timers.set(interval, lambda: None)
    assert timers.active() == []


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
@pytest.mark.parametrize("bad", ["compute", "sleep"])
def test_nan_yield_strands_no_other_thread(scheduler, bad):
    """A NaN time used to reach the scheduler: on the heap it stalled
    ``run()`` with another thread's ``compute(1.0)`` still pending, on
    the wheel it failed in ``floor``. It is a ``ProcessError`` thrown
    into the frame at the builder now, as a negative time is."""
    cluster = make_cluster(n_nodes=1, scheduler=scheduler)

    class Worker(DistObject):
        @entry
        def careless(self, ctx):
            yield ctx.compute(0.5)
            try:
                if bad == "compute":
                    yield ctx.compute(NAN)
                else:
                    yield ctx.sleep(NAN)
            except ProcessError:
                return "refused"

        @entry
        def steady(self, ctx):
            yield ctx.compute(1.0)
            return ctx.now

    cap = cluster.create_object(Worker, node=0)
    careless = cluster.spawn(cap, "careless", at=0)
    steady = cluster.spawn(cap, "steady", at=0)
    cluster.run(max_events=10_000)
    assert careless.completion.result() == "refused"
    assert steady.completion.result() == pytest.approx(1.0, abs=1e-2)
    assert cluster.sim.pending == 0
