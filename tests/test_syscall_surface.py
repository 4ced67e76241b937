"""The thread driver's syscall surface (DESIGN.md §4).

A syscall has a type of its own only where the driver does more than
call the kernel and resume: it charges time, blocks, moves or spawns a
thread, raises an event or faults a page. Every other ``Ctx`` operation
is one ``sc.Call`` of the kernel function its builder bound: the frame
resumes with that function's value one scheduler event after its yield,
or gets the function's exception thrown in at that yield — never out of
``cluster.run()``.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro import TRANSPORT_DSM, DistObject, entry, handler_entry
from repro.errors import EventNameInUseError, GroupError, SegmentError
from repro.events.block import EventBlock
from repro.threads import syscalls as sc
from repro.threads.attributes import IoChannel
from repro.threads.ids import GroupId
from repro.threads.thread import DThread
from tests.conftest import make_cluster

#: the driver's real choices: charge time, block, move or spawn a
#: thread, raise, attach (charged), fault a page — or call and resume
SYSCALLS = {"Compute", "SleepFor", "WaitFor", "Recv", "Invoke",
            "InvokeAsync", "CreateObject", "AttachHandler", "Raise",
            "FieldAccess", "Call"}


def test_syscall_types_are_exactly_the_driver_s_choices():
    kinds = {cls.__name__ for cls in sc.ThreadSyscall.__subclasses__()}
    assert kinds == SYSCALLS


def _branches(method) -> list[str]:
    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
    return [node.args[1].attr for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and isinstance(node.args[1], ast.Attribute)]


def test_dispatch_has_one_branch_per_syscall():
    """``_step`` schedules a ``Compute`` itself (no ``_dispatch`` frame
    for the commonest yield); every other syscall is one ``_dispatch``
    branch."""
    assert "Compute" in _branches(DThread._step)
    assert sorted(_branches(DThread._dispatch) + ["Compute"]) \
        == sorted(SYSCALLS)


class Word(DistObject):
    dsm_fields = {"w": 0}


class Probe(DistObject):
    """Runs ``prep`` then yields ``op`` once, counting the scheduler
    events between that yield and the frame's resumption."""

    @entry
    def run(self, ctx, sim, env, prep, op, want):
        if prep is not None:
            yield from prep(ctx, env)
        before = sim.events_processed
        try:
            value = yield op(ctx, env)
        except Exception as exc:  # noqa: BLE001 - the failing-call rows
            value = exc
        events = sim.events_processed - before
        return value, events, want(ctx, env) if callable(want) else want

    @handler_entry
    def on_e(self, ctx, block):
        yield ctx.compute(0.0)


def _attach(ctx, env):
    env["reg"] = yield ctx.attach_handler("E", "on_e")


def _private_copy(ctx, env):
    yield ctx.install_page(env["oid"], env["page"], {"w": 5}, private_for=1)


def _timer(ctx, env):
    env["spec"] = yield ctx.set_timer(100.0)


def _join(ctx, env):
    yield ctx.join_group(env["gid"])


def _block():
    return EventBlock(event="E", raiser_tid=None, raiser_node=0,
                      target=None, raised_at=0.0)


#: name -> (prep, op, resumed value — a literal or ``want(ctx, env)``)
FOLDED = {
    "detach_handler(reg_id)": (
        _attach, lambda ctx, env: ctx.detach_handler("E", env["reg"]), True),
    "detach_handler(top)": (
        _attach, lambda ctx, env: ctx.detach_handler("E"), True),
    "register_event": (
        None, lambda ctx, env: ctx.register_event("FRESH"), None),
    "resume_raiser": (
        None, lambda ctx, env: ctx.resume_raiser(_block(), "v"), None),
    "set_timer": (
        None, lambda ctx, env: ctx.set_timer(100.0),
        lambda ctx, env: ctx.attributes.timers[-1].spec_id),
    "cancel_timer": (
        _timer, lambda ctx, env: ctx.cancel_timer(env["spec"]), True),
    "install_page": (
        None, lambda ctx, env: ctx.install_page(env["oid"], env["page"],
                                                {"w": 7}), None),
    "merge_pages": (
        _private_copy, lambda ctx, env: ctx.merge_pages(env["oid"],
                                                        env["page"]),
        {"w": 5}),
    "io_write": (None, lambda ctx, env: ctx.io_write("hello"), None),
    "new_group": (None, lambda ctx, env: ctx.new_group(),
                  lambda ctx, env: ctx.gid),
    "join_group": (None, lambda ctx, env: ctx.join_group(env["gid"]),
                   lambda ctx, env: env["gid"]),
    "leave_group": (_join, lambda ctx, env: ctx.leave_group(),
                    lambda ctx, env: env["gid"]),
}

#: name -> (op, the exception thrown in at the yield)
FAILING = {
    "register_event(duplicate)": (
        lambda ctx, env: ctx.register_event("E"), EventNameInUseError),
    "join_group(unknown gid)": (
        lambda ctx, env: ctx.join_group(GroupId(0, 999)), GroupError),
    "install_page(unknown oid)": (
        lambda ctx, env: ctx.install_page(99999, 0, {"w": 1}),
        SegmentError),
}


def _probe(prep, op, want):
    cluster = make_cluster(n_nodes=2)
    cluster.register_event("E")
    word = cluster.create_object(Word, node=0, transport=TRANSPORT_DSM)
    env = {"oid": word.oid,
           "page": cluster.dsm.segment_of(word.oid).page_of("w").page_id,
           "gid": cluster.new_group()}
    probe = cluster.create_object(Probe, node=0)
    channel = IoChannel("tty")
    thread = cluster.spawn(probe, "run", cluster.sim, env, prep, op, want,
                           at=0, io_channel=channel)
    cluster.run()
    return thread, channel


@pytest.mark.parametrize("name", sorted(FOLDED))
def test_folded_call_resumes_with_its_value_after_one_event(name):
    thread, channel = _probe(*FOLDED[name])
    value, events, expected = thread.completion.result()
    assert value == expected
    assert events == 1
    if name == "io_write":
        assert channel.text() == "hello"


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_call_is_thrown_into_the_frame_at_its_yield(name):
    op, error = FAILING[name]
    thread, _ = _probe(None, op, None)
    assert thread.state == "done"
    value, events, _ = thread.completion.result()
    assert isinstance(value, error)
    assert events == 1
