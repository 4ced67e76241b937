"""The master handler thread serves posts as before, as a property.

``ObjectManager`` runs each object post as a frame on its master's kept
activation: the handler's generator is the frame, and when it ends the
master's ``frame_exit`` concludes the post and takes the next one in the
same step (or hops, or parks). The class below is the manager it
replaced — ``run_object_handler``, ``_ensure_master``, ``_master_loop``,
``_spawn_per_event_thread``, ``_serve`` and ``_arm_watchdog`` over a
``Channel``, and the engine's ``adopt_loop_thread`` — kept verbatim as
the reference. Drawn same-instant programs of posts to one to three
objects, whose handlers return, raise, compute, sleep or overrun a
``handler_deadline``, mixed with ``call_soon`` callbacks and timers due
at the posts' instant, run on both, on the heap and the wheel, in master
and in per-event mode: the handler history with virtual times, every
conclusion, ``(now, scheduled, executed)`` and the ``events_served``
count must be the same (per-event mode: one instant's records compared
as a set, and the scheduler counts, one event less per thread made,
compared on runs with the compute fold off: the instant's order decides
which compute wake-ups run inline).

Crash draws, in both modes, run on the new manager only and are held to
the standing invariant (every raised post concluded exactly once): the
reference loses a post that lands on a woken master's node in the
instant it crashes. Their programs also raise TERMINATE at node 0's
loop threads, which are no event targets.

The example budget is the hypothesis profile's (``tests/conftest.py``):
CI runs this file again under ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro import DistObject, on_event
from repro.errors import HandlerTimeout
from repro.events.block import EventBlock
from repro.events.route import Router
from repro.events.settle import Settler
from repro.kernel import boot
from repro.kernel.config import OBJ_EVENTS_MASTER, OBJ_EVENTS_PER_EVENT
from repro.objects.invocation import InvocationEngine
from repro.objects.manager import ObjectManager
from repro.sim.primitives import Channel
from repro.sim.scheduler import Simulator, WheelSimulator
from repro.threads.thread import Activation, DThread, KIND_KERNEL, KIND_USER
from tests.conftest import Conclusions, make_cluster

# ======================================================================
# the reference: the master loop over a channel, verbatim
# ======================================================================


def adopt_loop_thread(self, node: int, gen_fn: Any, name: str,
                      kind: str, *gen_args: Any) -> DThread:
    """Create a loop thread whose life is the one frame ``gen_fn``,
    first stepped after the work already queued for this instant."""
    thread = self.create_loop_thread(node, name, kind)
    act = Activation(obj=None, entry=name, gen=None, node=node)
    thread.push_frame(act)
    act.gen = gen_fn(act.ctx, *gen_args)
    thread.schedule_step(None, None)
    return thread


class ReferenceObjectManager(ObjectManager):
    """The registry of ``ObjectManager``; the master of the old one."""

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        self._queue: Channel[Any] = Channel(kernel.sim)
        #: handler runs in progress right now (0 when idle)
        self.serving = 0

    def run_object_handler(self, obj: DistObject, fn: Callable,
                           block: EventBlock,
                           on_exit: Callable[[Any, Any], None]) -> None:
        """Execute an object's handler for an event posted to it.

        ``fn`` is the bound handler method (a generator function taking
        ``(ctx, event_block)``). ``on_exit(value, error)`` is called
        exactly once, inside the run's last step, so the post concludes
        before the next handler starts: with the return value, the
        exception raised, ``GeneratorExit`` (the node crashed) or the
        watchdog's :class:`~repro.errors.HandlerTimeout`.

        A home-node post calls this inside its own raise. Nothing runs
        here: the post joins the master's queue, and a parked master is
        woken by one scheduled step (a busy one takes it, in FIFO
        order, in the step that finishes the run before it).
        """
        mode = self.kernel.config.object_event_mode
        if mode == OBJ_EVENTS_MASTER:
            self._queue.put((obj, fn, block, on_exit))
            self._ensure_master()
        else:
            self._spawn_per_event_thread(obj, fn, block, on_exit)

    def _ensure_master(self) -> None:
        if self._master is not None and self._master.alive:
            return
        # The master is created once (its creation cost is paid once, at
        # first use — the whole point of the optimisation).
        self.handler_threads_created += 1
        self._master = self.kernel.invoker.adopt_loop_thread(
            self.node_id, self._master_loop, "obj-event-master", KIND_KERNEL)

    def _master_loop(self, ctx):
        """Body of the per-node master handler thread."""
        while True:
            work = yield ctx.recv(self._queue)
            yield from self._serve(ctx, work)

    def _spawn_per_event_thread(self, obj: DistObject, fn: Callable,
                                block: EventBlock,
                                on_exit: Callable[[Any, Any], None]) -> None:
        self.handler_threads_created += 1

        def one_shot(ctx):
            # Creation cost is charged by spawn machinery below.
            yield from self._serve(ctx, (obj, fn, block, on_exit))

        def create() -> None:
            self.kernel.invoker.adopt_loop_thread(
                self.node_id, one_shot, "obj-event-oneshot", KIND_KERNEL)

        # Charge the thread-creation cost the master mode avoids.
        self.kernel.sim.call_after(self.kernel.config.thread_create_cost,
                                   create)

    def _serve(self, ctx, work):
        """Run one handler within the object's context (shared by modes)."""
        obj, fn, block, on_exit = work
        activation = ctx._activation
        activation.obj = obj
        previous_block, activation.event_block = activation.event_block, block
        block.delivered_at = ctx.now
        self.events_served += 1
        if block.durable_id is not None:
            # Atomic with the handler's first segment (no yield between
            # here and fn's first statement): a crash earlier redelivers,
            # a crash later suppresses — exactly-once either way.
            self.kernel.store.mark_applied(block.durable_id)
        if "event" not in self.kernel.tracer.muted:
            self.kernel.tracer.emit("event", "object-handler", oid=obj.oid,
                                    event=block.event, node=self.node_id)
        self.serving += 1
        # Whoever ends the run — this frame or its watchdog — takes the
        # exit out of the cell, so it is reported once.
        exit_cell = [on_exit]
        watchdog = self._arm_watchdog(ctx._thread, obj, block, exit_cell)
        value = error = None
        try:
            value = yield from fn(ctx, block)
        except BaseException as exc:  # noqa: BLE001 - handler crash is data
            error = exc
        finally:
            if watchdog is not None:
                self.kernel.sim.cancel(watchdog)
            self.serving -= 1
        activation.obj = None
        activation.event_block = previous_block
        if exit_cell:
            exit_cell.pop()(value, error)

    def _arm_watchdog(self, thread: DThread, obj: DistObject,
                      block: EventBlock, exit_cell: list):
        """Watchdog over one object-handler run (``handler_deadline``).

        A hung handler would otherwise wedge the node's master handler
        thread, starving every later post to objects homed here. On
        expiry the executing thread is destroyed, a fresh master is
        spawned if work is waiting, and the run exits with
        :class:`~repro.errors.HandlerTimeout`. Returns the timer handle
        (None when the knob is off — no timer, no extra simulator event).
        """
        deadline = self.kernel.config.handler_deadline
        if deadline is None:
            return None

        def expire() -> None:
            if not exit_cell or not thread.alive:
                return
            supervisor = self.kernel.events.supervisor
            supervisor.counters["handler_timeouts"] += 1
            if "supervise" not in self.kernel.tracer.muted:
                self.kernel.tracer.emit("supervise", "handler-timeout",
                                        event=block.event, oid=obj.oid,
                                        node=self.node_id, deadline=deadline)
            error = HandlerTimeout(
                f"object handler for {block.event} on oid {obj.oid} "
                f"exceeded {deadline}s")
            # Take the exit first: the destroy below unwinds the
            # generator, whose own exit must find the cell empty.
            on_exit = exit_cell.pop()
            self.kernel.invoker.destroy_thread_abrupt(thread, error)
            if self._master is thread:
                # The master died with the hung handler; respawn it if
                # posts are waiting (otherwise first use re-creates it).
                self._master = None
                if len(self._queue):
                    self._ensure_master()
            on_exit(None, error)

        return self.kernel.sim.call_after(deadline, expire)


@contextmanager
def _no_compute_fold():
    """Every ``compute`` wake-up scheduled, none run inline."""
    with mock.patch.object(Simulator, "advance_to", lambda self, when: False), \
            mock.patch.object(WheelSimulator, "advance_to",
                              lambda self, when: False):
        yield


@contextmanager
def _reference():
    """Clusters built inside this block run the reference manager."""
    with mock.patch.object(boot, "ObjectManager", ReferenceObjectManager), \
            mock.patch.object(InvocationEngine, "adopt_loop_thread",
                              adopt_loop_thread, create=True):
        yield


# ======================================================================
# drawn programs
# ======================================================================

KINDS = ("return", "raise", "compute", "sleep", "overrun")
#: one instant's gap between the parts of a program (past every handler
#: but an overrun one, so later posts meet busy, parked and new masters)
GAP = 3e-4
DEADLINE = 2e-3


class Sink(DistObject):
    """Logs each handler's start and end with the virtual time."""

    def __init__(self, index, log):
        super().__init__()
        self._index = index
        self._log = log

    @on_event("WORK")
    def on_work(self, ctx, block):
        pos, kind = block.user_data
        self._log.append((ctx.now, "start", self._index, pos))
        if kind == "compute":
            yield ctx.compute(1e-4)
        elif kind == "sleep":
            yield ctx.sleep(2e-4)
        elif kind == "overrun":
            yield ctx.sleep(10 * DEADLINE)
        elif kind == "raise":
            raise RuntimeError(pos)
        self._log.append((ctx.now, "end", self._index, pos))
        return pos


post = st.tuples(st.just("post"), st.integers(0, 2), st.sampled_from(KINDS),
                 st.integers(0, 1), st.booleans())
soon, timer, later, terminate = (
    st.tuples(st.just(name)) for name in ("soon", "timer", "later",
                                          "terminate"))
step = st.one_of(post, post, soon, timer, later)


def _run(program, n_objects, deadline, scheduler, crash=None, **config):
    cluster = make_cluster(n_nodes=2, scheduler=scheduler,
                           handler_deadline=deadline, **config)
    cluster.register_event("WORK")
    log, futures, seen = [], [], Conclusions()
    caps = [cluster.create_object(Sink, index, log, node=0)
            for index in range(n_objects)]
    sim = cluster.sim
    route, conclude = Router.route, Settler.conclude

    def counting_route(self, block):
        seen.raised.append(block.block_id)
        return route(self, block)

    def recording_conclude(self, block, outcome, value=None, error=None,
                           *args, **kwargs):
        concluded = conclude(self, block, outcome, value, error, *args,
                             **kwargs)
        if concluded:
            seen.outcomes[block.block_id, outcome] += 1
            log.append((sim.now, "concluded", block.user_data, outcome,
                        value, type(error).__name__))
        return concluded

    # every part's timers are queued before the run, so each is due at
    # its part's instant ahead of that part's posts
    parts = [[]]
    for item in program:
        if item[0] == "later":
            parts.append([])
        else:
            parts[-1].append(item)
    for number, part in enumerate(parts):
        at = number * GAP
        for pos, item in enumerate(part):
            if item[0] == "timer":
                sim.call_at(at, log.append, (at, "timer", number, pos))

    def play(number, part):
        for pos, (kind, *args) in enumerate(part):
            if kind == "soon":
                sim.call_soon(log.append, (sim.now, "soon", number, pos))
            elif kind == "terminate":
                # at every loop thread on node 0: none is an event target
                for thread in list(cluster.live_threads.values()):
                    if thread.kind != KIND_USER and thread.current_node == 0:
                        cluster.raise_event("TERMINATE", thread.tid,
                                            from_node=0)
            elif kind == "post" and not cluster.kernels[args[2]].crashed:
                target, handler, node, sync = args
                raise_ = cluster.raise_and_wait if sync \
                    else cluster.raise_event
                futures.append(raise_("WORK", caps[target % n_objects],
                                      from_node=node,
                                      user_data=(f"{number}.{pos}", handler)))

    for number, part in enumerate(parts):
        sim.call_at(number * GAP, play, number, part)
    if crash is not None:
        sim.call_at(crash, cluster.crash_node, 0)
        sim.call_at(crash + 5 * GAP, cluster.recover_node, 0)
    with mock.patch.object(Router, "route", counting_route), \
            mock.patch.object(Settler, "conclude", recording_conclude):
        cluster.run(until=len(parts) * GAP + 1.0)
    stats = cluster.scheduler_stats()
    return {
        "log": log,
        "results": [_outcome(future) for future in futures],
        "clock": (cluster.now, stats["scheduled"], stats["executed"]),
        "served": [kernel.objects.events_served
                   for kernel in cluster.kernels.values()],
        "created": sum(kernel.objects.handler_threads_created
                       for kernel in cluster.kernels.values()),
    }, seen, cluster


def _outcome(future) -> Any:
    if not future.done:
        return "pending"
    try:
        return future.result()
    except (Exception, GeneratorExit) as exc:  # the outcome is the data
        return type(exc).__name__


programs = st.lists(step, max_size=20)
#: the crash property's programs also TERMINATE node 0's loop threads
crash_programs = st.lists(st.one_of(post, post, soon, timer, later,
                                    terminate), max_size=20)


@settings(deadline=None)
@given(program=programs, n_objects=st.integers(1, 3),
       deadline=st.sampled_from([None, DEADLINE]),
       scheduler=st.sampled_from(["heap", "wheel"]),
       mode=st.sampled_from([OBJ_EVENTS_MASTER, OBJ_EVENTS_PER_EVENT]))
# per-event mode: the last post's thread computes from 1.1 ms to 1.2 ms,
# where the remote post's thread takes its first step; that step runs
# before the wake-up, and its compute hops behind it, where the
# reference's step ran after the wake-up and its compute ran inline
@example(program=[("post", 0, "return", 0, False)] * 4 + [
    ("post", 0, "compute", 1, False), ("later",), ("later",), ("later",),
    ("post", 0, "compute", 0, False)], n_objects=1, deadline=None,
    scheduler="heap", mode=OBJ_EVENTS_PER_EVENT)
def test_the_master_serves_as_the_reference_did(program, n_objects,
                                                deadline, scheduler, mode):
    new, seen, cluster = _run(program, n_objects, deadline, scheduler,
                              object_event_mode=mode)
    with _reference():
        old, _, reference = _run(program, n_objects, deadline, scheduler,
                                 object_event_mode=mode)
    assert isinstance(reference.kernels[0].objects, ReferenceObjectManager)
    if mode == OBJ_EVENTS_PER_EVENT:
        # A per-event thread is made at post time and first stepped
        # after its creation cost: one scheduler event, where the
        # reference's creation timer and first step were two. That step
        # was scheduled at the post, so it runs in timer order at its
        # instant, where the reference's ran behind every timer due
        # then: the threads are concurrent, and the same records at the
        # same virtual times may interleave differently in one instant.
        for record in (new, old):
            record["log"].sort(key=lambda entry: (entry[0], repr(entry)))
        # That order also decides which compute wake-ups fold (one folds
        # only when nothing else is due by its end), so the scheduler
        # counts are held to the reference's on runs with the fold off.
        new["clock"], old["clock"] = new["clock"][0], old["clock"][0]
        with _no_compute_fold():
            hopped = _run(program, n_objects, deadline, scheduler,
                          object_event_mode=mode)[0]
            with _reference():
                hopped_old = _run(program, n_objects, deadline, scheduler,
                                  object_event_mode=mode)[0]
        now, scheduled, executed = hopped_old["clock"]
        created = hopped_old["created"]
        assert hopped["clock"] == (now, scheduled - created,
                                   executed - created)
    assert new == old
    seen.check()
    assert cluster.quiescent()


@settings(deadline=None)
@given(program=crash_programs, n_objects=st.integers(1, 3),
       deadline=st.sampled_from([None, DEADLINE]),
       scheduler=st.sampled_from(["heap", "wheel"]),
       durable=st.booleans(), crash=st.integers(0, 8),
       mode=st.sampled_from([OBJ_EVENTS_MASTER, OBJ_EVENTS_PER_EVENT]))
# the master parks after the first post; the second wakes it and the
# crash, due in the same instant, runs before the wake's step
@example(program=[("post", 0, "return", 0, False), ("later",),
                  ("post", 0, "return", 0, True)], n_objects=1,
         deadline=None, scheduler="heap", durable=False, crash=2,
         mode=OBJ_EVENTS_MASTER)
# a per-event thread made at 0.9 ms dies with its node at 1 ms, before
# its first step at 1.1 ms
@example(program=[("later",), ("later",), ("later",),
                  ("post", 0, "return", 0, True)], n_objects=1,
         deadline=None, scheduler="heap", durable=False, crash=1,
         mode=OBJ_EVENTS_PER_EVENT)
# after the crash at 0 and the recovery: the master parks after the
# first post; the second wakes it, and a TERMINATE at it lands in that
# hop, with no frame, ahead of the third (the master used to die there
# and strand both)
@example(program=[("later",)] * 6 + [
    ("post", 0, "return", 0, False), ("later",),
    ("post", 0, "return", 0, True), ("post", 0, "return", 0, True),
    ("terminate",)], n_objects=1, deadline=None, scheduler="heap",
    durable=False, crash=0, mode=OBJ_EVENTS_MASTER)
def test_a_crash_of_the_master_node_loses_no_post(program, n_objects,
                                                  deadline, scheduler,
                                                  durable, crash, mode):
    # a message lost to the crash is retransmitted (the invariant's
    # premise); durable posts are journaled too
    config = {"reliable_delivery": True, "durable_delivery": durable,
              "object_event_mode": mode}
    # on the grid of the parts' instants and the link latency after them
    at = crash // 2 * GAP + crash % 2 * 1e-3
    _, seen, cluster = _run(program, n_objects, deadline, scheduler,
                            crash=at, **config)
    seen.check()
    if durable:
        assert cluster.durability_stats()["pending"] == 0
