"""Counting the Python frames a path costs, for the frame-budget tests.

Pytest-free, so the per-post census runs on any interpreter that can
import ``repro``::

    PYTHONPATH=src python -m tests.frames
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Any, Callable

from repro import Cluster, ClusterConfig, Decision, DistObject, entry, on_event


class FrameCensus(Counter):
    """The Python frames entered while its ``with`` block runs, keyed by
    ``(file name, function)``; ``where(code)``, when given, says which
    code objects count. Its own frames never do, and neither does a
    list, dict or set comprehension's: Python 3.12 inlines those
    (PEP 709), so skipping them reads the same count on 3.10-3.13.

    ``stop`` ends the count early and takes any arguments, so the
    callback that marks the end of a measured path can be it. ``last``
    is the key of the last frame counted.
    """

    def __init__(self, where: Callable[[Any], bool] | None = None) -> None:
        super().__init__()
        self._where = where
        self.last: tuple[str, str] | None = None

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code not in _OWN and code.co_name not in _INLINED and (
                    self._where is None or self._where(code)):
                key = code.co_filename.rpartition("/")[2], code.co_name
                self[key] += 1
                self.last = key

    def __enter__(self) -> "FrameCensus":
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        sys.setprofile(None)

    def stop(self, *_: Any) -> None:
        sys.setprofile(None)


#: the census's own frames that a profile sees start
_OWN = frozenset((FrameCensus.__exit__.__code__, FrameCensus.stop.__code__))
#: comprehensions that have no frame of their own from Python 3.12 on
_INLINED = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>"))

# ----------------------------------------------------------------------
# frames per post, on the paths the frame-budget tests pin
# ----------------------------------------------------------------------

#: posts (or steps) per count: the run's tail, the master parking and
#: ``run``'s own frames, is less than one of them
N = 256
#: every trace category the counted paths emit, off at the site
MUTED = ("event", "object", "thread", "net", "store", "supervise", "invoke",
         "dsm", "rpc")


class Sink(DistObject):
    """E17's passive object: stamp the latency, burn a microsecond."""

    def __init__(self):
        super().__init__()
        self.latencies = []

    @on_event("POST")
    def on_post(self, ctx, block):
        self.latencies.append(ctx.now - block.raised_at)
        yield ctx.compute(1e-6)


def _warm_cluster(scheduler: str, origin: int = 0, **config):
    """A cluster with one ``Sink`` on node 0 whose master handler thread
    one warm-up post, raised on ``origin``, has created."""
    cluster = Cluster(ClusterConfig(n_nodes=2, scheduler=scheduler,
                                    **config))
    cluster.tracer.mute(*MUTED)
    cluster.register_event("POST")
    cap = cluster.create_object(Sink, node=0)
    cluster.raise_event("POST", cap, from_node=origin)
    cluster.run(until=1.0)
    return cluster, cap


def _count_frames(cluster, cap, load) -> tuple[float, Counter]:
    """Frames per post of ``load()`` and a run to 2.0 s, and their
    census by ``(file, function)``."""
    with FrameCensus() as frames:
        load()
        cluster.run(until=2.0)
    assert len(cluster.get_object(cap).latencies) == N + 1
    return sum(frames.values()) / N, frames


def post_frames(scheduler: str) -> tuple[float, Counter]:
    """Frames per post over N home-node posts raised in one instant."""
    cluster, cap = _warm_cluster(scheduler)

    def load():
        for pid in range(N):
            cluster.raise_event("POST", cap, from_node=0, user_data=pid)

    return _count_frames(cluster, cap, load)


def parked_post_frames(scheduler: str) -> tuple[float, Counter]:
    """Frames per post over N home-node posts one millisecond apart,
    each raised by a pump callback scheduled beforehand."""
    cluster, cap = _warm_cluster(scheduler)

    def pump(pid):
        cluster.raise_event("POST", cap, from_node=0, user_data=pid)

    for pid in range(N):
        cluster.sim.call_at(1.0 + 1e-3 * pid, pump, pid)
    return _count_frames(cluster, cap, lambda: None)


def arrived_post_frames(scheduler: str) -> tuple[float, Counter]:
    """Frames per post over N durable posts raised on node 1 in one
    instant, from their messages' arrival at the object's home node 0:
    acceptance, handler, conclusion and the acks back to the origin
    (``durable_lossy``'s receive path, with no loss)."""
    cluster, cap = _warm_cluster(scheduler, origin=1, durable_delivery=True)
    for pid in range(N):
        cluster.raise_event("POST", cap, from_node=1, user_data=pid)
    return _count_frames(cluster, cap, lambda: None)


class PrivateSink(DistObject):
    """``Sink`` with its state underscored, as E17's sinks keep theirs:
    a checkpoint deep-copies an object's public attributes only."""

    def __init__(self):
        super().__init__()
        self._latencies = []

    @on_event("POST")
    def on_post(self, ctx, block):
        self._latencies.append(ctx.now - block.raised_at)
        yield ctx.compute(1e-6)


#: E17's open-loop pump: this many posts raised every GAP seconds
BURST, GAP = 16, 2e-3


def durable_frames(scheduler: str) -> tuple[float, Counter]:
    """Frames per post over N durable posts to a ``PrivateSink`` on
    node 1, BURST raised on node 0 every GAP by a pump callback, run
    until the outbox drains: the raise, the journal's ``post`` record,
    the reliable send, the receive path of ``arrived`` and the ack's
    commit back on node 0 (``durable_lossy``'s path, with no loss)."""
    cluster = Cluster(ClusterConfig(n_nodes=2, scheduler=scheduler,
                                    durable_delivery=True))
    cluster.tracer.mute(*MUTED)
    cluster.register_event("POST")
    cap = cluster.create_object(PrivateSink, node=1)
    cluster.raise_event("POST", cap, from_node=0)
    cluster.run(until=1.0)

    def pump(base):
        for pid in range(base, base + BURST):
            cluster.raise_event("POST", cap, from_node=0, user_data=pid)

    for base in range(0, N, BURST):
        cluster.sim.call_at(1.0 + GAP * (base // BURST), pump, base)
    with FrameCensus() as frames:
        cluster.run()
    assert cluster.durability_stats()["pending"] == 0
    assert len(cluster.get_object(cap)._latencies) == N + 1
    return sum(frames.values()) / N, frames


def _spin(hctx, block):
    for _ in range(N):
        yield hctx.compute(1e-6)
    return Decision.RESUME


class Spinner(DistObject):
    """A resident thread whose one thread-based handler computes N
    times per notice."""

    @entry
    def hold(self, ctx):
        yield ctx.attach_handler("SPIN", _spin)
        yield ctx.sleep(10.0)


def chain_compute_frames(scheduler: str) -> tuple[float, Counter]:
    """Frames per ``compute`` step of a thread-based handler: one notice
    to a resident thread, whose handler runs N steps on its surrogate
    (``thread_chase``'s handlers compute once each; the surrogate a
    warm-up notice made serves this one)."""
    cluster = Cluster(ClusterConfig(n_nodes=1, scheduler=scheduler))
    cluster.tracer.mute(*MUTED)
    cluster.register_event("SPIN")
    thread = cluster.spawn(cluster.create_object(Spinner, node=0), "hold",
                           at=0)
    cluster.run(until=0.5)
    cluster.raise_event("SPIN", thread.tid)
    cluster.run(until=1.0)
    with FrameCensus() as frames:
        cluster.raise_event("SPIN", thread.tid)
        cluster.run(until=2.0)
    assert frames["frames.py", "_spin"] == N + 1
    return sum(frames.values()) / N, frames


def _chase_inner(hctx, block):
    yield hctx.compute(1e-6)
    return Decision.PROPAGATE


def _chase_outer(hctx, block):
    yield hctx.compute(1e-6)
    return Decision.RESUME


class Hop(DistObject):
    """One frame of a chased thread: attach a thread-based handler
    (the outermost frame's resumes, the others propagate), then carry
    the thread one node deeper, or sleep at the innermost frame."""

    @entry
    def descend(self, ctx, deeper, outermost=False):
        yield ctx.attach_handler(
            "CHASE", _chase_outer if outermost else _chase_inner)
        if deeper:
            yield ctx.invoke(deeper[0], "descend", deeper[1:])
        else:
            yield ctx.sleep(10.0)


def chase_frames(scheduler: str) -> tuple[float, Counter]:
    """Frames per notice over N notices one millisecond apart, each
    raised on node 3 by a pump callback, to a thread rooted on node 0
    that sleeps on node 2 with a frame on node 1 between: the §7.1
    path locate (to the root, then along two forwarding pointers) and
    a §6.1 chain of three thread-based handlers on the surrogate a
    warm-up notice made (``thread_chase``'s path, one notice at a
    time)."""
    cluster = Cluster(ClusterConfig(n_nodes=4, scheduler=scheduler))
    cluster.tracer.mute(*MUTED)
    cluster.register_event("CHASE")
    caps = [cluster.create_object(Hop, node=node) for node in (0, 1, 2)]
    thread = cluster.spawn(caps[0], "descend", caps[1:], True, at=0)
    cluster.run(until=0.5)
    assert [frame.node for frame in thread.frames] == [0, 1, 2]
    cluster.raise_event("CHASE", thread.tid, from_node=3)
    cluster.run(until=1.0)

    def pump(pid):
        cluster.raise_event("CHASE", thread.tid, from_node=3, user_data=pid)

    for pid in range(N):
        cluster.sim.call_at(1.0 + 1e-3 * pid, pump, pid)
    with FrameCensus() as frames:
        cluster.run(until=2.0)
    # each handler's generator is entered twice: its compute, its return
    assert frames["frames.py", "_chase_outer"] == 2 * N, frames
    assert frames["frames.py", "_chase_inner"] == 4 * N, frames
    return sum(frames.values()) / N, frames


#: name -> what it counts, for the census below and the budget tests
PATHS = {"post": post_frames, "parked": parked_post_frames,
         "arrived": arrived_post_frames, "durable": durable_frames,
         "compute": chain_compute_frames, "chase": chase_frames}


def main() -> None:
    """Print each path's frames per post on both scheduler backends,
    then the busy home-node post's census."""
    print(f"python {sys.version.split()[0]}")
    for name, count in PATHS.items():
        per = {backend: count(backend)[0] for backend in ("heap", "wheel")}
        print(f"{name:8} " + "  ".join(
            f"{backend} {value:6.2f}" for backend, value in per.items()))
    for (where, function), calls in post_frames("heap")[1].most_common():
        if 2 * calls >= N:
            print(f"  {calls / N:5.2f}  {where}:{function}")


if __name__ == "__main__":
    main()
