"""Span tracer for the traced E17 run, kept entirely in the benchmark.

``install()`` replaces the public methods listed in ``METHODS`` (and the
four codec functions) on their classes with timing wrappers, before the
cluster is built and before ``run_sharded`` forks, so shard workers
inherit them.  Two kinds of span exist:

* **method spans** around the wrapped calls, named ``layer:method``;
* **callback spans** around every callback scheduled while a section is
  being measured, named ``layer:qualname`` with the layer taken from the
  callback's module (``repro.events.delivery`` -> ``events.delivery``,
  the benchmark's own pumps -> ``loadgen``).  Without them everything a
  callback does would read as scheduler self time.

A call stack gives each span its parent; self time = duration − time
covered by child spans; totals are aggregated per span name online.  The
root span (``other``) is opened by ``begin()`` and closed by ``end()``,
so the self times of all names sum to the traced wall exactly.  Full
span records (id, name, start, end, parent, cause, post id) are kept for
the first ``record_posts`` raises only.
"""

from __future__ import annotations

import json
from importlib import import_module
from time import perf_counter_ns
from typing import Any, Callable

from repro import EventBlock

#: (module, class, layer, methods) — public methods wrapped as spans
METHODS = (
    ("repro.events.delivery", "EventManager", "events.delivery",
     ("raise_external",)),
    ("repro.events.locate", "PathLocator", "events.locate", ("post",)),
    ("repro.events.locate", "BroadcastLocator", "events.locate", ("post",)),
    ("repro.events.locate", "MulticastLocator", "events.locate", ("post",)),
    ("repro.events.locate", "CachedLocator", "events.locate", ("post",)),
    ("repro.net.fabric", "Fabric", "net.fabric", ("send",)),
    ("repro.net.reliable", "ReliableChannel", "net.reliable",
     ("send", "accept", "on_ack", "on_cum_ack")),
    ("repro.store.journal", "NodeJournal", "store.journal",
     ("append", "append_batch")),
    ("repro.store.manager", "NodeStore", "store.manager",
     ("journal_post", "journal_post_batch", "resolve", "accept_post",
      "mark_applied")),
    ("repro.transport.tcp", "AsyncioTransport", "transport.tcp", ("post",)),
    ("repro.sim.scheduler", "Simulator", "sim.scheduler", ("run",)),
    ("repro.transport.realtime", "RealtimeScheduler", "transport.realtime",
     ("run",)),
)

#: (module, class, layer, {method: index of the callback argument}) —
#: scheduling calls: a span around the push, and the callback swapped
#: for ``fire`` so its execution becomes a span too.  The simulator's
#: ``call_after``/``call_soon`` are two-line delegations to ``call_at``
#: and are covered by its wrapper; the realtime three are independent.
SCHEDULERS = (
    ("repro.sim.scheduler", "Simulator", "sim.scheduler", {"call_at": 1}),
    ("repro.sim.scheduler", "WheelSimulator", "sim.scheduler",
     {"call_at": 1}),
    ("repro.transport.realtime", "RealtimeScheduler", "transport.realtime",
     {"call_at": 1, "call_after": 1, "call_soon": 0}),
)

CODEC_FUNCTIONS = ("encode_batch", "decode_batch", "encode_message",
                   "decode_message")

# frame slots
_NAME, _CHILD, _START, _ID, _POST, _CAUSE = range(6)

_current: "Tracer | None" = None


def current() -> "Tracer | None":
    """The installed tracer of this process (shard workers inherit it)."""
    return _current


def wrapped_attributes() -> list[tuple[Any, str]]:
    """Every (owner, attribute) pair ``install`` replaces."""
    pairs = []
    for module, cls, _layer, methods in METHODS + SCHEDULERS:
        owner = getattr(import_module(module), cls)
        pairs.extend((owner, method) for method in methods)
    codec = import_module("repro.transport.codec")
    pairs.extend((codec, fn) for fn in CODEC_FUNCTIONS)
    return pairs


def layer_of(span_name: str) -> str:
    return span_name.partition(":")[0]


class Tracer:
    def __init__(self, record_posts: int = 2000) -> None:
        #: span name -> [self ns, calls]
        self.spans: dict[str, list[int]] = {}
        self.wall_ns = 0
        self.record_posts = record_posts
        #: messages and bytes the codec wrappers saw encoded
        self.codec_msgs = 0
        self.codec_bytes = 0
        self.records: list[tuple] = []
        self._stack: list[list] = []
        self._recording = False
        self._raises = 0
        self._ids = 0
        self._names: dict[Any, str] = {}
        self._originals: list[tuple[Any, str, Any]] = []

    # -- span accounting ------------------------------------------------

    def begin(self) -> None:
        """Open the root span: from here every wrapped call is a span."""
        self._recording = self.record_posts > 0
        self._ids = 1
        self._stack.append(["other:root", 0, perf_counter_ns(), 1, None, 0])

    def end(self) -> None:
        root = self._stack[0]
        self.exit(root, root=True)

    def enter(self, name: str, post: Any = None, cause: int = 0) -> list:
        stack = self._stack
        if self._recording:
            self._ids += 1
            span_id = self._ids
            if post is None:
                post = stack[-1][_POST]
        else:
            span_id = 0
        frame = [name, 0, 0, span_id, post, cause]
        stack.append(frame)
        frame[_START] = perf_counter_ns()
        return frame

    def exit(self, frame: list, root: bool = False) -> None:
        ended = perf_counter_ns()
        stack = self._stack
        stack.pop()
        duration = ended - frame[_START]
        total = self.spans.get(frame[_NAME])
        if total is None:
            total = self.spans[frame[_NAME]] = [0, 0]
        total[0] += duration - frame[_CHILD]
        total[1] += 1
        if root:
            self.wall_ns = duration
            parent = 0
        else:
            stack[-1][_CHILD] += duration
            parent = stack[-1][_ID]
        if frame[_ID]:
            self.records.append((frame[_ID], frame[_NAME], frame[_START],
                                 ended, parent, frame[_CAUSE],
                                 frame[_POST]))

    def _callback_name(self, fn: Callable) -> str:
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", None) or type(fn)
        name = self._names.get(key)
        if name is None:
            module = getattr(func, "__module__", None) or type(fn).__module__
            if module.startswith("repro."):
                layer = module[len("repro."):]
            elif module.startswith("e17.") or module == "__main__":
                layer = "loadgen"
            else:
                layer = module
            qualname = getattr(func, "__qualname__", type(fn).__name__)
            name = self._names[key] = f"{layer}:{qualname}"
        return name

    # -- wrappers -------------------------------------------------------

    def _method_wrapper(self, name: str, original: Callable) -> Callable:
        tracer = self
        raises = name.endswith(":raise_external")

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer._stack:
                return original(*args, **kwargs)
            post = None
            if raises:
                tracer._raises += 1
                if tracer._raises > tracer.record_posts:
                    tracer._recording = False
                # raise_external(self, event, target, from_node, user_data)
                post = (kwargs["user_data"] if "user_data" in kwargs
                        else args[4] if len(args) > 4 else None)
            elif tracer._recording:
                # the post id, where the call carries an event block
                for arg in args:
                    if type(arg) is EventBlock:
                        post = arg.user_data
                        break
            frame = tracer.enter(name, post)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit(frame)

        wrapper.__wrapped__ = original
        return wrapper

    def _schedule_wrapper(self, name: str, original: Callable,
                          fn_index: int, fire: Callable) -> Callable:
        """A push is a leaf and by far the most frequent wrapped call, so
        it is timed inline (no frame, no record; the callback's record
        names its cause) and the callback is swapped for ``fire``."""
        tracer = self
        total = self.spans.setdefault(name, [0, 0])

        def wrapper(scheduler: Any, *args: Any) -> Any:
            stack = tracer._stack
            if not stack:
                return original(scheduler, *args)
            top = stack[-1]
            args = (args[:fn_index]
                    + (fire, args[fn_index], top[_ID], top[_POST])
                    + args[fn_index + 1:])
            started = perf_counter_ns()
            try:
                return original(scheduler, *args)
            finally:
                spent = perf_counter_ns() - started
                total[0] += spent
                total[1] += 1
                top[_CHILD] += spent

        wrapper.__wrapped__ = original
        return wrapper

    def _codec_wrapper(self, name: str, original: Callable) -> Callable:
        tracer = self
        encodes = "encode" in name
        batch = name.endswith("batch")

        def wrapper(data: Any) -> Any:
            if not tracer._stack:
                return original(data)
            frame = tracer.enter(name)
            try:
                result = original(data)
            finally:
                tracer.exit(frame)
            if encodes:
                tracer.codec_bytes += len(result)
                tracer.codec_msgs += len(data) if batch else 1
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        tracer = self

        def fire(fn: Callable, cause: int, post: Any, *args: Any) -> Any:
            if not tracer._stack:  # fired after the section ended
                return fn(*args)
            frame = tracer.enter(tracer._callback_name(fn), post, cause)
            try:
                return fn(*args)
            finally:
                tracer.exit(frame)

        for module, cls, layer, methods in METHODS:
            owner = getattr(import_module(module), cls)
            for method in methods:
                self._patch(owner, method, self._method_wrapper(
                    f"{layer}:{method}", vars(owner)[method]))
        for module, cls, layer, methods in SCHEDULERS:
            owner = getattr(import_module(module), cls)
            for method, fn_index in methods.items():
                self._patch(owner, method, self._schedule_wrapper(
                    f"{layer}:{method}", vars(owner)[method], fn_index,
                    fire))
        codec = import_module("repro.transport.codec")
        for fn in CODEC_FUNCTIONS:
            self._patch(codec, fn, self._codec_wrapper(
                f"transport.codec:{fn}", vars(codec)[fn]))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def totals(self) -> dict[str, Any]:
        """Picklable aggregate (a shard worker returns it from finish)."""
        return {"spans": {name: list(total)
                          for name, total in self.spans.items()},
                "wall_ns": self.wall_ns, "codec_msgs": self.codec_msgs,
                "codec_bytes": self.codec_bytes,
                "records": self.records}


def install(record_posts: int = 2000) -> Tracer:
    global _current
    if _current is not None:
        raise RuntimeError("a tracer is already installed")
    tracer = Tracer(record_posts)
    tracer.install()
    _current = tracer
    return tracer


def uninstall() -> None:
    global _current
    if _current is not None:
        _current.uninstall()
        _current = None


def merge_totals(parts: list[dict]) -> dict[str, Any]:
    """Sum per-process totals (sharded workers); records are tagged with
    the index of the process that produced them."""
    spans: dict[str, list[int]] = {}
    records = []
    for index, part in enumerate(parts):
        for name, (self_ns, calls) in part["spans"].items():
            total = spans.setdefault(name, [0, 0])
            total[0] += self_ns
            total[1] += calls
        records.extend((index,) + tuple(record)
                       for record in part["records"])
    return {"spans": spans,
            "wall_ns": sum(part["wall_ns"] for part in parts),
            "codec_msgs": sum(part["codec_msgs"] for part in parts),
            "codec_bytes": sum(part["codec_bytes"] for part in parts),
            "records": records}


def write_records(path: Any, records: list[tuple]) -> None:
    keys = ("proc", "id", "name", "start_ns", "end_ns", "parent", "cause",
            "post")
    with open(path, "w", encoding="utf-8") as out:
        for record in records:
            out.write(json.dumps(dict(zip(keys, record)), default=str))
            out.write("\n")
