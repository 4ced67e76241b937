"""The per-post objects are built with positional arguments.

A keyword-argument call to a Python class goes through ``type.__call__``
and ``slot_tp_init``, which build a kwargs dict and unpack it against
``__init__``'s parameters. That costs no Python frame, so the frame
census (``tests/frames.py``) cannot see it, yet it is the larger part of
building these objects. Measured with ``timeit`` on CPython 3.11.7, best
of five runs of 200,000 calls on a 2-core x86-64 host:

- ``EventBlock(event=..., ...)`` with 7 keywords: 0.75 µs; the same call
  with positional arguments: 0.35 µs;
- ``Message(src=..., ...)`` with 5 keywords: 0.57 µs by keyword, 0.27 µs
  positionally;
- ``Capability(oid=..., ...)``: 1.24 µs by keyword, 0.92 µs positionally
  (the frozen dataclass's stores and ``__post_init__`` check are the
  rest, which is why ``DistObject.cap`` builds it once, at placement).

CPython 3.10, 3.12 and 3.13 show the same factor of 1.6 to 2 on the
first two.

Every raise builds an event block and every remote post, locate hop, ack
and resume builds a ``Message``, so the package builds these four
classes positionally everywhere. Tests and examples may still use
keywords: the constructors accept both.
"""

import ast
from functools import cache
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
POSITIONAL_ONLY = ("EventBlock", "Message", "Activation", "Capability")


@cache
def _builds():
    """``(file, Call)`` for every call of one of ``POSITIONAL_ONLY`` under
    ``src/repro``, by bare name or as an attribute (``block.EventBlock``)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name in POSITIONAL_ONLY:
                found.append((path, node))
    return found


def test_the_walk_finds_the_hot_builds():
    """The walk is not vacuous: the raise's block, the fan-out copy, the
    object post's envelope and the invocation frame are all found."""
    where = {(path.relative_to(SRC).as_posix(), ast.unparse(call.func))
             for path, call in _builds()}
    assert {("events/delivery.py", "EventBlock"),
            ("events/route.py", "EventBlock"),
            ("events/post.py", "Message"),
            ("objects/invocation.py", "Activation"),
            ("objects/base.py", "Capability")} <= where


def test_no_keyword_builds():
    keyword = [f"{path.relative_to(SRC)}:{call.lineno}: "
               f"{ast.unparse(call.func)}("
               + ", ".join("**" if kw.arg is None else f"{kw.arg}="
                           for kw in call.keywords) + ")"
               for path, call in _builds() if call.keywords]
    assert not keyword, (
        "build these positionally (a keyword call costs a kwargs dict "
        "per object; see this module's docstring):\n" + "\n".join(keyword))
