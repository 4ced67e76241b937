"""Counting the Python frames a path costs, for the frame-budget tests."""

from __future__ import annotations

import sys
from collections import Counter
from typing import Any, Callable


class FrameCensus(Counter):
    """The Python frames entered while its ``with`` block runs, keyed by
    ``(file name, function)``; ``where(code)``, when given, says which
    code objects count. Its own frames never do.

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
            if code.co_filename != __file__ and (
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
