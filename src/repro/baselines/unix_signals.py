"""UNIX-signal baseline (§9).

"The UNIX system provides the signal mechanism … The entire design of the
UNIX signal facility is suitable for single threaded applications only.
Distributed programming by using the RPC mechanisms do not handle signals
directly."

This model captures the semantics the paper compares against:

* signals address a **process** (pid), never a thread;
* in a multi-threaded process the kernel picks an *arbitrary* eligible
  thread to run the handler (the OSF/1 "ad hoc solution" of §2);
* one handler table per process — unrelated activities sharing a process
  cannot customise handling per-activity;
* no remote delivery: a signal must originate on the process's machine;
* nothing passive can be signalled: no process, no delivery.

Experiment E8 drives both this model and the paper's facility through the
same scenario matrix and scores who delivers to the intended recipient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.sim.rng import RngRegistry

_pids = itertools.count(1)


@dataclass
class UnixThread:
    """A kernel thread inside a process."""

    name: str
    app: str = "default"
    blocked_signals: set[str] = field(default_factory=set)
    received: list[str] = field(default_factory=list)


class UnixProcess:
    """A process with the classic signal API."""

    def __init__(self, machine: int, app: str = "default") -> None:
        self.pid = next(_pids)
        self.machine = machine
        self.app = app
        self.threads: list[UnixThread] = []
        self.handlers: dict[str, Callable[[UnixThread, str], None]] = {}
        self.default_ignored: set[str] = set()

    def spawn_thread(self, name: str, app: str | None = None) -> UnixThread:
        thread = UnixThread(name=name, app=app or self.app)
        self.threads.append(thread)
        return thread

    def sigaction(self, signal: str,
                  handler: Callable[[UnixThread, str], None]) -> None:
        """Install the (process-wide) handler for a signal."""
        self.handlers[signal] = handler


@dataclass
class DeliveryOutcome:
    """What happened to one signal."""

    delivered: bool
    thread: UnixThread | None = None
    reason: str = ""


class UnixSignalModel:
    """The machine-wide signal facility."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = RngRegistry(seed).stream("unix-signals")
        self.processes: dict[int, UnixProcess] = {}

    def register(self, process: UnixProcess) -> UnixProcess:
        self.processes[process.pid] = process
        return process

    def kill(self, pid: int, signal: str,
             from_machine: int | None = None) -> DeliveryOutcome:
        """``kill(pid, sig)``: deliver a signal to a process."""
        process = self.processes.get(pid)
        if process is None:
            return DeliveryOutcome(False, reason="no such process")
        if from_machine is not None and from_machine != process.machine:
            return DeliveryOutcome(
                False, reason="signals do not cross machine boundaries")
        if not process.threads:
            return DeliveryOutcome(
                False, reason="no runnable thread to interrupt "
                              "(passive entities cannot be signalled)")
        handler = process.handlers.get(signal)
        if handler is None and signal in process.default_ignored:
            return DeliveryOutcome(False, reason="ignored by default")
        # The OSF/1 ad-hoc choice: an arbitrary thread whose mask allows
        # the signal runs the handler.
        eligible = [t for t in process.threads
                    if signal not in t.blocked_signals]
        if not eligible:
            return DeliveryOutcome(False, reason="all threads block it")
        victim = self._rng.choice(eligible)
        victim.received.append(signal)
        if handler is not None:
            handler(victim, signal)
        return DeliveryOutcome(True, thread=victim,
                               reason="arbitrary eligible thread chosen")

    def kill_thread(self, pid: int, thread_name: str,
                    signal: str) -> DeliveryOutcome:
        """Classic UNIX has no thread-addressed kill; always fails."""
        return DeliveryOutcome(
            False, reason="UNIX signals address processes, not threads")
