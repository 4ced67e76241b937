"""Benchmark harness: result tables, the one :class:`Result` shape every
experiment returns, the registry entry, and the one ledger.

An experiment is declared once, as an :class:`Experiment` in
:data:`repro.bench.experiments.ALL_EXPERIMENTS`: one ``run`` returning a
:class:`Result`, one ``check`` asserting the claim on it, one full and
one quick parameter set. ``python -m repro.bench`` and
``tests/test_experiments.py`` both go through :func:`run_experiment`;
``benchmarks/results/<name>.json`` is written by :func:`write_ledger`
and nothing else.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from repro.errors import BenchmarkError

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


@dataclass
class Table:
    """A printable result table for one experiment."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise BenchmarkError(
                f"{self.title}: row has {len(values)} values for "
                f"{len(self.columns)} columns")
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list[Any]:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise BenchmarkError(
                f"{self.title}: no column {name!r}") from None
        return [row[index] for row in self.rows]

    def dicts(self) -> list[dict[str, Any]]:
        """The rows as column-name -> value dicts."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def render(self) -> str:
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.6g}"
            return str(value)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [max(len(self.columns[i]),
                      *(len(row[i]) for row in cells)) if cells
                  else len(self.columns[i])
                  for i in range(len(self.columns))]
        lines = [f"== {self.title} =="]
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


@dataclass
class Result:
    """What every experiment's ``run`` returns.

    ``table``, ``detail`` and ``digests`` are functions of the parameters
    and the seed only; anything read off the host's clock goes in
    ``wall``, which is never compared and never hashed.
    """

    table: Table
    #: deterministic, JSON-able figures beyond the table
    detail: dict[str, Any] = field(default_factory=dict)
    #: label -> same-seed outcome digest of one run inside the experiment
    digests: dict[str, str] = field(default_factory=dict)
    wall: dict[str, Any] = field(default_factory=dict)

    def take(self, label: str, row: dict[str, Any]) -> dict[str, Any]:
        """File one run's row: its ``"wall"`` sub-dict moves into
        :attr:`wall` as ``<label>.<key>`` and its digest, if it has one,
        into :attr:`digests`; returns the row, now deterministic."""
        for key, value in row.pop("wall").items():
            self.wall[f"{label}.{key}"] = value
        if "digest" in row:
            self.digests[label] = row["digest"]
        return row

    def view(self, params: dict[str, Any], wall: bool = False) -> dict:
        """One ledger section, as JSON reads it back (tuples are lists,
        keys are strings) so it compares equal to a committed one."""
        body = {"params": params, "table": asdict(self.table),
                "detail": self.detail, "digests": self.digests}
        if wall:
            body["wall"] = self.wall
        return json.loads(json.dumps(body))

    def show(self) -> None:
        print()
        print(self.table.render())
        if self.wall:
            print(f"  wall: {json.dumps(self.wall)}")


@dataclass(frozen=True)
class Experiment:
    """One registry entry: everything about an experiment, declared once."""

    run: Callable[..., Result]
    #: asserts the experiment's claim on a result of either size
    check: Callable[[Result], None]
    full: dict[str, Any]
    quick: dict[str, Any]
    #: ``(key in Result.wall, fraction)``: a run's figure must reach that
    #: share of the committed full-size one (:func:`check_floor`)
    floor: tuple[str, float] | None = None

    def params(self, quick: bool) -> dict[str, Any]:
        return self.quick if quick else self.full


def run_experiment(exp: Experiment, quick: bool = False,
                   profile: bool = False) -> Result:
    """Run one registry entry at the chosen size and apply its check."""
    params = exp.params(quick)
    started = time.perf_counter()
    if profile:
        result = profile_call(exp.run, **params)
    else:
        result = exp.run(**params)
    result.wall["seconds"] = round(time.perf_counter() - started, 3)
    exp.check(result)
    return result


def read_ledger(name: str) -> dict[str, Any]:
    """The committed ``benchmarks/results/<name>.json``."""
    path = RESULTS_DIR / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def write_ledger(name: str, exp: Experiment, full: Result,
                 quick: Result) -> pathlib.Path:
    """Rewrite ``benchmarks/results/<name>.json`` — the single writer.

    A re-recording keeps the committed ``host`` and full ``wall``, the
    reference of :func:`check_floor`; only a new wall key is this run's."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    path = RESULTS_DIR / f"{name}.json"
    host = {"cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    full_view = full.view(exp.full, wall=True)
    if path.exists():
        committed = read_ledger(name)
        host, wall = committed["host"], committed["full"]["wall"]
        full_view["wall"] = dict(wall, **{key: value for key, value
                                          in full_view["wall"].items()
                                          if key not in wall})
    payload = {"experiment": name, "commit": commit, "host": host,
               "full": full_view, "quick": quick.view(exp.quick)}
    path.write_text(json.dumps(payload, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    return path


def check_ledger(name: str, exp: Experiment, result: Result,
                 quick: bool = False) -> None:
    """The result's deterministic view must equal the committed section
    of the same size — stricter than any floor and host-independent."""
    section = "quick" if quick else "full"
    committed = read_ledger(name)[section]
    view = result.view(exp.params(quick))
    moved = [key for key in view if view[key] != committed[key]]
    assert not moved, (
        f"{name}: {section} {', '.join(moved)} differ from "
        f"benchmarks/results/{name}.json — same seed, same parameters, so "
        f"behaviour changed (`python -m repro.bench {name} --write` "
        f"re-baselines; `git diff` then shows what moved)")


def check_floor(name: str, exp: Experiment, result: Result) -> None:
    """Wall-clock regression floor against the committed full-size run.

    ``SMOKE_MIN_FRACTION`` overrides the fraction for slower hosts
    without disabling the gate.
    """
    if exp.floor is None:
        return
    key, fraction = exp.floor
    fraction = float(os.environ.get("SMOKE_MIN_FRACTION", fraction))
    committed = read_ledger(name)["full"]["wall"][key]
    measured = result.wall[key]
    assert measured >= committed * fraction, (
        f"{name}: {key} regression: {measured:.1f} is below "
        f"{fraction:.0%} of the committed {committed:.1f}")
    print(f"  floor OK: {key} {measured:.1f} >= {fraction:.0%} of "
          f"committed {committed:.1f}")


def profile_call(fn: Callable[..., Any], *args: Any, top: int = 20,
                 sort: str = "cumulative", **kwargs: Any) -> Any:
    """Run ``fn(*args, **kwargs)`` under cProfile and print the top
    hotspots, so perf work is profile-driven rather than guessed.

    Prints the ``top`` entries sorted by ``sort`` (default cumulative
    time) to stdout and returns whatever ``fn`` returned. Used by
    ``python -m repro.bench --profile``.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
    print(f"\n== cProfile: top {top} by {sort} ==")
    pstats.Stats(profiler).sort_stats(sort).print_stats(top)
    return result


def ratio(a: float, b: float) -> float:
    """Safe ratio for table cells."""
    return a / b if b else float("inf")
