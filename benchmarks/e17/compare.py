"""``run.py compare A.json B.json``: did B get worse than A?

One row per (workload, metric) with base, new, their ratio, the bound
from ``BENCHMARK.json`` and a verdict:

* ``better`` / ``worse`` — the medians differ by more than the bound;
* ``same`` — they do not;
* ``unresolved`` — the spread between a file's own sections (distance
  between first and third quartile over the median) is wider than the
  bound, so the medians cannot settle it — unless every section of B
  reads better than every section of A (``better``), or every one reads
  worse and the medians differ by more than the bound (``worse``).

Gated rows are the end-to-end metrics and, on the workloads that run on
virtual time, the virtual latencies (bound ``exact``).  The other
per-layer metrics that must repeat exactly per seed are listed when they
differ, as information: a count that moved is what an optimisation looks
like, and only the same code run twice has to keep them identical.
Exit status is 1 when a gated row is ``worse`` or B failed its checks.
"""

from __future__ import annotations

import json
import statistics
import sys

from e17.metrics import EXACT_UNITS
from e17.workloads import DETERMINISTIC


def spread(samples: list[float]) -> float:
    if len(samples) < 2:
        return 0.0
    first, _median, third = statistics.quantiles(samples, n=4)
    middle = statistics.median(samples)
    return abs((third - first) / middle) if middle else 0.0


def verdict(base: list[float], new: list[float], bound: float,
            better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    change = statistics.median(new) - base_median
    gain = sign * (change / base_median if base_median else change)
    if max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "better"
        if gain < -bound and all(sign * (n - b) < 0
                                 for n in new for b in base):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, base, new, ratio, bound, verdict,
    gated)`` and whether B is acceptable."""
    rows: list[tuple] = []
    ok = True
    # exact metrics repeat per seed; across seeds they differ by design
    same_seed = base["provenance"]["seed"] == new["provenance"]["seed"]
    for entry in spec["workloads"]:
        name = entry["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            continue
        old_runs, new_runs = base["workloads"][name], new["workloads"][name]
        for group in ("end_to_end", "per_layer"):
            if not new_runs[group]["correct"]:
                ok = False
                rows.append((name, f"{group} checks", "-", "-", "-", "-",
                             "worse", True))
        for metric in spec["end_to_end"]:
            old = old_runs["end_to_end"]["metrics"][metric["name"]]
            cur = new_runs["end_to_end"]["metrics"][metric["name"]]
            rows.append(row(name, metric, old, cur, metric["bound"], True))
        if name not in DETERMINISTIC or not same_seed:
            continue
        for metric in spec["per_layer"]:
            if metric["unit"] not in EXACT_UNITS:
                continue
            old = old_runs["per_layer"]["metrics"][metric["name"]]
            cur = new_runs["per_layer"]["metrics"][metric["name"]]
            gated = metric["unit"] == "virt_s"
            if old["value"] != cur["value"] or (gated and cur["value"]):
                rows.append(row(name, metric, old, cur, 0.0, gated))
    ok = ok and not any(r[6] == "worse" and r[7] for r in rows)
    return rows, ok


def row(workload: str, metric: dict, old: dict, cur: dict, bound: float,
        gated: bool) -> tuple:
    ratio = cur["value"] / old["value"] if old["value"] else float("nan")
    return (workload, metric["name"], old["value"], cur["value"], ratio,
            bound, verdict(old["samples"], cur["samples"], bound,
                           metric["better"]), gated)


def main(argv: list[str], spec: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    rows, ok = compare(files[0], files[1], spec)
    print(f"{'workload':<14} {'metric':<44} {'base':>12} {'new':>12} "
          f"{'new/base':>9} {'bound':>6} verdict")
    for workload, metric, old, cur, ratio, bound, word, gated in rows:
        if old == "-":
            print(f"{workload:<14} {metric:<44} {'':>12} {'':>12} "
                  f"{'':>9} {'':>6} {word}")
            continue
        limit = ("exact" if bound == 0.0 else f"{bound:.2f}") if gated else "-"
        print(f"{workload:<14} {metric:<44} {old:>12.6g} {cur:>12.6g} "
              f"{ratio:>9.4f} {limit:>6} {word}"
              f"{'' if gated else ' (not gated)'}")
    print("no gated metric got worse" if ok else "WORSE: see rows above")
    return 0 if ok else 1
