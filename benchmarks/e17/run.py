"""E17 layer-budget benchmark: one command for every metric.

Driver contract (one workload, one JSON line last)::

    python3 benchmarks/e17/run.py --workload NAME --seed N --seconds S --trace 0|1

Whole suite, human-readable, with a result file for ``compare``::

    python3 benchmarks/e17/run.py [--seed N] [--seconds S] [--out FILE]
    python3 benchmarks/e17/run.py compare A.json B.json

Each measured section runs in a fresh subprocess (``run.py section``),
so set-up time and peak RSS belong to one section only.  A run launches
sections until ``--seconds`` have passed (at least ``MIN_SECTIONS``) and
reports the median of each metric over them; with ``--trace 1`` untraced
and traced sections alternate, the per-layer metrics come from the
traced ones and their wall against the untraced wall is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
MIN_SECTIONS = 3
SECTION_TIMEOUT = 150


def bootstrap() -> None:
    """Make ``repro`` (built from source: pure Python, nothing to
    compile) and this package importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e17: no program to measure under {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(HERE.parent)):
        if path not in sys.path:
            sys.path.insert(0, path)


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# child: one measured section
# ----------------------------------------------------------------------

def section_main(args: argparse.Namespace) -> int:
    bootstrap()
    from e17 import metrics, trace, workloads

    tracer = trace.install() if args.trace else None
    clock = workloads.SectionClock(args.spawned_at)
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.scale, clock)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    outcome["peak_rss_mb"] = max(own, kids) / 1024.0
    totals = None
    if tracer is not None:
        parts = outcome.pop("worker_traces", None) or [tracer.totals()]
        totals = trace.merge_totals(parts)
        trace.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        trace.write_records(OUT_DIR / f"trace-{args.workload}.jsonl",
                            totals.pop("records"))
    print(json.dumps(metrics.section_report(outcome, totals)))
    return 0


def run_section(workload: str, seed: int, traced: bool,
                scale: float = 1.0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "section",
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--scale", repr(scale),
           "--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SECTION_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} section exceeded "
                         f"{SECTION_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} section failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# parent: one run = several sections, medians, output checks
# ----------------------------------------------------------------------

def median_of(sections: list[dict], group: str) -> dict[str, dict]:
    out = {}
    for name in sections[0][group]:
        samples = [s[group][name] for s in sections]
        out[name] = {"value": statistics.median(samples),
                     "samples": samples, "n": len(samples)}
    return out


def measure(workload: str, seed: int, seconds: float,
            traced: bool) -> dict:
    """One run of one workload; see the module docstring."""
    from e17 import workloads

    deadline = time.monotonic() + seconds
    sections: list[dict] = []
    while len(sections) < MIN_SECTIONS or time.monotonic() < deadline:
        trace_this = traced and len(sections) % 2 == 1
        sections.append(run_section(workload, seed, trace_this))
    plain = [s for s in sections if not s["traced"]]
    violations = []
    for index, section in enumerate(sections):
        for check, ok in section["checks"].items():
            if not ok:
                violations.append(f"section {index}: {check}")
        if section["failed"]:
            violations.append(f"section {index}: {section['failed']} of "
                              f"{section['attempted']} deliveries not "
                              f"executed exactly once")
    if workload in workloads.DETERMINISTIC:
        # same seed, same inputs: traced or not, every section must
        # reproduce the same ledger, virtual latencies and counters
        if len({s["digest"] for s in sections}) != 1:
            violations.append("same-seed sections disagree on the digest")
    result = {
        "workload": workload, "seed": seed, "traced": traced,
        "correct": not violations, "violations": violations,
        "attempted": sum(s["attempted"] for s in plain),
        "failed": sum(s["failed"] for s in plain),
        "digest": sections[0]["digest"],
        "sections": len(sections),
    }
    if traced:
        # self times from the traced sections, counts from the untraced
        layers = median_of([s for s in sections if s["traced"]], "per_layer")
        layers.update(median_of(plain, "counts"))
        costs = [s["time_cost"] for s in sections if s["traced"]]
        base = statistics.median(s["time_cost"] for s in plain)
        layers["trace.overhead_fraction"] = {
            "value": (statistics.median(costs) - base) / base,
            "samples": [(c - base) / base for c in costs], "n": len(costs)}
        result["metrics"] = layers
    else:
        result["metrics"] = median_of(plain, "end_to_end")
    return result


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def driver_main(args: argparse.Namespace) -> int:
    bootstrap()
    spec = load_spec()
    unit = units(spec)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for violation in result["violations"]:
        print(f"e17: {args.workload}: {violation}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                "unit": unit[m["name"]]}
                    for m in wanted},
    }))
    return 0 if result["correct"] else 1


def provenance(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit or "unknown",
            "seed": args.seed, "seconds": args.seconds,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def suite_main(args: argparse.Namespace) -> int:
    bootstrap()
    spec = load_spec()
    unit = units(spec)
    report = {"benchmark": "e17", "provenance": provenance(args),
              "workloads": {}}
    ok = True
    for entry in spec["workloads"]:
        name = entry["name"]
        if args.workload and name != args.workload:
            continue
        plain = measure(name, args.seed, args.seconds, traced=False)
        traced = measure(name, args.seed, args.seconds, traced=True)
        ok = ok and plain["correct"] and traced["correct"]
        report["workloads"][name] = {"end_to_end": plain, "per_layer": traced}
        print(f"\n== {name}: {entry['why']}")
        for run in (plain, traced):
            kind = "per-layer (traced)" if run["traced"] else "end-to-end"
            print(f"-- {kind}: {run['sections']} sections, "
                  f"{run['failed']} of {run['attempted']} failed, "
                  f"correct={run['correct']}")
            for violation in run["violations"]:
                print(f"   VIOLATION {violation}")
            for metric, cell in run["metrics"].items():
                print(f"   {metric:<48} {cell['value']:>14.6g} "
                      f"{unit[metric]:<8} n={cell['n']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print(f"\nwrote {args.out}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        bootstrap()
        from e17 import compare
        return compare.main(argv[1:], load_spec())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    if argv[:1] == ["section"]:
        argv = argv[1:]
        parser.add_argument("--scale", type=float, default=1.0)
        parser.add_argument("--spawned-at", type=float, required=True)
        handler = section_main
    else:
        parser.add_argument("--seconds", type=float, default=None)
        parser.add_argument("--out", default=None)
        handler = None
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if handler is None:
        if args.seconds is None:
            args.seconds = float(load_spec()["run_seconds"])
        # the driver names a workload and a trace mode; without them the
        # whole suite runs, traced and untraced
        handler = (driver_main if args.workload and args.trace is not None
                   else suite_main)
    try:
        return handler(args)
    except BenchError as error:
        print(f"e17: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
