"""Run, show and check experiments:
``python -m repro.bench [names…] [--quick] [--profile] [--write]``.

With no names, every entry of :data:`~repro.bench.ALL_EXPERIMENTS` runs.
Each run prints its table, applies its ``check``, requires its
deterministic view to equal the committed section of the same size in
``benchmarks/results/<name>.json`` and evaluates its wall-clock floor,
if it has one. Nothing is written unless ``--write`` is given, which
runs both sizes and rewrites the ledger file. ``report [names…]``
renders the committed ledger without running anything; ``--profile``
wraps each run in cProfile and prints the top-20 cumulative hotspots.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import (
    Result,
    Table,
    check_floor,
    check_ledger,
    read_ledger,
    run_experiment,
    write_ledger,
)


def report(name: str) -> None:
    ledger = read_ledger(name)
    full = ledger["full"]
    Result(Table(**full["table"]), wall=full["wall"]).show()
    print(f"  measured at {ledger['commit']} on {ledger['host']}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench",
                                     description=__doc__.split("\n\n")[1])
    parser.add_argument("names", nargs="*",
                        help=f"[report] {' '.join(ALL_EXPERIMENTS)}")
    parser.add_argument("--quick", action="store_true",
                        help="run the quick parameter set")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--write", action="store_true",
                        help="run both sizes and rewrite the ledger")
    args = parser.parse_args(argv)
    reporting = args.names[:1] == ["report"]
    names = args.names[reporting:] or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}; "
              f"available: {', '.join(ALL_EXPERIMENTS)}")
        return 2
    for name in names:
        exp = ALL_EXPERIMENTS[name]
        if reporting:
            report(name)
        elif args.write:
            full = run_experiment(exp, profile=args.profile)
            full.show()
            quick = (full if exp.quick == exp.full
                     else run_experiment(exp, quick=True))
            print(f"  wrote {write_ledger(name, exp, full, quick)}")
        else:
            result = run_experiment(exp, args.quick, args.profile)
            result.show()
            check_ledger(name, exp, result, args.quick)
            check_floor(name, exp, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
