#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself?

Runs every workload as two interleaved sets (A1, B1, A2, B2, ...) of N
runs of the *same* checkout, each run on its own seed, and holds the
result to the benchmark's own bounds, the way a later PR will be held:

- spread: inside each set, the distance between the first and third
  quartile of an end-to-end metric (``statistics.quantiles(values,
  n=4)``) as a share of its median must stay within the metric's bound
  (``setup_s`` is exempt);
- shift: set B's median may not be worse than set A's by more than the
  bound.

An end-to-end metric that fails here does not ship with a wider bound; it
is demoted to a ``harness.*`` diagnostic.  Writes
``bench/out/aa-report.json`` and exits non-zero on any FAIL.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import OUT_DIR, load_spec, run_child


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    first, _median, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def worsening(metric: dict, first: float, second: float) -> float:
    """How much worse *second* is than *first*, as a share of *first*
    (negative: better)."""
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="bench/aa.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (default: 5; the acceptance "
                             "check uses 10)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--seed", type=int, default=100,
                        help="first seed; every run takes the next one")
    parser.add_argument("--workload", action="append", choices=names,
                        help="restrict to these workloads (repeatable)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    report = {"runs_per_set": args.runs, "seconds": args.seconds,
              "workloads": {}}
    failed = False
    seed = args.seed
    for name in args.workload or names:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for _ in range(args.runs):
            for label in ("A", "B"):
                result = run_child(name, seed, args.seconds, trace=0,
                                   echo=False)
                sets[label].append({metric: entry["value"] for metric, entry
                                    in result["metrics"].items()})
                seed += 1
        rows = {}
        print(f"\n== A/A {name}: 2 x {args.runs} runs ==")
        print(f"  {'metric':24} {'median A':>12} {'median B':>12} "
              f"{'IQR A':>7} {'IQR B':>7} {'B worse':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [run[key] for run in sets["A"]]
            b = [run[key] for run in sets["B"]]
            row = {
                "median_a": statistics.median(a),
                "median_b": statistics.median(b),
                "quartiles_a": statistics.quantiles(a, n=4),
                "quartiles_b": statistics.quantiles(b, n=4),
                "spread_a": spread(a), "spread_b": spread(b),
                "b_worse_by": worsening(metric, statistics.median(a),
                                        statistics.median(b)),
                "bound": bound,
                "values_a": a, "values_b": b,
            }
            steady = key == "setup_s" or max(row["spread_a"],
                                             row["spread_b"]) <= bound
            row["pass"] = steady and row["b_worse_by"] <= bound
            failed = failed or not row["pass"]
            rows[key] = row
            print(f"  {key:24} {row['median_a']:12.4f} "
                  f"{row['median_b']:12.4f} {row['spread_a']:7.2%} "
                  f"{row['spread_b']:7.2%} {row['b_worse_by']:8.2%} "
                  f"{bound:6.0%} {'PASS' if row['pass'] else 'FAIL'}")
        report["workloads"][name] = rows
    report["pass"] = not failed
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "aa-report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"\nA/A {'PASS' if not failed else 'FAIL'}; report in "
          f"bench/out/aa-report.json")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
