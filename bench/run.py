#!/usr/bin/env python3
"""The repo benchmark: ``python3 bench/run.py [--workload NAME] ...``.

With ``--workload`` it measures one workload in this process (after
re-executing itself under a pinned environment) and prints, as the last
line of standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` it runs
every workload of ``BENCHMARK.json`` in its own fresh subprocess and
prints a summary that ends with ``"claim": null``: this benchmark
defines the measurement and claims no gain.

It exits non-zero, printing no result, when an answer is wrong or when
the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 12
SMOKE_SECONDS = 3
#: How often a run sets up (the median is reported).  A traced run
#: reports no ``setup_s`` and sets up twice, to show what only the first
#: set-up of a process pays (``harness.first_setup_excess_s``).
SETUP_REPEATS = 3
TRACED_SETUP_REPEATS = 2
SETUP_CAL_SAMPLES = 5

#: Hash randomisation reorders every set and dict of strings; BLAS and
#: OpenMP pools would put numpy kernels on both cores at once.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="measure one workload (default: all, each in "
                             "a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="shapes the order of the query stream only "
                             f"(default: {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: probes on, per-layer metrics, spans written "
                             "to bench/out/trace-<workload>.jsonl")
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s timed phase, one set-up")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate bench/golden/ (refuses unless a "
                             "cache-less sqlite session agrees)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = float(SMOKE_SECONDS)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_environment() -> None:
    """Re-execute under :data:`PINNED_ENV` unless already there."""
    if all(os.environ.get(key) == value
           for key, value in PINNED_ENV.items()):
        return
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, **PINNED_ENV})


def import_repro() -> float:
    """Put the checkout's ``src`` first on the path and time the import."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"bench: no {src / 'repro'} — nothing to measure")
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import repro  # noqa: F401 - timed for setup_s
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def set_up(workload, repeats: int) -> tuple[list[float], list[float]]:
    """Set up *repeats* times, keeping the last; ``(raw, calibrated)``
    seconds of each."""
    import harness

    raw, calibrated = [], []
    for repeat in range(repeats):
        if repeat:
            workload.release()
            gc.collect()
        started = time.perf_counter()
        workload.setup()
        raw.append(time.perf_counter() - started)
        cal = [harness.calibrate() for _ in range(SETUP_CAL_SAMPLES)]
        calibrated.append(harness.calibrated_seconds(raw[-1], cal))
    return raw, calibrated


def measure_traced(workload, seconds: float, rng, checker):
    """One third of *seconds* untraced (the overhead baseline), the rest
    under the probes; ``(measurement, tracer, layer figures)``."""
    import probes

    baseline = workload.measure(seconds / 3.0, rng, checker)
    layers = workload.extra_layers(rng, checker)
    tracer = probes.Tracer()
    tracer.install()
    try:
        measured = workload.measure(seconds * 2.0 / 3.0, rng, checker)
    finally:
        tracer.uninstall()
    layers.update(measured.layers)
    layers.update(probes.layer_metrics(
        tracer.totals(), tracer.samples, measured.queries, measured.rounds,
        measured.llm))
    layers.update({
        f"harness.{name}": measured.harness[name]
        for name in ("calib_ms_p50", "speed_factor_min", "speed_factor_max",
                     "raw_queries_per_s", "raw_query_ms_p50", "p50_cliff",
                     "p95_cliff")})
    layers["harness.trace_overhead_share"] = (
        measured.e2e["query_ms_p50"] / baseline.e2e["query_ms_p50"] - 1.0)
    layers["harness.probes_missing"] = float(len(tracer.missing))
    return measured, tracer, layers


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    import_s = import_repro()
    import harness
    import queries
    from workloads import WORKLOADS

    context = harness.run_context(str(ROOT), args.seed)
    import_cal = [harness.calibrate() for _ in range(SETUP_CAL_SAMPLES)]
    workload = WORKLOADS[args.workload]()
    checker = queries.AnswerChecker(queries.load_golden(args.workload))
    rng = random.Random(args.seed)
    OUT_DIR.mkdir(exist_ok=True)

    setups_raw, setups_cal = set_up(
        workload, 1 if args.smoke else TRACED_SETUP_REPEATS if args.trace
        else SETUP_REPEATS)
    try:
        if args.trace:
            measured, tracer, values = measure_traced(
                workload, args.seconds, rng, checker)
        else:
            measured = workload.measure(args.seconds, rng, checker)
    finally:
        workload.release()

    if args.trace:
        declared = spec["per_layer"]
        values["harness.raw_setup_s"] = import_s + setups_raw[-1]
        values["harness.first_setup_excess_s"] = (
            setups_raw[0] - statistics.median(setups_raw))
        values["datasets.load_lake_s"] = workload.load_lake_s
        for target in tracer.missing:
            print(f"bench: warning: probe target {target} is gone; its "
                  f"metrics read 0", file=sys.stderr)
        spans = tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl")
        print(f"wrote {spans} spans to bench/out/trace-{args.workload}.jsonl")
    else:
        declared = spec["end_to_end"]
        calls, tokens_in, tokens_out = measured.llm
        values = {
            **measured.e2e,
            "setup_s": harness.calibrated_seconds(import_s, import_cal)
            + statistics.median(setups_cal),
            "llm_calls_per_query": calls / measured.queries,
            "llm_tokens_per_query":
                (tokens_in + tokens_out) / measured.queries,
            "peak_rss_mb": harness.peak_rss_mb(),
        }

    # A layer a workload does not exercise (serve.* outside serve-open)
    # reads 0.
    metrics = {metric["name"]: {"value": float(values.get(metric["name"],
                                                          0.0)),
                                "unit": metric["unit"]}
               for metric in declared}
    undeclared = sorted(set(values) - set(metrics))
    if undeclared:
        raise SystemExit(f"bench: metrics missing from BENCHMARK.json: "
                         f"{undeclared}")

    ratio = (measured.harness["speed_factor_max"]
             / measured.harness["speed_factor_min"])
    context.update({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "loadavg_after": harness.loadavg(),
        "contaminated": ratio > harness.CONTAMINATED_RATIO,
        "speed_factor_ratio": ratio,
        "blocks": measured.harness["blocks"],
        "samples_per_block": measured.harness["samples_per_block"],
        "queries": measured.queries,
        "setup_raw_s": setups_raw,
        "import_raw_s": import_s,
    })
    result = {"correct": checker.failed == 0,
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": metrics}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump({"context": context, **result}, handle, indent=1)

    print(f"== {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}) ==")
    for name, metric in metrics.items():
        print(f"  {name:42} {metric['value']:14.4f} {metric['unit']}")
    print(f"  percentiles: {measured.harness['blocks']:g} blocks x "
          f"{measured.harness['samples_per_block']:g} samples; "
          f"{checker.attempted} attempted, {checker.failed} failed"
          + ("; CONTAMINATED (speed factor ratio "
             f"{ratio:.2f})" if context["contaminated"] else ""))
    if checker.failed:
        print(f"bench: wrong answer: {checker.first_failure}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# The whole suite, one fresh subprocess per workload
# ----------------------------------------------------------------------

def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool = False, echo: bool = True) -> dict:
    """Run one workload in a subprocess; returns its result object."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"bench: {workload} exited {done.returncode}")
    if echo:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def run_suite(args: argparse.Namespace, spec: dict) -> int:
    results = {}
    for workload in spec["workloads"]:
        results[workload["name"]] = run_child(
            workload["name"], args.seed, args.seconds, args.trace,
            args.smoke)
    print(json.dumps({"seed": args.seed, "trace": args.trace,
                      "workloads": results, "claim": None}))
    return 0


# ----------------------------------------------------------------------
# Goldens
# ----------------------------------------------------------------------

def write_goldens(spec: dict) -> int:
    import_repro()
    import queries
    from repro import EngineConfig, Session, load_lake
    from workloads import WORKLOADS

    for entry in spec["workloads"]:
        workload = WORKLOADS[entry["name"]]()
        lakes = {dataset: load_lake(dataset, scale=scale)
                 for dataset, scale in workload.scales().items()}
        default = {name: Session(lake) for name, lake in lakes.items()}
        oracle = {name: Session(lake, config=EngineConfig(
            relational_engine="sqlite")) for name, lake in lakes.items()}
        answers = {}
        for query in workload.unique_queries():
            dataset, text = query
            got = default[dataset].query(text)
            want = oracle[dataset].query(text)
            if not got.ok or queries.digest(got) != queries.digest(want):
                raise SystemExit(
                    f"bench: refusing to write goldens: {query} gives "
                    f"{queries.digest(got)} on the default engine and "
                    f"{queries.digest(want)} on sqlite")
            answers[queries.golden_key(query)] = queries.digest(got)
        queries.write_golden(entry["name"], answers)
        print(f"wrote {len(answers)} goldens for {entry['name']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(sys.argv[1:] if argv is None else argv, spec)
    pin_environment()
    if args.write_golden:
        return write_goldens(spec)
    if args.workload is None:
        return run_suite(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
