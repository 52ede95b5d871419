"""The ``repro bench`` harness.

Runs a dataset's fixed workload (:mod:`repro.benchmarks.workloads`) through
a :class:`~repro.session.Session` at several worker counts, for one or
more execution backends (``--backend thread,process`` measures the
thread pool against the GIL-free process lanes on the same workload).
Every ``(backend, workers)`` point gets a fresh session (fresh caches,
fresh worker pool) and two passes over the workload:

- a **cold** pass that populates the plan cache and the answer cache, and
- a **warm** pass on the now-hot caches — the steady-state a long-running
  service converges to, and the configuration the speedup claims are made
  on.

The planner model runs with a configurable simulated inference latency
(``--llm-latency-ms``, see :class:`~repro.llm.brain.SimulatedBrain`): in a
production deployment every planning/mapping step is a remote LLM round
trip, so worker scaling is measured against that latency-bound profile
rather than against a zero-latency simulator.  ``--llm-latency-ms 0``
measures the pure-CPU profile instead.

Results land in ``BENCH_parallel.json`` (``--output``), with warm
throughput speedups computed against the 1-worker run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.benchmarks.workloads import (WORKLOAD_VERSION, workload,
                                        workload_names)
from repro.cliargs import backend_list, positive_float, positive_int
from repro.core.batch import BatchReport
from repro.core.engine import RELATIONAL_ENGINES, EngineConfig
from repro.data.catalog import DataLake
from repro.data.columns import set_table_store, table_store
from repro.datasets import DATASET_NAMES, load_lake
from repro.exec import backend_names
from repro.llm.brain import SimulatedBrain
from repro.obs import TelemetryConfig, render_snapshot
from repro.session import Session

DEFAULT_WORKERS = (1, 2, 4)
DEFAULT_BACKENDS = ("thread",)
DEFAULT_SCALE = 10.0
DEFAULT_LLM_LATENCY_MS = 10.0
DEFAULT_OUTPUT = "BENCH_parallel.json"

_STORES = ("columnar", "row")


@dataclass
class BenchConfig:
    """One benchmark invocation."""

    dataset: str = "artwork"
    scale: float = DEFAULT_SCALE
    seed: int | None = None
    workers: tuple[int, ...] = DEFAULT_WORKERS
    #: execution backends to measure; each gets its own scaling curve
    #: over ``workers`` (fresh session — and for "process", a fresh
    #: worker-lane pool — per point).
    backends: tuple[str, ...] = DEFAULT_BACKENDS
    repeats: int = 3
    #: ``None`` means "no latency override" — only meaningful together
    #: with a *session_factory* whose brain sets its own pace (see
    #: :meth:`repro.session.Session.bench`).
    llm_latency_ms: float | None = DEFAULT_LLM_LATENCY_MS
    plan_cache_size: int = 128
    output: str | None = DEFAULT_OUTPUT
    #: span collection + cost accounting in the benchmarked sessions;
    #: ``--no-telemetry`` turns it off (the CI overhead gate compares the
    #: two states on one leg).
    telemetry: bool = True
    #: optional path for the per-point session metrics snapshots (the
    #: JSON artifact CI uploads).
    metrics_output: str | None = None
    #: workload family (:func:`repro.benchmarks.workloads.workload_names`).
    #: ``relational`` is the storage-bound filter/join/aggregate profile
    #: the store comparison below is measured on.
    workload_name: str = "standard"
    #: table store for the measured grid (``columnar`` / ``row``);
    #: ``None`` inherits the process default (``REPRO_TABLE_STORE``).
    store: str | None = None
    #: relational engine for the measured grid; ``None`` inherits
    #: (``REPRO_RELATIONAL_ENGINE``, default ``columnar``).
    engine: str | None = None
    #: when set (``row``), the whole grid is re-run under that table
    #: store with the sqlite bridge engine — the pre-columnar
    #: configuration — and per-point warm speedups vs that baseline are
    #: recorded (``warm_speedup_vs_baseline``, gated in CI).
    baseline_store: str | None = None
    quiet: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.workload_name not in workload_names():
            raise ValueError(
                f"unknown workload {self.workload_name!r}; available: "
                f"{', '.join(workload_names())}")
        for label, value, allowed in (
                ("store", self.store, _STORES),
                ("engine", self.engine, RELATIONAL_ENGINES),
                ("baseline_store", self.baseline_store, _STORES)):
            if value is not None and value not in allowed:
                raise ValueError(f"unknown {label} {value!r}; available: "
                                 f"{', '.join(allowed)}")
        if not self.workers:
            raise ValueError("at least one worker count is required")
        if any(w <= 0 for w in self.workers):
            raise ValueError(f"worker counts must be positive: "
                             f"{self.workers}")
        if not self.backends:
            raise ValueError("at least one backend is required")
        unknown = [b for b in self.backends if b not in backend_names()]
        if unknown:
            raise ValueError(
                f"unknown backends {unknown}; available: "
                f"{', '.join(backend_names())}")
        if self.repeats <= 0:
            raise ValueError(f"repeats must be positive, got {self.repeats}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.llm_latency_ms is not None and self.llm_latency_ms < 0:
            raise ValueError("llm latency must be non-negative")


def _say(config: BenchConfig, message: str) -> None:
    if not config.quiet:
        print(f"[bench] {message}", flush=True)


@contextmanager
def _storage_mode(store: str | None, engine: str | None) -> Iterator[None]:
    """Pin the table store and relational engine, process-wide.

    Both knobs go through the environment as well as the in-process
    setters, so process-backend worker lanes inherit them.
    """
    previous_store: str | None = None
    saved_env: dict[str, str | None] = {}
    try:
        if store is not None:
            previous_store = set_table_store(store)
            saved_env["REPRO_TABLE_STORE"] = os.environ.get(
                "REPRO_TABLE_STORE")
            os.environ["REPRO_TABLE_STORE"] = store
        if engine is not None:
            saved_env["REPRO_RELATIONAL_ENGINE"] = os.environ.get(
                "REPRO_RELATIONAL_ENGINE")
            os.environ["REPRO_RELATIONAL_ENGINE"] = engine
        yield
    finally:
        if previous_store is not None:
            set_table_store(previous_store)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _run_grid(config: BenchConfig, queries: list[str],
              session_factory: Callable[[], Session],
              ) -> tuple[list[dict], dict[tuple[str, int], BatchReport]]:
    """One cold+warm pass per ``(backend, workers)`` point."""
    runs: list[dict] = []
    warm_reports: dict[tuple[str, int], BatchReport] = {}
    for backend in config.backends:
        for workers in config.workers:
            session = session_factory()
            try:
                cold = session.batch(queries, workers=workers,
                                     backend=backend)
                warm = session.batch(queries, workers=workers,
                                     backend=backend)
                metrics = session.metrics()
            finally:
                # Shut worker lanes down between points so one curve's
                # processes never sit on cores while the next measures.
                session.close()
            warm_reports[(backend, workers)] = warm
            runs.append({"backend": backend,
                         "workers": workers,
                         "cold": cold.to_dict(),
                         "warm": warm.to_dict(),
                         "metrics": metrics})
            economics = warm.telemetry.cost_summary()
            _say(config,
                 f"{backend:>7s} x{workers}: "
                 f"cold {cold.queries_per_second:6.1f} q/s, "
                 f"warm {warm.queries_per_second:6.1f} q/s "
                 f"(plan hit {warm.cache_hit_rate:.0%}, "
                 f"answer hit {warm.answer_hit_rate:.0%}, "
                 f"{economics['token_in'] + economics['token_out']} tok "
                 f"${economics['cost_usd']:.4f}, "
                 f"{warm.num_errors} errors)")
    return runs, warm_reports


def _warm_speedups(config: BenchConfig,
                   warm_reports: dict[tuple[str, int], BatchReport],
                   ) -> dict[str, dict[str, float]]:
    """Per-backend warm speedup curves vs the 1-worker point."""
    speedups: dict[str, dict[str, float]] = {}
    for backend in config.backends:
        baseline = warm_reports.get((backend, 1))
        if baseline is None or baseline.queries_per_second <= 0:
            _say(config, f"no 1-worker run for backend {backend}; "
                         "warm speedups vs 1 worker omitted")
            continue
        curve: dict[str, float] = {}
        for workers in sorted(config.workers):
            report = warm_reports[(backend, workers)]
            ratio = report.queries_per_second / baseline.queries_per_second
            curve[str(workers)] = round(ratio, 3)
            if workers != 1:
                _say(config, f"{backend} warm speedup at {workers} workers: "
                             f"{ratio:.2f}x vs 1 worker")
        speedups[backend] = curve
    return speedups


def run_benchmark(config: BenchConfig, lake: DataLake | None = None,
                  session_factory: Callable[[], Session] | None = None,
                  ) -> dict:
    """Run the benchmark described by *config* and return the JSON record.

    When ``config.output`` is set, the record is also written there.  When
    *lake* is given (:meth:`repro.session.Session.bench` does this), it is
    benchmarked as-is and ``config.scale``/``config.seed`` are recorded as
    ``None`` — they describe lake generation, which did not happen here.
    *session_factory* supplies the fresh session for each worker count
    (``Session.bench`` uses it to carry its brain, config, and role
    overrides into the benchmark); the default builds one over *lake*
    with a :class:`~repro.llm.brain.SimulatedBrain` at
    ``config.llm_latency_ms``.
    """
    queries = workload(config.dataset, repeats=config.repeats,
                       name=config.workload_name)
    provided_lake = lake is not None
    if config.baseline_store is not None and (provided_lake
                                              or session_factory is not None):
        raise ValueError("the store baseline regenerates the lake and "
                         "session; it cannot be combined with a provided "
                         "lake or session factory")

    with _storage_mode(config.store, config.engine):
        active_store = table_store()
        active_engine = EngineConfig().relational_engine
        if provided_lake:
            generation_seconds = 0.0
        else:
            _say(config, f"generating {config.dataset} lake at scale "
                         f"{config.scale:g} (store {active_store}, "
                         f"engine {active_engine}) ...")
            generated = time.perf_counter()
            lake = load_lake(config.dataset, seed=config.seed,
                             scale=config.scale)
            generation_seconds = time.perf_counter() - generated
        lake_rows = {name: lake.table(name).num_rows
                     for name in lake.source_names}
        _say(config, f"lake ready in {generation_seconds:.1f}s "
                     f"({', '.join(f'{n}={r}' for n, r in lake_rows.items())})"
             )
        latency_text = ("session brain" if config.llm_latency_ms is None
                        else f"{config.llm_latency_ms:g}ms")
        _say(config, f"workload: {config.workload_name}, "
                     f"{len(queries)} queries "
                     f"({len(set(queries))} unique), llm latency "
                     f"{latency_text}")

        if session_factory is None:
            latency_ms = config.llm_latency_ms or 0.0

            def session_factory() -> Session:
                return Session(
                    lake,
                    brain=SimulatedBrain(
                        latency_seconds=latency_ms / 1000.0),
                    plan_cache_size=config.plan_cache_size,
                    telemetry=TelemetryConfig(enabled=config.telemetry))

        runs, warm_reports = _run_grid(config, queries, session_factory)
        speedups = _warm_speedups(config, warm_reports)

    baseline_record = None
    baseline_speedups: dict[str, dict[str, float]] = {}
    if config.baseline_store is not None:
        # The pre-columnar configuration: row-stored tables executed
        # through the sqlite bridge.  Same workload, same grid, fresh
        # lake and sessions, so the comparison isolates the store.
        _say(config, f"baseline grid: table store "
                     f"{config.baseline_store!r}, relational engine "
                     f"'sqlite' (the pre-columnar path)")
        with _storage_mode(config.baseline_store, "sqlite"):
            generated = time.perf_counter()
            baseline_lake = load_lake(config.dataset, seed=config.seed,
                                      scale=config.scale)
            baseline_generation = time.perf_counter() - generated
            latency_ms = config.llm_latency_ms or 0.0

            def baseline_factory() -> Session:
                return Session(
                    baseline_lake,
                    brain=SimulatedBrain(
                        latency_seconds=latency_ms / 1000.0),
                    plan_cache_size=config.plan_cache_size,
                    telemetry=TelemetryConfig(enabled=config.telemetry))

            baseline_runs, baseline_warm = _run_grid(config, queries,
                                                     baseline_factory)
        baseline_record = {
            "table_store": config.baseline_store,
            "relational_engine": "sqlite",
            "lake_fingerprint": baseline_lake.fingerprint(),
            "lake_generation_seconds": round(baseline_generation, 3),
            "runs": baseline_runs,
            "warm_speedup_vs_1_worker": _warm_speedups(config,
                                                       baseline_warm),
        }
        for backend in config.backends:
            curve: dict[str, float] = {}
            for workers in sorted(config.workers):
                primary = warm_reports[(backend, workers)]
                baseline = baseline_warm[(backend, workers)]
                if baseline.queries_per_second <= 0:
                    continue
                ratio = (primary.queries_per_second
                         / baseline.queries_per_second)
                curve[str(workers)] = round(ratio, 3)
                _say(config, f"{backend} x{workers} warm: {ratio:.2f}x vs "
                             f"{config.baseline_store}-store baseline")
            baseline_speedups[backend] = curve

    record = {
        "benchmark": "parallel_batch",
        "workload_version": WORKLOAD_VERSION,
        "workload": config.workload_name,
        "created_unix": int(time.time()),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "dataset": config.dataset,
        "scale": None if provided_lake else config.scale,
        "seed": None if provided_lake else config.seed,
        "table_store": active_store,
        "relational_engine": active_engine,
        "lake_fingerprint": lake.fingerprint(),
        "lake_rows": lake_rows,
        "lake_generation_seconds": round(generation_seconds, 3),
        "queries_per_run": len(queries),
        "unique_queries": len(set(queries)),
        "repeats": config.repeats,
        "llm_latency_ms": config.llm_latency_ms,
        "telemetry": config.telemetry,
        "backends": list(config.backends),
        "runs": runs,
        "warm_speedup_vs_1_worker": speedups,
    }
    if baseline_record is not None:
        record["baseline"] = baseline_record
        record["warm_speedup_vs_baseline"] = baseline_speedups
    if config.output:
        path = Path(config.output)
        path.write_text(json.dumps(record, indent=2) + "\n",
                        encoding="utf-8")
        _say(config, f"wrote {path}")
    if config.metrics_output:
        points = [{"backend": run["backend"], "workers": run["workers"],
                   "metrics": run["metrics"]} for run in runs]
        path = Path(config.metrics_output)
        # render_snapshot keeps this artifact byte-compatible with the
        # service's GET /metrics and `repro batch --metrics-file`.
        path.write_text(
            render_snapshot({"benchmark": "parallel_batch_metrics",
                             "dataset": config.dataset, "points": points}),
            encoding="utf-8")
        _say(config, f"wrote {path}")
    return record


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Benchmark parallel batch execution and the caches "
                    "over a scaled data lake.")
    parser.add_argument("--dataset", choices=DATASET_NAMES,
                        default="artwork",
                        help="dataset to benchmark (default: artwork)")
    parser.add_argument("--scale", type=positive_float,
                        default=DEFAULT_SCALE,
                        help=f"lake scale factor (default: "
                             f"{DEFAULT_SCALE:g})")
    parser.add_argument("--seed", type=int, default=None,
                        help="dataset generation seed")
    parser.add_argument("--workers", default=",".join(
                            str(w) for w in DEFAULT_WORKERS),
                        help="comma-separated worker counts "
                             "(default: 1,2,4)")
    parser.add_argument("--backend", type=backend_list,
                        default=DEFAULT_BACKENDS, metavar="NAMES",
                        help="comma-separated execution backends to "
                             "measure, each with its own scaling curve "
                             f"({', '.join(backend_names())}; "
                             "default: thread)")
    parser.add_argument("--repeats", type=positive_int, default=3,
                        help="workload repetitions per run (default: 3)")
    parser.add_argument("--workload", choices=workload_names(),
                        default="standard", metavar="NAME",
                        help="workload family "
                             f"({', '.join(workload_names())}; default: "
                             "standard).  'relational' is the pure "
                             "filter/join/aggregate profile the store "
                             "comparison is measured on")
    parser.add_argument("--store", choices=_STORES, default=None,
                        help="table store for the measured grid "
                             "(default: inherit REPRO_TABLE_STORE, "
                             "i.e. columnar)")
    parser.add_argument("--engine", choices=RELATIONAL_ENGINES, default=None,
                        help="relational engine for the measured grid "
                             "(default: inherit REPRO_RELATIONAL_ENGINE, "
                             "i.e. columnar)")
    parser.add_argument("--baseline-store", choices=_STORES, default=None,
                        metavar="STORE",
                        help="also run the whole grid under this table "
                             "store with the sqlite bridge engine (the "
                             "pre-columnar path) and record per-point "
                             "warm speedups vs that baseline")
    parser.add_argument("--gate-baseline", type=positive_float, default=None,
                        metavar="RATIO",
                        help="exit non-zero unless every backend's "
                             "1-worker warm throughput beats the "
                             "--baseline-store run by at least RATIO x")
    parser.add_argument("--llm-latency-ms", type=float,
                        default=DEFAULT_LLM_LATENCY_MS,
                        help="simulated planner-model latency per call in "
                             "milliseconds (default: "
                             f"{DEFAULT_LLM_LATENCY_MS:g}; 0 disables)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"JSON output path (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="disable span collection and cost accounting "
                             "in the benchmarked sessions (measures the "
                             "tracing overhead when compared against a "
                             "default run)")
    parser.add_argument("--metrics-output", metavar="PATH", default=None,
                        help="also write the per-point session metrics "
                             "snapshots to this JSON file")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")
    return parser


def _parse_workers(text: str) -> tuple[int, ...]:
    try:
        workers = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise SystemExit(f"invalid --workers value {text!r}: {exc}")
    if not workers:
        raise SystemExit(f"invalid --workers value {text!r}")
    return workers


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.gate_baseline is not None and args.baseline_store is None:
        raise SystemExit("--gate-baseline requires --baseline-store")
    config = BenchConfig(
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        workers=_parse_workers(args.workers),
        backends=tuple(args.backend),
        repeats=args.repeats,
        llm_latency_ms=args.llm_latency_ms,
        output=args.output,
        telemetry=not args.no_telemetry,
        metrics_output=args.metrics_output,
        workload_name=args.workload,
        store=args.store,
        engine=args.engine,
        baseline_store=args.baseline_store,
        quiet=args.quiet,
    )
    record = run_benchmark(config)
    errors = sum(run[pass_name]["errors"]
                 for run in record["runs"] for pass_name in ("cold", "warm"))
    if record.get("baseline") is not None:
        errors += sum(
            run[pass_name]["errors"]
            for run in record["baseline"]["runs"]
            for pass_name in ("cold", "warm"))
    if errors:
        return 1
    if args.gate_baseline is not None:
        speedups = record.get("warm_speedup_vs_baseline", {})
        for backend in config.backends:
            ratio = speedups.get(backend, {}).get("1")
            if ratio is None or ratio < args.gate_baseline:
                print(f"[bench] GATE FAILED: {backend} 1-worker warm "
                      f"throughput is {ratio}x the "
                      f"{config.baseline_store}-store baseline "
                      f"(required >= {args.gate_baseline:g}x)", flush=True)
                return 1
            print(f"[bench] gate ok: {backend} 1-worker warm {ratio}x >= "
                  f"{args.gate_baseline:g}x baseline", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
