"""Command-line entry point: answer one query, run a batch, or serve.

Examples::

    repro query --dataset rotowire "How many players are taller than 200?"
    repro batch --dataset artwork queries.txt --workers 4 \\
        --plan-cache-file plans.json
    repro serve --dataset rotowire --port 8765
    repro --version

Installed as the ``repro`` console script.  Every path drives the system
through :class:`repro.session.Session`; ``--plan-cache-file`` rehydrates
the plan cache before the run and persists it afterwards, so a repeated
batch plans nothing.  The ``serve``, ``cache-server``, ``trace`` and
``fuzz`` subcommands forward to their own modules' parsers.  Performance
is measured by the repository benchmark, ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cliargs import positive_float, positive_int
from repro.core.batch import BACKENDS, PLAN_SPACE
from repro.core.engine import EngineConfig
from repro.core.plan import QueryResult
from repro.datasets import DATASET_NAMES, load_lake
from repro.llm.interface import LanguageModel
from repro.obs import render_snapshot
from repro.plotting.ascii import render_plot
from repro.session import Session


def add_lake_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags naming a lake and its caches, shared by ``query``,
    ``batch`` and ``serve`` (read by :func:`build_session`)."""
    parser.add_argument("--dataset", required=True, choices=DATASET_NAMES,
                        help="which synthetic dataset to load")
    parser.add_argument("--seed", type=int, default=None,
                        help="dataset generation seed (default: the "
                             "dataset's own default)")
    parser.add_argument("--scale", type=positive_float, default=1.0,
                        help="lake scale factor, multiplies the dataset's "
                             "base cardinality (default: 1.0)")
    parser.add_argument("--plan-cache-file", metavar="PATH", default=None,
                        help="JSON file the plan cache is loaded from (if "
                             "present) at start and saved to at the end "
                             "(for serve: on graceful drain), so plans "
                             "survive across runs")
    parser.add_argument("--answer-cache-file", metavar="PATH", default=None,
                        help="JSON file the answer cache is loaded from (if "
                             "present) at start and saved to at the end "
                             "(for serve: on graceful drain), so warm "
                             "modality answers survive restarts")
    parser.add_argument("--cache-url", metavar="URL", default=None,
                        help="shared cache tier to warm from and feed "
                             "(tcp://host:port or unix:///path.sock, see "
                             "'repro cache-server'); a down tier degrades "
                             "to local caches")


def build_parser() -> argparse.ArgumentParser:
    """The subcommand-style parser (``repro query|batch|serve|...``)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Answer natural-language queries over a multi-modal "
                    "data lake (CAESURA reproduction).")
    parser.add_argument("--version", action="version",
                        version=f"repro {_version()}")
    subparsers = parser.add_subparsers(dest="command")

    query = subparsers.add_parser(
        "query", help="answer one natural-language query")
    add_lake_arguments(query)
    query.add_argument("query", help="the natural-language query")
    query.add_argument("--trace", action="store_true",
                       help="print the stage/operator span tree (durations, "
                            "tokens, cost), the physical plan, and "
                            "per-phase timings")

    batch = subparsers.add_parser(
        "batch", help="run a file of queries (one per line)")
    add_lake_arguments(batch)
    batch.add_argument("file", help="file with one query per line ('#' "
                                    "comments and blank lines are skipped)")
    batch.add_argument("--cache-size", type=positive_int, default=None,
                       help="LRU plan-cache capacity (default: "
                            f"{PLAN_SPACE.capacity}, or the capacity "
                            "persisted in --plan-cache-file if larger)")
    batch.add_argument("--workers", type=positive_int, default=1,
                       help="worker count for the thread/process backends "
                            "(default: 1)")
    batch.add_argument("--backend", choices=BACKENDS, default=None,
                       help="where the batch runs (default: serial at "
                            "--workers 1, thread lanes above; process "
                            "lanes run GIL-free worker processes)")
    batch.add_argument("--metrics-file", metavar="PATH", default=None,
                       help="write the session metrics snapshot (counters, "
                            "latency histograms, derived rates) to this "
                            "JSON file after the batch")
    for command in (query, batch):
        command.add_argument("--no-discovery", action="store_true",
                             help="skip the discovery phase (no column "
                                  "hints)")

    subparsers.add_parser(
        "serve", add_help=False,
        help="serve the session over async HTTP ('repro serve --help')")
    subparsers.add_parser(
        "cache-server", add_help=False,
        help="serve the shared plan/answer cache tier "
             "('repro cache-server --help')")
    subparsers.add_parser(
        "trace", add_help=False,
        help="inspect exported trace records: span trees, recent "
             "traces, slowest queries ('repro trace --help')")
    subparsers.add_parser(
        "fuzz", add_help=False,
        help="differential query fuzzer: sqlite / columnar engines "
             "must agree byte-for-byte ('repro fuzz --help')")
    return parser


def _version() -> str:
    from repro import __version__
    return __version__


def read_batch_file(path: str) -> list[str]:
    queries = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            queries.append(line)
    return queries


def _print_result(result: QueryResult, trace: bool) -> None:
    print(result.describe())
    if result.kind == "table" and result.table is not None:
        print(result.table.to_display())
    elif result.kind == "plot" and result.plot is not None:
        print(render_plot(result.plot))
    if trace and result.trace is not None:
        print()
        print(result.telemetry.render_tree())
        print()
        print(f"replans: {result.trace.replans}, "
              f"errors: {len(result.trace.errors)}")
        for step in result.trace.physical_steps:
            print(f"  step {step.logical.index}: {step.operator} "
                  f"({'; '.join(step.arguments)})")
        for phase, seconds in sorted(result.trace.timings.items()):
            print(f"  {phase:<10s} {seconds:.3f}s")


def build_session(args: argparse.Namespace, cache_size: int | None = None,
                  brain: LanguageModel | None = None) -> Session:
    """The session :func:`add_lake_arguments` flags describe, its caches
    loaded from their files; *brain* replaces the default model."""
    lake = load_lake(args.dataset, seed=args.seed, scale=args.scale)
    config = EngineConfig(
        use_discovery=not getattr(args, "no_discovery", False))
    session = Session(lake, brain=brain, config=config,
                      plan_cache_size=cache_size,
                      cache_url=args.cache_url)
    if args.plan_cache_file and Path(args.plan_cache_file).exists():
        # An explicit --cache-size wins over the capacity persisted in
        # the file; otherwise the larger of the file's capacity and the
        # session's default is kept, so a flag-less run never truncates a
        # larger persisted cache and a smaller file never shrinks it.
        session.load_plan_cache(args.plan_cache_file, capacity=cache_size)
    if args.answer_cache_file and Path(args.answer_cache_file).exists():
        session.load_answer_cache(args.answer_cache_file)
    return session


def _finish(session: Session, args: argparse.Namespace) -> None:
    if args.plan_cache_file:
        session.save_plan_cache(args.plan_cache_file)
    if args.answer_cache_file:
        session.save_answer_cache(args.answer_cache_file)
    session.close()


def _run_query(args: argparse.Namespace) -> int:
    session = build_session(args)
    result = session.query(args.query)
    _print_result(result, trace=args.trace)
    _finish(session, args)
    return 0 if result.ok else 1


def _run_batch(args: argparse.Namespace) -> int:
    path = args.file
    try:
        queries = read_batch_file(path)
    except OSError as exc:
        print(f"cannot read batch file: {exc}", file=sys.stderr)
        return 2
    if not queries:
        print(f"no queries found in {path}", file=sys.stderr)
        return 2
    session = build_session(args, cache_size=args.cache_size)
    report = session.batch(queries, workers=args.workers,
                           backend=args.backend)
    print(report.render())
    if args.metrics_file:
        # Same serialization as the service's GET /metrics endpoint
        # (repro.obs.render_snapshot), so dumps and scrapes diff cleanly;
        # the observability snapshot folds in the cache tier's STATS when
        # the session has a --cache-url.
        Path(args.metrics_file).write_text(
            render_snapshot(session.observability_snapshot()),
            encoding="utf-8")
    _finish(session, args)
    return 0 if report.num_errors == 0 else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        build_parser().print_help()
        return 0
    if argv[0] == "serve":
        from repro.serve.app import main as serve_main
        return serve_main(argv[1:])
    if argv[0] == "cache-server":
        from repro.cachenet.server import main as cache_server_main
        return cache_server_main(argv[1:])
    if argv[0] == "trace":
        from repro.obs.tracecli import main as trace_main
        return trace_main(argv[1:])
    if argv[0] == "fuzz":
        from repro.testing.fuzz import main as fuzz_main
        return fuzz_main(argv[1:])

    # An unknown first word lands here too and gets argparse's "invalid
    # choice" error listing the real subcommands.
    args = build_parser().parse_args(argv)
    if args.command == "query":
        return _run_query(args)
    if args.command == "batch":
        return _run_batch(args)
    build_parser().print_help()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
