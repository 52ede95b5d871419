"""Differential query fuzzer: two engines, three lanes, zero drift.

SQLancer-style differential testing for the relational layer.  A seeded
:class:`QueryGenerator` draws random-but-valid SELECT statements over the
real lake schemas of both datasets — filters, USING / cross-column joins,
multi-measure aggregates, GROUP BY, date ranges, DISTINCT, ORDER BY +
LIMIT — with literals sampled from the actual column values so predicates
hit real selectivity, not just empty results.

Every query is executed two ways and must agree byte-for-byte:

- ``sqlite``   — the sqlite bridge (:func:`repro.relational.sqlexec.run_sql`),
  the reference semantics;
- ``columnar`` — :func:`repro.relational.colexec.execute` over the typed
  column stores (numpy kernels).

Agreement is checked on the canonical result encoding (``Table.to_dict``
under sorted-key JSON) *and* the content fingerprint.  The whole run then
repeats across three lanes — in-process serial, a thread pool, and a
process pool that regenerates lakes and queries from the seed — and the
per-lane :meth:`FuzzReport.canonical_results` lists must be identical,
which is exactly the cross-backend contract the engine's batch runner
advertises.

``repro fuzz --seed N --count M`` runs it from the CLI; ``--soak S``
keeps drawing fresh seeds for S seconds and prints each one, so any
failure is reproducible with ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.data.datatypes import DataType
from repro.data.table import Table
from repro.datasets import load_lake
from repro.relational import colexec
from repro.relational.sqlexec import build_join_sql, run_sql

#: The engines every query is executed under.  ``sqlite`` is the
#: reference; ``columnar`` must match it byte-for-byte.
ENGINES = ("sqlite", "columnar")

#: The execution lanes the whole run is repeated under.
LANES = ("serial", "thread", "process")

DEFAULT_DATASETS = ("artwork", "rotowire")

#: USING-join pairs per dataset: (left, right, key).  Only pairs whose
#: single shared column *is* the key — sqlite suffixes other clashes
#: ``_2`` while ``join_renames`` suffixes ``_right``, so such joins are
#: outside the byte-identical envelope (colexec declines them).
_USING_JOINS = {
    "artwork": (
        ("paintings_metadata", "painting_images", "img_path"),
        ("painting_images", "paintings_metadata", "img_path"),
    ),
    "rotowire": (
        ("teams_to_games", "game_reports", "game_id"),
        ("players_to_games", "game_reports", "game_id"),
        ("game_reports", "teams_to_games", "game_id"),
        ("players", "players_to_games", "name"),
        ("teams", "teams_to_games", "name"),
    ),
}

#: Cross-column join intents per dataset, in the exact shape the Join
#: operator emits through :func:`build_join_sql`.
_CROSS_JOINS = {
    "artwork": (),
    "rotowire": (
        ("players", "teams", "team", "name"),
        ("teams_to_games", "teams", "name", "name"),
        ("game_reports", "teams_to_games", "game_id", "game_id"),
    ),
}


@dataclass(frozen=True)
class FuzzQuery:
    """One generated differential test case."""

    dataset: str
    sql: str
    tables: tuple[str, ...]
    shape: str  # filter | aggregate | group | join | distinct


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    scale: float
    lanes: tuple[str, ...]
    queries: list[FuzzQuery]
    #: per-query canonical entries of the serial lane (the reference).
    entries: list[dict] = field(default_factory=list)
    #: queries whose engines disagreed: (query, detail).
    mismatches: list[tuple[FuzzQuery, str]] = field(default_factory=list)
    #: queries colexec declined (fell back to the bridge in production).
    unsupported: list[tuple[FuzzQuery, str]] = field(default_factory=list)
    #: lanes whose canonical_results diverged from the serial lane.
    lane_mismatches: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.lane_mismatches

    def canonical_results(self) -> list[dict]:
        """The serial lane's per-query canonical entries."""
        return self.entries

    def render(self) -> str:
        lines = [
            f"fuzz seed={self.seed} scale={self.scale:g} "
            f"queries={len(self.queries)} lanes={','.join(self.lanes)} "
            f"({self.seconds:.1f}s)",
            f"  parity mismatches : {len(self.mismatches)}",
            f"  lane mismatches   : {len(self.lane_mismatches)}",
            f"  unsupported       : {len(self.unsupported)}",
        ]
        for query, detail in self.mismatches[:10]:
            lines.append(f"  MISMATCH [{query.dataset}] {query.sql}")
            lines.append(f"    {detail}")
        for lane in self.lane_mismatches:
            lines.append(f"  LANE MISMATCH: {lane} != serial")
        for query, detail in self.unsupported[:10]:
            lines.append(f"  unsupported [{query.dataset}] {query.sql}: "
                         f"{detail}")
        return "\n".join(lines)


class QueryGenerator:
    """Seeded random SELECT generator over the live lake schemas.

    Stays inside the envelope both engines execute identically:
    bare-column predicates with type-correct literals, single-column
    GROUP BY / ORDER BY, aliased aggregates, USING joins whose only
    shared column is the key, and Join-operator-shaped cross joins.  The
    point is differential coverage, not grammar coverage — anything
    outside the envelope falls back to sqlite in production and proves
    nothing about the columnar engine.
    """

    def __init__(self, lakes: dict[str, object], seed: int):
        self.lakes = lakes
        self.rng = random.Random(seed)
        # (dataset, table, column) -> sorted distinct non-null sample pool.
        self._pools: dict[tuple[str, str, str], list[object]] = {}

    # -- value pools ---------------------------------------------------

    def _table(self, dataset: str, name: str) -> Table:
        return self.lakes[dataset].sources[name].table

    def _pool(self, dataset: str, table: str, column: str) -> list[object]:
        key = (dataset, table, column)
        if key not in self._pools:
            values = [v for v in self._table(dataset, table).column(column)
                      if v is not None]
            distinct = sorted(set(values), key=repr)[:64]
            self._pools[key] = distinct
        return self._pools[key]

    def _columns(self, dataset: str, table: str,
                 dtypes: tuple[DataType, ...] | None = None) -> list[str]:
        schema = self._table(dataset, table).schema
        return [spec.name for spec in schema.columns
                if not spec.dtype.is_modality
                and (dtypes is None or spec.dtype in dtypes)]

    def _dtype(self, dataset: str, table: str, column: str) -> DataType:
        return self._table(dataset, table).schema.dtype(column)

    # -- literals ------------------------------------------------------

    @staticmethod
    def _literal(value: object) -> str:
        from datetime import date
        if isinstance(value, bool):
            return str(int(value))
        if isinstance(value, (int, float)):
            return repr(value)
        if isinstance(value, date):
            return f"'{value.isoformat()}'"
        text = str(value).replace("'", "''")
        return f"'{text}'"

    def _predicate(self, dataset: str, table: str, column: str) -> str:
        rng = self.rng
        dtype = self._dtype(dataset, table, column)
        pool = self._pool(dataset, table, column)
        if not pool:
            return f"{column} IS NULL"
        value = rng.choice(pool)
        if dtype is DataType.INTEGER and rng.random() < 0.5:
            value = value + rng.randint(-3, 3)
        kind = rng.random()
        if kind < 0.45:
            op = rng.choice(("=", "!=", "<>", "<", "<=", ">", ">="))
            return f"{column} {op} {self._literal(value)}"
        if kind < 0.65:
            low, high = sorted((rng.choice(pool), rng.choice(pool)), key=repr)
            return (f"{column} BETWEEN {self._literal(low)} "
                    f"AND {self._literal(high)}")
        if kind < 0.85 and dtype is not DataType.DATE:
            # IN over DATE columns is never drawn; drawing it would change
            # the query list every pinned seed names.
            chosen = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
            members = ", ".join(self._literal(v) for v in chosen)
            return f"{column} IN ({members})"
        if dtype is DataType.STRING and rng.random() < 0.9:
            text = str(rng.choice(pool))
            clean = "".join(ch for ch in text if ch.isalnum() or ch == " ")
            if len(clean) >= 2:
                cut = rng.randint(1, max(1, len(clean) - 1))
                pattern = rng.choice((f"{clean[:cut]}%", f"%{clean[cut:]}",
                                      f"%{clean[1:-1] or clean}%"))
                return f"{column} LIKE '{pattern}'"
        op = rng.choice(("=", ">=", "<"))
        return f"{column} {op} {self._literal(value)}"

    def _where(self, dataset: str, table: str,
               columns: list[str] | None = None) -> str:
        rng = self.rng
        if columns is None:
            columns = self._columns(dataset, table)
        if not columns or rng.random() < 0.25:
            return ""
        terms = [self._predicate(dataset, table, rng.choice(columns))
                 for _ in range(rng.choice((1, 1, 1, 2, 2, 3)))]
        glue = rng.choice((" AND ", " OR "))
        return " WHERE " + glue.join(terms)

    def _order_limit(self, dataset: str, table: str) -> str:
        rng = self.rng
        suffix = ""
        if rng.random() < 0.5:
            column = rng.choice(self._columns(dataset, table))
            suffix += f" ORDER BY {column} {rng.choice(('ASC', 'DESC'))}"
        if rng.random() < 0.4:
            suffix += f" LIMIT {rng.randint(1, 20)}"
        return suffix

    # -- query shapes --------------------------------------------------

    def _aggregates(self, dataset: str, table: str,
                    count: int) -> list[str]:
        rng = self.rng
        items = []
        ints = self._columns(dataset, table, (DataType.INTEGER,))
        orderable = self._columns(
            dataset, table, (DataType.INTEGER, DataType.STRING,
                             DataType.DATE))
        for index in range(count):
            kind = rng.random()
            if kind < 0.3 or (not ints and not orderable):
                items.append(f"COUNT(*) AS agg{index}")
            elif kind < 0.45 and orderable:
                column = rng.choice(orderable)
                items.append(f"COUNT(DISTINCT {column}) AS agg{index}")
            elif kind < 0.7 and ints:
                func = rng.choice(("SUM", "AVG"))
                items.append(f"{func}({rng.choice(ints)}) AS agg{index}")
            elif orderable:
                func = rng.choice(("MIN", "MAX"))
                items.append(f"{func}({rng.choice(orderable)}) AS agg{index}")
            else:
                items.append(f"COUNT(*) AS agg{index}")
        return items

    def _shape_filter(self, dataset: str) -> FuzzQuery:
        rng = self.rng
        table = rng.choice(self._relational_tables(dataset))
        columns = self._columns(dataset, table)
        if rng.random() < 0.3:
            chosen = rng.sample(columns, k=rng.randint(1, len(columns)))
            select = ", ".join(chosen)
        else:
            select = "*"
        sql = (f"SELECT {select} FROM {table}"
               f"{self._where(dataset, table)}"
               f"{self._order_limit(dataset, table)}")
        return FuzzQuery(dataset, sql, (table,), "filter")

    def _shape_aggregate(self, dataset: str) -> FuzzQuery:
        rng = self.rng
        table = rng.choice(self._relational_tables(dataset))
        items = self._aggregates(dataset, table, rng.randint(1, 3))
        sql = (f"SELECT {', '.join(items)} FROM {table}"
               f"{self._where(dataset, table)}")
        return FuzzQuery(dataset, sql, (table,), "aggregate")

    def _shape_group(self, dataset: str) -> FuzzQuery:
        rng = self.rng
        table = rng.choice(self._relational_tables(dataset))
        key = rng.choice(self._columns(
            dataset, table, (DataType.STRING, DataType.INTEGER)))
        items = self._aggregates(dataset, table, rng.randint(1, 2))
        sql = (f"SELECT {key}, {', '.join(items)} FROM {table}"
               f"{self._where(dataset, table)} GROUP BY {key}")
        if rng.random() < 0.5:
            sql += f" ORDER BY {key} {rng.choice(('ASC', 'DESC'))}"
        return FuzzQuery(dataset, sql, (table,), "group")

    def _shape_join(self, dataset: str) -> FuzzQuery:
        rng = self.rng
        cross = _CROSS_JOINS[dataset]
        if cross and rng.random() < 0.4:
            left, right, left_on, right_on = rng.choice(cross)
            sql = build_join_sql(
                left, right, left_on, right_on,
                self._table(dataset, left).column_names,
                self._table(dataset, right).column_names)
            return FuzzQuery(dataset, sql, (left, right), "join")
        left, right, key = rng.choice(_USING_JOINS[dataset])
        sql = f"SELECT * FROM {left} JOIN {right} USING ({key})"
        # Predicates stay on the left (outer) table's own columns: a WHERE
        # over right-side columns or the merged key can make sqlite's
        # planner flip the scan to the right table, a row order colexec
        # declines to replicate.
        columns = [name for name in self._columns(dataset, left)
                   if name != key]
        sql += self._where(dataset, left, columns)
        return FuzzQuery(dataset, sql, (left, right), "join")

    def _shape_distinct(self, dataset: str) -> FuzzQuery:
        rng = self.rng
        table = rng.choice(self._relational_tables(dataset))
        columns = self._columns(dataset, table)
        chosen = rng.sample(columns, k=rng.randint(1, min(3, len(columns))))
        sql = (f"SELECT DISTINCT {', '.join(chosen)} FROM {table}"
               f"{self._where(dataset, table)}")
        return FuzzQuery(dataset, sql, (table,), "distinct")

    def _relational_tables(self, dataset: str) -> list[str]:
        lake = self.lakes[dataset]
        return sorted(name for name in lake.sources
                      if self._columns(dataset, name))

    def generate(self) -> FuzzQuery:
        """Draw one query."""
        dataset = self.rng.choice(sorted(self.lakes))
        roll = self.rng.random()
        if roll < 0.30:
            return self._shape_filter(dataset)
        if roll < 0.50:
            return self._shape_aggregate(dataset)
        if roll < 0.70:
            return self._shape_group(dataset)
        if roll < 0.88:
            return self._shape_join(dataset)
        return self._shape_distinct(dataset)


def generate_queries(seed: int, count: int, scale: float = 1.0,
                     datasets: tuple[str, ...] = DEFAULT_DATASETS,
                     lakes: dict[str, object] | None = None,
                     ) -> list[FuzzQuery]:
    """The deterministic query list for ``(seed, count, scale)``."""
    lakes = lakes or {name: load_lake(name, scale=scale)
                      for name in datasets}
    generator = QueryGenerator(lakes, seed)
    return [generator.generate() for _ in range(count)]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _canonical(table: Table) -> dict:
    return {"fingerprint": table.fingerprint(),
            "payload": json.dumps(table.to_dict(), sort_keys=True)}


def execute_all_engines(query: FuzzQuery, tables: dict[str, Table]
                        ) -> tuple[dict, str | None]:
    """``(canonical_entry, unsupported_reason)`` for one query.

    The entry maps each engine name to the canonical encoding of its
    result.  When colexec declines the statement (production would fall
    back to the bridge) the columnar engine is marked unsupported and the
    reason is returned — the generator is expected to make this never
    happen, and the harness asserts exactly that.
    """
    entry: dict = {"dataset": query.dataset, "sql": query.sql,
                   "engines": {}}
    entry["engines"]["sqlite"] = _canonical(run_sql(query.sql, tables))
    reason = None
    try:
        result = colexec.execute(query.sql, tables)
    except colexec.UnsupportedSQL as exc:
        entry["engines"]["columnar"] = {"unsupported": str(exc)}
        reason = str(exc)
    else:
        entry["engines"]["columnar"] = _canonical(result)
    return entry, reason


def _check_entry(query: FuzzQuery, entry: dict) -> str | None:
    """A mismatch description, or ``None`` when both engines agree."""
    reference = entry["engines"]["sqlite"]
    candidate = entry["engines"]["columnar"]
    if "unsupported" in candidate or candidate == reference:
        return None
    return (f"columnar != sqlite: fingerprints "
            f"{candidate['fingerprint']} vs {reference['fingerprint']}")


def _run_one(lakes: dict[str, object], query: FuzzQuery) -> tuple[dict,
                                                                  str | None]:
    tables = {name: lakes[query.dataset].sources[name].table
              for name in query.tables}
    return execute_all_engines(query, tables)


# Process-lane worker state: lakes and queries are rebuilt from the seed
# inside each worker, so nothing heavyweight crosses the pipe.
_WORKER: dict = {}


def _process_init(seed: int, count: int, scale: float,
                  datasets: tuple[str, ...]) -> None:
    lakes = {name: load_lake(name, scale=scale) for name in datasets}
    _WORKER["lakes"] = lakes
    _WORKER["queries"] = generate_queries(seed, count, scale=scale,
                                          datasets=datasets, lakes=lakes)


def _process_run(index: int) -> tuple[dict, str | None]:
    return _run_one(_WORKER["lakes"], _WORKER["queries"][index])


def run_fuzz(seed: int, count: int, scale: float = 1.0,
             datasets: tuple[str, ...] = DEFAULT_DATASETS,
             lanes: tuple[str, ...] = ("serial",),
             workers: int = 3) -> FuzzReport:
    """Run the differential fuzzer; see the module docstring."""
    started = time.perf_counter()
    unknown = set(lanes) - set(LANES)
    if unknown:
        raise ValueError(f"unknown lanes {sorted(unknown)}; "
                         f"available: {', '.join(LANES)}")
    lakes = {name: load_lake(name, scale=scale) for name in datasets}
    queries = generate_queries(seed, count, scale=scale, datasets=datasets,
                               lakes=lakes)
    report = FuzzReport(seed=seed, scale=scale, lanes=tuple(lanes),
                        queries=queries)

    serial = [_run_one(lakes, query) for query in queries]
    report.entries = [entry for entry, _ in serial]
    for query, (entry, reason) in zip(queries, serial):
        if reason is not None:
            report.unsupported.append((query, reason))
        detail = _check_entry(query, entry)
        if detail is not None:
            report.mismatches.append((query, detail))

    reference = json.dumps(report.entries, sort_keys=True)
    if "thread" in lanes:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            threaded = list(pool.map(lambda q: _run_one(lakes, q), queries))
        if json.dumps([e for e, _ in threaded],
                      sort_keys=True) != reference:
            report.lane_mismatches.append("thread")
    if "process" in lanes:
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_process_init,
                initargs=(seed, count, scale, tuple(datasets))) as pool:
            processed = list(pool.map(_process_run, range(len(queries))))
        if json.dumps([e for e, _ in processed],
                      sort_keys=True) != reference:
            report.lane_mismatches.append("process")
    report.seconds = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------
# CLI: repro fuzz
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Differential query fuzzer: random SELECTs executed "
                    "under the sqlite / columnar engines (and serial / "
                    "thread / process lanes) must agree byte-for-byte.")
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed (default: drawn from entropy "
                             "and printed, so failures are reproducible)")
    parser.add_argument("--count", type=int, default=200,
                        help="queries per run (default: 200)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="lake scale factor (default: 1.0)")
    parser.add_argument("--lanes", default="serial",
                        help="comma-separated subset of "
                             f"{{{','.join(LANES)}}} (default: serial)")
    parser.add_argument("--soak", type=float, default=None, metavar="SECONDS",
                        help="keep fuzzing fresh seeds for this many "
                             "seconds (each seed printed before its run)")
    parser.add_argument("--strict-unsupported", action="store_true",
                        help="fail when any generated query falls outside "
                             "the columnar engine's envelope")
    return parser


def _one_run(seed: int, args: argparse.Namespace,
             lanes: tuple[str, ...]) -> FuzzReport:
    print(f"fuzzing: seed={seed} count={args.count} scale={args.scale:g} "
          f"lanes={','.join(lanes)}", flush=True)
    report = run_fuzz(seed, args.count, scale=args.scale, lanes=lanes)
    print(report.render(), flush=True)
    return report


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    lanes = tuple(lane.strip() for lane in args.lanes.split(",")
                  if lane.strip())

    def failed(report: FuzzReport) -> bool:
        return (not report.ok
                or (args.strict_unsupported and report.unsupported))

    if args.soak is not None:
        deadline = time.monotonic() + args.soak
        runs = 0
        while time.monotonic() < deadline:
            seed = args.seed if args.seed is not None else \
                random.SystemRandom().randrange(2 ** 31)
            report = _one_run(seed, args, lanes)
            runs += 1
            if failed(report):
                print(f"FAILED at seed={seed}; reproduce with: "
                      f"repro fuzz --seed {seed} --count {args.count} "
                      f"--scale {args.scale:g} --lanes {args.lanes}")
                return 1
            if args.seed is not None:
                break  # a pinned seed is deterministic; once is enough
        print(f"soak clean: {runs} run(s), "
              f"{runs * args.count} queries")
        return 0

    seed = args.seed if args.seed is not None else \
        random.SystemRandom().randrange(2 ** 31)
    report = _one_run(seed, args, lanes)
    return 1 if failed(report) else 0


if __name__ == "__main__":
    sys.exit(main())
