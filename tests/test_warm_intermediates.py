"""A warm step's intermediate costs about what its rows cost.

Each derived value a per-query intermediate needs is read from the
source store it was gathered from, and must equal what rebuilding it on
the intermediate gives:

- a Python step over a string column evaluates each pool entry once
  (the pool's ``udf_values`` memo), and its output, its failures and its
  counters match the row-by-row loop; only a lake table keeps the step's
  column in its own memo;
- a small ``Column.distinct`` finds each next value with a masked pass,
  a large one with ``np.unique``, and both equal a plain scan;
- a projected DATE column gathers into the string column the sqlite
  bridge builds from its ISO texts;
- a float store knows whether it holds NaN, and a take of a NaN-free
  store knows without looking;
- tables gathered or projected from packed stores skip the checks that
  ``Table(schema, columns)`` keeps for outside data;
- ``referenced_tables`` scans once per statement text and table names;
- one query's metrics are folded in with one locked call.
"""

from __future__ import annotations

import pickle
import random
import re
import sys
import threading
from datetime import date

import numpy as np
import pytest
from test_python_udf import RECIPES

import repro.operators.python_udf as python_udf
import repro.operators.sql_ops as sql_ops
from repro import Session
from repro.data.columns import (DISTINCT_PASSES, DateColumn, FloatColumn,
                                IntColumn, StringColumn, build_column)
from repro.data.datatypes import DataType, infer_column_type
from repro.data.memo import memo_builds
from repro.data.schema import ColumnSpec, Schema
from repro.data.table import Table
from repro.datasets import load_lake
from repro.errors import OperatorError, SchemaError
from repro.obs import QueryTelemetry
from repro.obs.metrics import MetricsRegistry
from repro.operators.base import ExecutionContext
from repro.operators.python_udf import PythonOperator
from repro.relational import colexec
from repro.relational.sqlexec import run_sql
from repro.testing.workloads import WORKLOADS, workload
from repro.udf.codegen import GeneratedUDF, generate_udf
from repro.udf.sandbox import compile_udf

DT = DataType

BAROQUE = "What are the min, max and average year of baroque paintings?"


def cells(column) -> list[tuple[type, str]]:
    return [(type(value), repr(value)) for value in column.iter_values()]


def run(table: Table, description: str, column: str):
    """One Python step over *table*; returns (result, counters)."""
    context = ExecutionContext(tables={"t": table},
                               telemetry=QueryTelemetry())
    result = PythonOperator().run(context, ["t", column, "out", description])
    return result, context.telemetry.counters


def row_by_row(table: Table, description: str, column: str):
    """The reference: a fresh function applied to every non-null row."""
    transform = compile_udf(generate_udf(description).source)
    values = [None if value is None else transform(value)
              for value in table.column(column)]
    dtype = infer_column_type(values)
    return dtype, build_column(values, dtype)


# ----------------------------------------------------------------------
# Python steps evaluate each pool entry once
# ----------------------------------------------------------------------


def test_a_warm_python_step_over_a_filtered_take_hands_the_code_nothing():
    with Session(load_lake("artwork", scale=2)) as session:
        asks = [session.query(BAROQUE) for _ in range(3)]
    assert all(result.ok for result in asks)
    first, *warm = [result.telemetry.counters for result in asks]
    assert first["udf_rows_evaluated"] > 0
    for counters in warm:
        assert "udf_rows_evaluated" not in counters
        assert counters["udf_memo_hits"] == 1
    assert len({result.table.fingerprint() for result in asks}) == 1


def test_only_a_source_table_keeps_a_python_steps_column():
    # A step over a table the context starts with (a lake table) is
    # memoised on it; a step over an intermediate bound later reads the
    # pool's values and stores nothing on a table that dies with its query.
    source = _string_table(random.Random(5), 300)
    context = ExecutionContext(tables={"t": source},
                               telemetry=QueryTelemetry())
    context.bind("s", source.take(list(range(0, 300, 3))))
    args = ["out", "extract the century"]
    before = memo_builds["udf"]
    outputs = []
    for name in ("t", "t", "s", "s"):
        context.telemetry = QueryTelemetry()
        result = PythonOperator().run(context, [name, "inception", *args])
        outputs.append((result.table.storage("out"),
                        context.telemetry.counters))
    assert memo_builds["udf"] - before == 1
    assert len(context.resolve("s").memo) == 0
    (first, cold), (again, warm), (_, take), (_, take_again) = outputs
    assert cold["udf_rows_evaluated"] > 0
    assert again is first and "udf_rows_evaluated" not in warm
    assert warm["udf_memo_hits"] == 1
    # The source's ask filled the pool: the take hands the code nothing.
    for counters in (take, take_again):
        assert "udf_rows_evaluated" not in counters
        assert counters["udf_memo_hits"] == 1


def _string_table(rng: random.Random, size: int) -> Table:
    pool = ["1889-01-15", "1503-06-01", "1900-12-31", "0999-03-03",
            "2000-01-01", "1650-07-07", "1700-02-02", "1889-01-15 "]
    words = ["The Starry Night", "Mona Lisa", "", "Guernica",
             "Room 101 of 7", "  spaced   words  ", "a", "B c D"]
    return Table(Schema([ColumnSpec("inception", DT.STRING),
                         ColumnSpec("title", DT.STRING)]),
                 {"inception": [None if rng.random() < 0.2
                                else rng.choice(pool) for _ in range(size)],
                  "title": [None if rng.random() < 0.2
                            else rng.choice(words) for _ in range(size)]})


@pytest.mark.parametrize("description,column", [
    (description, column) for description, column in RECIPES
    if column in ("inception", "title")])
def test_takes_of_one_pool_match_the_row_by_row_loop(description, column):
    rng = random.Random(description)
    table = _string_table(rng, 60)
    evaluated = 0
    for _ in range(12):
        rows = [rng.randrange(table.num_rows)
                for _ in range(rng.randrange(0, 40))]
        taken = table.take(rows)
        result, counters = run(taken, description, column)
        dtype, reference = row_by_row(taken, description, column)
        stored = result.table.storage("out")
        assert result.table.dtype("out") is dtype
        assert type(stored) is type(reference)
        assert cells(stored) == cells(reference)
        if isinstance(reference, StringColumn):
            assert stored.pool == reference.pool
        assert result.table.fingerprint() == Table(
            result.table.schema,
            {**{name: taken.column(name) for name in taken.column_names},
             "out": reference.materialize()}).fingerprint()
        evaluated += counters.get("udf_rows_evaluated", 0)
    # Every distinct value is handed to the code at most once.
    assert evaluated <= len(set(table.column(column)) - {None})


FAILS_ON_CIRCA = ("def transform(value):\n"
                  "    if value == 'circa':\n"
                  "        raise ValueError('no year')\n"
                  "    return len(value)\n")


def test_a_failure_names_the_row_loop_row_and_stores_nothing(monkeypatch):
    monkeypatch.setattr(python_udf, "generate_udf",
                        lambda description: GeneratedUDF(description,
                                                         FAILS_ON_CIRCA))
    table = Table(Schema([ColumnSpec("c", DT.STRING)]),
                  {"c": ["ab", "circa", None, "abc", "circa", "x"]})
    # Warm the pool with "ab" and "x": they are not handed over again.
    _, counters = run(table.take([0, 5]), "length", "c")
    assert counters["udf_rows_evaluated"] == 2
    for _ in range(2):
        with pytest.raises(OperatorError) as info:
            run(table.take([5, 3, 2, 4, 0]), "length", "c")
        # Row 3 of the take holds the first 'circa', as row by row.
        assert "failed on row 3 (value 'circa')" in str(info.value)
    values = table.storage("c").memo.get("udf_values", FAILS_ON_CIRCA,
                                         lambda: None)
    assert values.known.tolist() == [True, False, False, True]
    result, counters = run(table.take([3, 5, 2]), "length", "c")
    assert result.table.column("out") == [3, 1, None]
    assert counters["udf_rows_evaluated"] == 1


def test_output_dtype_comes_from_the_rows_not_the_pool(monkeypatch):
    source = ("def transform(value):\n"
              "    if value == 'f':\n"
              "        return 1.5\n"
              "    return len(value)\n")
    monkeypatch.setattr(python_udf, "generate_udf",
                        lambda description: GeneratedUDF(description, source))
    table = Table(Schema([ColumnSpec("c", DT.STRING)]),
                  {"c": ["f", "ab", None, "abc"]})
    run(table, "length", "c")   # every entry known, one of them a float
    result, counters = run(table.take([3, 2, 1]), "length", "c")
    assert counters["udf_memo_hits"] == 1
    assert result.table.dtype("out") is DT.INTEGER
    assert isinstance(result.table.storage("out"), IntColumn)
    assert result.table.column("out") == [3, None, 2]


def test_lanes_filling_one_pool_agree(artwork_lake):
    source = artwork_lake.table("paintings_metadata")
    reference = row_by_row(source, "extract the year", "inception")
    copy = pickle.loads(pickle.dumps(source))  # an empty pool memo
    rng = random.Random(4)
    takes = [sorted(rng.sample(range(copy.num_rows), copy.num_rows // 2))
             for _ in range(8)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(4)

    def lane(offset: int) -> None:
        try:
            barrier.wait(timeout=10)
            for rows in takes[offset:] + takes[:offset]:
                result, _ = run(copy.take(rows), "extract the year",
                                "inception")
                expected = reference[1].take(rows)
                assert cells(result.table.storage("out")) == cells(expected)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lane, args=(n * 2,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


# ----------------------------------------------------------------------
# Distinct values: masked passes for a few, np.unique for many
# ----------------------------------------------------------------------


def _scan(values: list, limit: int) -> list:
    seen: list = []
    for value in values:
        if value is not None and value == value and value not in seen:
            seen.append(value)
            if len(seen) >= limit:
                break
    return seen


@pytest.mark.parametrize("dtype,pool", [
    (DT.INTEGER, [0, 1, -5, 7, 2 ** 40, 3, 11, 12, 13, 14]),
    (DT.FLOAT, [0.0, -0.0, 1.5, float("nan"), float("inf"), 2.25, 9.0, 8.5,
                7.25, 6.0]),
    (DT.BOOLEAN, [True, False]),
    (DT.DATE, [date(2020, 1, d) for d in range(1, 13)]),
    (DT.STRING, list("abcdefghijkl") + ["", "é"]),
])
def test_distinct_equals_the_scan_on_both_sides_of_the_pass_limit(dtype,
                                                                  pool):
    rng = random.Random(dtype.value)
    for size in (70, 300):
        for _ in range(6):
            # Few distinct values early, the rest late.
            values = ([rng.choice(pool[:2] + [None]) for _ in range(size)]
                      + [rng.choice(pool + [None]) for _ in range(size)])
            storage = Table(Schema([ColumnSpec("c", dtype)]),
                            {"c": values}).storage("c")
            for limit in range(1, DISTINCT_PASSES + 5):
                got = storage.distinct(limit)
                want = _scan(values, limit)
                assert [(type(v), repr(v)) for v in got] \
                    == [(type(v), repr(v)) for v in want], (values, limit)


# ----------------------------------------------------------------------
# DATE projections gather into a string pool
# ----------------------------------------------------------------------


DATES = [date(2018, 11, 3), None, date(2017, 1, 9), date(2018, 11, 3),
         date(1, 1, 1), None, date(2019, 12, 31), date(2017, 1, 9),
         date(9999, 12, 31), date(2018, 11, 3)]

#: A float column with NULLs beside the dates, so an all-NULL int or
#: float projection shows too, and a -0.0, which both engines return
#: as 0.0 (sqlite drops the sign).
FLOATS = [1.5, None, -0.0, 2.25, None, 7.0, None, 3.5, 0.5, None]

DATE_STATEMENTS = (
    "SELECT d FROM t",
    "SELECT * FROM t",
    "SELECT d, x FROM t WHERE x > 3",
    "SELECT x, d FROM t WHERE x > 100",
    "SELECT x, y FROM t WHERE x > 100",
    "SELECT y, d FROM t WHERE y IS NULL",
    "SELECT d FROM t WHERE x IN (1, 5)",
    "SELECT d FROM t ORDER BY x DESC",
    "SELECT d, x FROM t ORDER BY d LIMIT 4",
    "SELECT d FROM t WHERE d > '2017-06-01' LIMIT 3",
    "SELECT y FROM t",
    "SELECT y FROM t ORDER BY y",
    "SELECT DISTINCT y FROM t",
    "SELECT DISTINCT x, y FROM t",
)


@pytest.mark.parametrize("sql", DATE_STATEMENTS)
def test_date_projection_matches_the_sqlite_bridge(sql):
    table = Table(Schema([ColumnSpec("x", DT.INTEGER),
                          ColumnSpec("y", DT.FLOAT),
                          ColumnSpec("d", DT.DATE)]),
                  {"x": list(range(len(DATES))), "y": FLOATS, "d": DATES})
    assert isinstance(table.storage("d"), DateColumn)
    ours = colexec.execute(sql, {"t": table})
    theirs = run_sql(sql, {"t": table})
    assert ours.schema == theirs.schema
    for name in theirs.column_names:
        assert ours.dtype(name) is theirs.dtype(name)
        assert type(ours.storage(name)) is type(theirs.storage(name)), name
        assert cells(ours.storage(name)) == cells(theirs.storage(name))
    if "d" not in theirs.column_names:
        assert ours.fingerprint() == theirs.fingerprint()
        return
    mine, bridge = ours.storage("d"), theirs.storage("d")
    assert type(mine) is type(bridge) is StringColumn
    assert mine.codes.tolist() == bridge.codes.tolist()
    assert mine.pool == bridge.pool
    assert all(text is sys.intern(text) for text in mine.pool)
    assert ours.fingerprint() == theirs.fingerprint()


def test_an_all_null_date_projection_matches_the_bridge():
    table = Table(Schema([ColumnSpec("d", DT.DATE)]),
                  {"d": [None, date(2000, 1, 1)]})
    for sql in ("SELECT d FROM t WHERE d IS NULL",
                "SELECT d FROM t WHERE d > '3000-01-01'"):
        ours = colexec.execute(sql, {"t": table})
        theirs = run_sql(sql, {"t": table})
        assert ours.schema == theirs.schema
        assert cells(ours.storage("d")) == cells(theirs.storage("d"))
        assert ours.fingerprint() == theirs.fingerprint()


# ----------------------------------------------------------------------
# The NaN guard is a flag of the float store
# ----------------------------------------------------------------------


def test_a_float_store_knows_whether_it_holds_nan(monkeypatch):
    clean = build_column([1.5, None, -0.0, 2.0], DT.FLOAT)
    dirty = build_column([1.5, float("nan"), None], DT.FLOAT)
    assert isinstance(clean, FloatColumn) and isinstance(dirty, FloatColumn)
    assert not clean.has_nan() and dirty.has_nan()
    scans = []
    isnan = np.isnan
    monkeypatch.setattr(np, "isnan", lambda a: scans.append(1) or isnan(a))
    assert not clean.take([3, 0]).has_nan()      # known without looking
    assert scans == []
    assert not dirty.take([0, 2]).has_nan()      # a NaN store's take looks
    assert dirty.take([1]).has_nan()
    assert len(scans) == 2
    # The flag is not pickled.
    assert pickle.dumps(clean) == pickle.dumps(build_column(
        [1.5, None, -0.0, 2.0], DT.FLOAT))
    assert pickle.loads(pickle.dumps(dirty))._nan is None


def test_a_table_with_a_nan_float_declines_and_a_clean_take_runs():
    table = Table(Schema([ColumnSpec("x", DT.INTEGER),
                          ColumnSpec("f", DT.FLOAT)]),
                  {"x": [1, 2, 3], "f": [1.0, float("nan"), 2.0]})
    with pytest.raises(colexec.UnsupportedSQL, match="NaN"):
        colexec.execute("SELECT x FROM t", {"t": table})
    clean = table.take([0, 2])
    assert colexec.execute("SELECT x FROM t",
                           {"t": clean}).column("x") == [1, 3]


# ----------------------------------------------------------------------
# Tables from packed stores are not checked again; outside data is
# ----------------------------------------------------------------------


def test_packed_tables_equal_checked_tables():
    lake = load_lake("rotowire", scale=1)
    players = lake.table("players")
    rows = [5, 0, 3, 3]
    checked = Table(players.schema, {name: players.column(name)
                                     for name in players.column_names})
    for table in (players.take(rows), players.project(["name", "team"]),
                  players.rename({"name": "who"}),
                  players.with_column("n", DT.INTEGER,
                                      list(range(players.num_rows)))):
        rebuilt = Table(table.schema, {name: table.column(name)
                                       for name in table.column_names})
        assert table.fingerprint() == rebuilt.fingerprint()
        assert [type(table.storage(n)) for n in table.column_names] \
            == [type(rebuilt.storage(n)) for n in rebuilt.column_names]
    assert checked.take(rows).fingerprint() \
        == players.take(rows).fingerprint()


def test_outside_data_keeps_every_check():
    schema = Schema([ColumnSpec("a", DT.INTEGER), ColumnSpec("b", DT.STRING)])
    with pytest.raises(SchemaError, match="missing"):
        Table(schema, {"a": [1]})
    with pytest.raises(SchemaError, match="not in schema"):
        Table(schema, {"a": [1], "b": ["x"], "c": [2]})
    with pytest.raises(SchemaError, match="has 1 values"):
        Table(schema, {"a": [1, 2], "b": ["x", "y"]}).with_column(
            "c", DT.BOOLEAN, [True])


# ----------------------------------------------------------------------
# referenced_tables scans once per statement text
# ----------------------------------------------------------------------


def _regex_subset(sql: str, tables: dict) -> dict:
    subset = {name: table for name, table in tables.items()
              if re.search(rf"\b{re.escape(name)}\b", sql, re.IGNORECASE)}
    return subset or dict(tables)


@pytest.mark.parametrize("dataset", sorted(WORKLOADS))
def test_referenced_tables_equal_the_regex_scan(dataset, monkeypatch):
    seen: list[tuple[str, dict, dict]] = []
    memoised = sql_ops.referenced_tables

    def checking(sql, tables):
        subset = memoised(sql, tables)
        seen.append((sql, dict(tables), subset))
        return subset

    queries = workload(dataset)
    with Session(load_lake(dataset, scale=2)) as session:
        session.batch(queries)
        monkeypatch.setattr(sql_ops, "referenced_tables", checking)
        session.batch(queries)
    assert seen
    for sql, tables, subset in seen:
        want = _regex_subset(sql, tables)
        assert list(subset) == list(want), sql
        assert all(subset[name] is want[name] for name in want)


# ----------------------------------------------------------------------
# One query's metrics under one lock
# ----------------------------------------------------------------------


def test_record_equals_one_call_per_counter_and_phase():
    increments = [("queries_total", 1), ("queries_ok", 1),
                  ("cost_usd_total", 0.1), ("cost_usd_total", 0.2),
                  ('token_in_phase_total{phase="mapping"}', 7)]
    observations = [("latency_total", 0.003), ("latency_mapping", 0.0004),
                    ("latency_total", 7.0)]
    one, many = MetricsRegistry(), MetricsRegistry()
    for _ in range(3):
        one.record(increments, observations)
        for name, value in increments:
            many.increment(name, value)
        for name, seconds in observations:
            many.observe(name, seconds)
    assert one.snapshot() == many.snapshot()
