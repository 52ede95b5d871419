"""Prepared steps: a step's text is compiled once, a UDF's output is
computed once per immutable input table, and once per string pool entry.

A Python step's generated source is validated and compiled once per
process, but every evaluation still gets a fresh function.  Its output
is memoised on the input table under ``(input column, source)``, so a
warm step over the same table runs no row, and a memo hit must be
indistinguishable from a run on a fresh table.  Over a string column the
code runs once per pool entry (the pool's ``udf_values`` memo), so a
fresh take of a column whose entries are known hands the code no value;
a function with default arguments, which could keep state between
calls, still runs row by row.  A SQL step's text is parsed once into a
frozen statement; declines are never memoised.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest
from test_python_udf import RECIPES, TABLE

import repro.operators.python_udf as python_udf
from repro import Session
from repro.data.catalog import DataLake, DataSource
from repro.data.columns import StringColumn
from repro.data.datatypes import DataType
from repro.data.schema import ColumnSpec, Schema
from repro.data.memo import KINDS
from repro.data.table import Table
from repro.errors import OperatorError
from repro.obs import QueryTelemetry
from repro.operators.base import ExecutionContext
from repro.operators.python_udf import PythonOperator
from repro.operators.sql_ops import SQLOperator
from repro.relational.colexec import UnsupportedSQL, parse_select
from repro.udf.codegen import GeneratedUDF
from repro.udf.sandbox import compile_udf

CENTURY = "For each century, how many paintings are there?"


def fresh(table: Table) -> Table:
    """A new table object over the same columns (an empty memo)."""
    return Table(table.schema, {name: table.storage(name)
                                for name in table.column_names})


def copied(table: Table) -> Table:
    """A copy with new stores: its pools and every memo start empty."""
    return pickle.loads(pickle.dumps(table))


def run(table: Table, description: str, column: str):
    """One Python step over *table*; returns (result, counters)."""
    context = ExecutionContext(tables={"paintings": table},
                               telemetry=QueryTelemetry())
    result = PythonOperator().run(
        context, ["paintings", column, "derived", description])
    return result, context.telemetry.counters


def derived_column(result) -> tuple:
    stored = result.table.storage("derived")
    return (result.table.dtype("derived"), type(stored),
            [(type(v), repr(v)) for v in stored.iter_values()])


def non_null(table: Table, column: str) -> int:
    values = table.column(column)
    return len(values) - values.count(None)


def handed(table: Table, column: str) -> int:
    """Values a cold step hands the code: one per distinct string, else
    one per non-null row."""
    if isinstance(table.storage(column), StringColumn):
        return len(set(table.column(column)) - {None})
    return non_null(table, column)


@pytest.mark.parametrize("description,column", RECIPES)
def test_memo_hit_equals_a_run_on_a_fresh_table(description, column):
    shared = copied(TABLE)
    cold, cold_counters = run(shared, description, column)
    warm, warm_counters = run(shared, description, column)
    reference, _ = run(fresh(TABLE), description, column)

    assert cold_counters["udf_rows_evaluated"] == handed(TABLE, column)
    assert "udf_memo_hits" not in cold_counters
    assert warm_counters["udf_memo_hits"] == 1
    assert "udf_rows_evaluated" not in warm_counters
    assert warm_counters["udf_calls"] == cold_counters["udf_calls"] == 1
    for result in (cold, warm):
        assert derived_column(result) == derived_column(reference)
        assert result.observation == reference.observation
        assert result.table.column_names == reference.table.column_names


STATEFUL = ("def transform(value, seen=[]):\n"
            "    seen.append(value)\n"
            "    return len(seen)\n")


def test_stateful_udf_gets_a_fresh_function_on_every_run(monkeypatch):
    monkeypatch.setattr(python_udf, "generate_udf",
                        lambda description: GeneratedUDF(description,
                                                         STATEFUL))
    table = Table(Schema([ColumnSpec("title", DataType.STRING)]),
                  {"title": ["a", None, "b", "c", "a", "a"]})
    expected = [1, None, 2, 3, 4, 5]
    shared = fresh(table)
    for _ in range(3):
        # A fresh table misses the output memo and runs the code again.
        result, counters = run(fresh(table), "count the titles", "title")
        assert result.table.column("derived") == expected
        assert counters["udf_rows_evaluated"] == 5
        result, _ = run(shared, "count the titles", "title")
        assert result.table.column("derived") == expected
        # A fresh filtered take shares the pool, yet a function with a
        # default argument sees every row, repeated values included.
        result, counters = run(table.take([4, 1, 5, 0]), "count the titles",
                               "title")
        assert result.table.column("derived") == [1, None, 2, 3]
        assert counters["udf_rows_evaluated"] == 3
        assert "udf_memo_hits" not in counters
    assert [compile_udf(STATEFUL)("x") for _ in range(3)] == [1, 1, 1]


def test_failing_row_raises_the_same_error_every_time_and_stores_nothing():
    table = Table(Schema([ColumnSpec("inception", DataType.STRING)]),
                  {"inception": ["1889-01-15", None, "circa", "undated"]})
    messages = set()
    for _ in range(3):
        context = ExecutionContext(tables={"paintings": table},
                                   telemetry=QueryTelemetry())
        with pytest.raises(OperatorError) as info:
            PythonOperator().run(context, ["paintings", "inception",
                                           "century", "extract the century"])
        messages.add(str(info.value))
        counters = context.telemetry.counters
        assert counters["udf_rows_evaluated"] == 2  # rows 0 and 2
        assert "udf_memo_hits" not in counters
    (message,) = messages
    assert "row 2" in message and "'circa'" in message


def test_more_sources_than_the_cap_keep_only_the_newest():
    table = Table(Schema([ColumnSpec("count", DataType.INTEGER)]),
                  {"count": [1, 2, None, 4]})
    descriptions = [f"divide the count by {n}"
                    for n in range(1, KINDS["udf"].bound + 3)]
    for description in descriptions:
        _, counters = run(table, description, "count")
        assert counters["udf_rows_evaluated"] == 3
    for description in descriptions[2:]:
        _, counters = run(table, description, "count")
        assert counters.get("udf_memo_hits") == 1, description
    _, counters = run(table, descriptions[0], "count")
    assert "udf_memo_hits" not in counters


def test_derived_caps_each_kind_on_its_own():
    table = Table(Schema([ColumnSpec("count", DataType.INTEGER)]),
                  {"count": [1, 2]})
    computed: list[object] = []

    def compute(tag):
        return lambda: computed.append(tag) or tag

    bound = KINDS["udf"].bound
    get = table.memo.get
    assert get("fingerprint", (), compute("other")) == "other"
    for n in range(bound + 3):
        assert get("udf", n, compute(n)) == n
    computed.clear()
    for n in range(3, bound + 3):
        assert get("udf", n, compute(-1)) == n
    assert get("fingerprint", (), compute(-1)) == "other"
    assert computed == []
    assert get("udf", 0, compute(0)) == 0
    assert computed == [0]


def test_threads_share_one_table_without_disagreeing(artwork_lake):
    table = fresh(artwork_lake.table("paintings_metadata"))
    reference, _ = run(fresh(table), "extract the century", "inception")
    expected = derived_column(reference)
    runs_per_thread, workers = 25, 4
    results: list[tuple] = []
    errors: list[BaseException] = []
    barrier = threading.Barrier(workers)

    def worker() -> None:
        try:
            barrier.wait(timeout=10)
            for _ in range(runs_per_thread):
                result, counters = run(table, "extract the century",
                                       "inception")
                results.append((derived_column(result), result.observation,
                                counters))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == runs_per_thread * workers
    entries = handed(table, "inception")
    evaluated = 0
    for column, observation, counters in results:
        assert column == expected
        assert observation == reference.observation
        # Each run either handed the code values or hit a memo.
        assert (counters.get("udf_rows_evaluated", 0) > 0) != (
            counters.get("udf_memo_hits", 0) == 1)
        evaluated += counters.get("udf_rows_evaluated", 0)
    # Threads that miss together may each evaluate an entry, no more.
    assert evaluated <= workers * entries
    assert sum(c.get("udf_memo_hits", 0) for _, _, c in results) >= (
        len(results) - workers)


def test_replacing_a_lake_table_misses(artwork_lake):
    lake = DataLake(name="artwork")
    for name in artwork_lake.source_names:
        source = artwork_lake.source(name)
        lake.add(DataSource(name, copied(source.table), source.kind,
                            source.description))
    session = Session(lake)
    try:
        rows = handed(lake.table("paintings_metadata"), "inception")
        first = session.query(CENTURY).telemetry.counters
        second = session.query(CENTURY).telemetry.counters
        replaced = lake.source("paintings_metadata")
        lake.add(DataSource(replaced.name, copied(replaced.table),
                            replaced.kind, replaced.description))
        third = session.query(CENTURY)
    finally:
        session.close()
    assert first["udf_rows_evaluated"] == rows
    assert second["udf_memo_hits"] == 1
    assert third.telemetry.counters["udf_rows_evaluated"] == rows
    assert "udf_memo_hits" not in third.telemetry.counters
    assert third.ok


def test_parse_select_memoises_statements_but_not_declines(rotowire_lake):
    sql = 'SELECT "name" FROM players WHERE "height_cm" > 200'
    assert parse_select(sql) is parse_select(sql)
    assert parse_select(sql) == parse_select(" " + sql)

    bad = 'SELECT "name" FROM players GROUP BY "name", "team"'
    for _ in range(3):
        with pytest.raises(UnsupportedSQL, match="multi-column GROUP BY"):
            parse_select(bad)

    tables = {"players": rotowire_lake.table("players")}
    declined_at_run = ('SELECT "position", AVG("position") AS avg_position '
                       'FROM players GROUP BY "position"')
    for statement in (bad, declined_at_run):
        observations = set()
        for _ in range(3):
            context = ExecutionContext(tables=dict(tables),
                                       telemetry=QueryTelemetry())
            try:
                result = SQLOperator().run(context, [statement])
            except OperatorError as exc:  # sqlite rejects it too
                observations.add(str(exc))
            else:
                observations.add(result.observation)
            assert context.telemetry.counters["colexec_declined"] == 1
        assert len(observations) == 1
