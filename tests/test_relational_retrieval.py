"""Tests for colexec's WHERE kernels and its declines, differential
against the sqlite bridge."""

from datetime import date

import pytest

from repro.data.csvio import read_csv_text
from repro.data.datatypes import DataType
from repro.data.schema import ColumnSpec, Schema
from repro.data.table import Table
from repro.obs.trace import QueryTelemetry
from repro.operators.base import ExecutionContext
from repro.operators.sql_ops import SQLOperator
from repro.relational import colexec, run_sql


# ----------------------------------------------------------------------
# WHERE kernels: colexec against the sqlite bridge
# ----------------------------------------------------------------------


PLAYERS = Table(
    Schema([ColumnSpec("h", DataType.INTEGER),
            ColumnSpec("team", DataType.STRING),
            ColumnSpec("born", DataType.DATE),
            ColumnSpec("s", DataType.STRING)]),
    {"h": [201, 180, None, 210, 200, 195],
     "team": ["Heat", "Bulls", "Heat", None, "Ann", "anna"],
     "born": [date(1990, 1, 2), None, date(1985, 6, 1), date(2000, 12, 31),
              date(1990, 1, 2), None],
     # Non-ASCII letters, a newline and the Kelvin sign (U+212A), which
     # Unicode case-folds to "k": sqlite's LIKE folds ASCII only.
     "s": ["\u00c9cole", "a\nb", "ab", "\u212a", None, "a\n"]})


@pytest.mark.parametrize("predicate", [
    "h > 200 AND team = 'Heat'",
    "h > 200 AND team = 'Bulls'",
    "h < 100 OR team != 'Bulls'",
    "(h >= 201) AND (h <= 201)",
    "(h < 190 OR h > 205) AND team <> 'Bulls'",
    "h = 180 OR (team = 'Heat' AND born < '1988-01-01')",
    "h != 200",
    "team > 'B' AND team <= 'Heat'",
    "h BETWEEN 180 AND 200",
    "born BETWEEN '1986-01-01' AND '1995-12-31'",
    "born >= '1990-01-02'",
    "team IN ('Heat', 'Bulls', 'Nets')",
    "team NOT IN ('Heat', 'Bulls')",
    "h IN (180, 210)",
    "h NOT IN (180, 210)",
    "born IN ('1990-01-02')",
    "born NOT IN ('1990-01-02')",
    "team LIKE 'An%'",
    "team NOT LIKE 'An%'",
    "team LIKE 'h_at'",
    "s LIKE '\u00e9cole'",
    "s LIKE 'a%b'",
    "s LIKE '%'",
    "s LIKE 'k'",
    "s NOT LIKE 'a_'",
    "h IS NULL",
    "h IS NOT NULL",
    "team IS NULL",
    "born IS NULL",
    "born IS NOT NULL OR team IS NULL",
])
def test_where_kernels_match_sqlite(predicate):
    sql = f"SELECT * FROM t WHERE {predicate}"
    tables = {"t": PLAYERS}
    columnar = colexec.execute(sql, tables)
    reference = run_sql(sql, tables)
    assert columnar.to_dict() == reference.to_dict()
    assert columnar.fingerprint() == reference.fingerprint()


MIXED = Table(
    Schema([ColumnSpec("n", DataType.INTEGER),
            ColumnSpec("h", DataType.INTEGER),
            ColumnSpec("x", DataType.FLOAT),
            ColumnSpec("born", DataType.DATE)]),
    {"n": [1, True, 2, None],            # bool in ints: object storage
     "h": [2 ** 52, 2 ** 52, 3, None],
     "x": [1.5, None, 2.25, -0.5],
     "born": [date(1990, 1, 2), None, date(1985, 6, 1), date(1990, 1, 2)]})


# NaN: sqlite binds it as NULL.  ``f`` holds it in a typed float
# column, ``o`` in an object-stored one (ints mixed with floats).
NAN_TYPED = read_csv_text("x,k\n1.5,1\nnan,2\n,3\n2.0,4\n")
NAN_OBJECT = Table(
    Schema([ColumnSpec("x", DataType.FLOAT), ColumnSpec("k", DataType.INTEGER)]),
    {"x": [1, float("nan"), None, 2.0], "k": [1, 2, 3, 4]})


@pytest.mark.parametrize("sql", [
    "SELECT * FROM t WHERE n > 1",                      # object column
    "SELECT * FROM t WHERE born LIKE '1990%'",           # LIKE over a DATE
    "SELECT * FROM t WHERE h < 99999999999999999999",   # past int64
    "SELECT SUM(x) AS v FROM t",
    "SELECT AVG(x) AS v FROM t",
    "SELECT MIN(x) AS v FROM t",
    "SELECT MAX(x) AS v FROM t",
    "SELECT x, COUNT(*) AS c FROM t GROUP BY x",         # float group key
    "SELECT AVG(h) AS v FROM t",                        # near 2**53
    "SELECT COUNT(x) AS v FROM f",
    "SELECT k FROM f WHERE x IS NULL",
    "SELECT k FROM f WHERE x IS NOT NULL",
    "SELECT x FROM f",
    "SELECT DISTINCT x FROM f",
    "SELECT k, x FROM f ORDER BY x ASC",
    "SELECT k FROM f WHERE x != 1.5",
    "SELECT x FROM o",
    "SELECT DISTINCT x FROM o",
    "SELECT k, x FROM o ORDER BY x DESC",
])
def test_shapes_without_a_typed_kernel_decline_to_sqlite(sql):
    tables = {"t": MIXED, "f": NAN_TYPED, "o": NAN_OBJECT}
    with pytest.raises(colexec.UnsupportedSQL):
        colexec.execute(sql, tables)
    telemetry = QueryTelemetry()
    context = ExecutionContext(tables=dict(tables), telemetry=telemetry)
    result = SQLOperator().run(context, [sql]).table
    assert telemetry.counters["colexec_declined"] == 1
    assert telemetry.counters["sql_engine_sqlite"] == 1
    reference = run_sql(sql, tables)
    assert result.to_dict() == reference.to_dict()
    assert result.fingerprint() == reference.fingerprint()
