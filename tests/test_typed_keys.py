"""colexec's ordering, grouping, DISTINCT and join keys over hostile data.

Every key colexec sorts, groups, deduplicates or joins on is a rank over
a typed store (``colexec._ranks``).  The differential fuzzer draws only
lake data, so this file builds the shapes the lakes never hold: int64
values near the edge, ``-0.0`` beside ``0.0``, ``1e300``, ``date.min`` /
``date.max``, the empty string, case pairs, an accented and an astral
character, and columns that are entirely NULL.  Each statement must
either equal the sqlite bridge (fingerprint, schema and storage class
per column) or decline; the set of declines is pinned.
"""

from __future__ import annotations

import itertools
import random
from datetime import date

import pytest

from repro.data.datatypes import DataType
from repro.data.schema import ColumnSpec, Schema
from repro.data.table import Table
from repro.obs.trace import QueryTelemetry
from repro.operators.base import ExecutionContext
from repro.relational import colexec
from repro.relational.sqlexec import build_join_sql, run_sql

DT = DataType

#: Each column's dtype and the values its rows draw from.
HOSTILE = {
    "i": (DT.INTEGER, [2 ** 62, -(2 ** 62), 0, -1, 1, 7]),
    "f": (DT.FLOAT, [0.0, -0.0, 1e300, -1e300, 1.5, -2.5]),
    "b": (DT.BOOLEAN, [True, False]),
    "d": (DT.DATE, [date.min, date.max, date(2000, 2, 29), date(1970, 1, 1)]),
    "s": (DT.STRING, ["", "a", "A", "á", "\U0001d11e", "a\x00b"]),
}
NAMES = list(HOSTILE)


def hostile_table(rows: int, seed: int, nulls: bool = False) -> Table:
    """*rows* rows drawn from :data:`HOSTILE` (about one cell in six
    NULL), or every cell NULL."""
    rng = random.Random(seed)
    columns = {name: [None if nulls or rng.random() < 0.17
                      else rng.choice(values) for _ in range(rows)]
               for name, (_, values) in HOSTILE.items()}
    return Table(Schema([ColumnSpec(name, dtype)
                         for name, (dtype, _) in HOSTILE.items()]), columns)


TABLES = {f"{rows} rows": hostile_table(rows, seed=rows)
          for rows in (0, 1, 2, 40)}
TABLES["all NULL"] = hostile_table(5, seed=0, nulls=True)


def statements() -> list[str]:
    sql = ["SELECT * FROM t"]
    for name in NAMES:
        sql += [f"SELECT {name} FROM t",
                f"SELECT DISTINCT {name} FROM t",
                f"SELECT DISTINCT {name} FROM t LIMIT 2",
                f"SELECT COUNT(DISTINCT {name}) AS n FROM t",
                f"SELECT {name}, COUNT(*) AS n FROM t GROUP BY {name}",
                f"SELECT {name}, COUNT(*) AS n FROM t GROUP BY {name} "
                f"ORDER BY {name} DESC",
                f"SELECT {name}, COUNT(*) AS n FROM t GROUP BY {name} "
                f"ORDER BY {name} DESC LIMIT 2"]
        for direction in ("ASC", "DESC"):
            sql += [f"SELECT * FROM t ORDER BY {name} {direction}",
                    f"SELECT * FROM t ORDER BY {name} {direction} LIMIT 3"]
        sql += [f"SELECT {name}, COUNT(DISTINCT {other}) AS n FROM t "
                f"GROUP BY {name}" for other in NAMES if other != name]
    sql += [f"SELECT DISTINCT {first}, {second} FROM t"
            for first, second in itertools.product(NAMES, repeat=2)]
    return sql


STATEMENTS = statements()

#: Float group keys have no kernel, and a repeated output name would be
#: suffixed by sqlite: colexec declines exactly these.
DECLINED = {sql for sql in STATEMENTS if "GROUP BY f" in sql} | {
    f"SELECT DISTINCT {name}, {name} FROM t" for name in NAMES}


def assert_same_answer(ours: Table, theirs: Table) -> None:
    assert ours.schema == theirs.schema
    for name in theirs.column_names:
        assert type(ours.storage(name)) is type(theirs.storage(name)), name
    assert ours.fingerprint() == theirs.fingerprint()


@pytest.mark.parametrize("variant", list(TABLES))
def test_hostile_statements_match_the_bridge_or_decline(variant):
    tables = {"t": TABLES[variant]}
    declined = set()
    for sql in STATEMENTS:
        theirs = run_sql(sql, tables)
        try:
            ours = colexec.execute(sql, tables)
        except colexec.UnsupportedSQL:
            declined.add(sql)
            continue
        assert_same_answer(ours, theirs)
    assert declined == DECLINED


#: Join keys compare within one storage class; sqlite also stores bools
#: as integers.
JOINABLE = {(name, name) for name in NAMES} | {("i", "b"), ("b", "i")}


@pytest.mark.parametrize("variant", list(TABLES))
def test_hostile_joins_match_the_bridge_or_decline(variant):
    left = TABLES[variant]
    # A second table with duplicate keys, so matches are ordered by the
    # right side's other columns.
    right = hostile_table(30, seed=99).project(["i", "s", "d", "b", "f"])
    tables = {"t": left, "u": right}
    for left_on, right_on in itertools.product(NAMES, repeat=2):
        sql = build_join_sql("t", "u", left_on, right_on,
                             left.column_names, right.column_names)
        theirs = run_sql(sql, tables)
        if (left_on, right_on) not in JOINABLE:
            with pytest.raises(colexec.UnsupportedSQL):
                colexec.execute(sql, tables)
            continue
        assert_same_answer(colexec.execute(sql, tables), theirs)


@pytest.mark.parametrize("text_left", [True, False])
def test_a_text_key_against_an_integer_key_declines(text_left):
    # sqlite gives the text side numeric affinity, so '5' and '07' match
    # 5 and 7.  colexec compares within one storage class: it declines,
    # and the step is answered by the bridge.
    text = Table(Schema([ColumnSpec("k", DT.STRING)]),
                 {"k": ["5", "x", "07"]})
    ints = Table(Schema([ColumnSpec("n", DT.INTEGER)]), {"n": [5, 7]})
    tables = {"a": text, "b": ints} if text_left else {"a": ints, "b": text}
    left_on, right_on = ("k", "n") if text_left else ("n", "k")
    sql = build_join_sql("a", "b", left_on, right_on,
                         tables["a"].column_names, tables["b"].column_names)
    context = ExecutionContext(tables=dict(tables),
                               telemetry=QueryTelemetry())
    answer = context.execute_sql(sql, tables, operator="join")
    assert context.telemetry.counters["colexec_declined"] == 1
    expected = run_sql(sql, tables)
    assert expected.num_rows == 2
    assert answer.fingerprint() == expected.fingerprint()
    assert answer.schema == expected.schema
