"""String predicates in colexec against the sqlite bridge.

colexec decides a string predicate once per pool entry: an ordered
compare or ``BETWEEN`` is a rank cut in the pool's Python order, ``IN``
marks member codes, ``LIKE`` matches each entry once, and one gather by
code carries the verdict to the rows.  Each case here either answers
byte-identically to the bridge or declines exactly as pinned.  Unlike
``repro fuzz``, which draws literals from pool values, the literals
here fall between entries, below the minimum and above the maximum,
and the pools hold ``''``, non-ASCII text, NULs and NULL rows.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.data.datatypes import DataType
from repro.data.schema import ColumnSpec, Schema
from repro.data.table import Table
from repro.relational import colexec
from repro.relational.sqlexec import run_sql


def text_table(texts: list[str | None]) -> Table:
    schema = Schema([ColumnSpec("s", DataType.STRING),
                     ColumnSpec("n", DataType.INTEGER)])
    return Table(schema, {"s": texts, "n": list(range(len(texts)))})


#: ISO dates around a BETWEEN's bounds, non-ASCII text, an astral
#: character (UTF-16 would order it below U+FFxx; UTF-8 and Python do
#: not), a quote, duplicates and NULL rows.  No ``''``, so ``''`` is a
#: literal below the minimum.
WORDS = ["1699-12-31", "1700-01-01", None, "1740-12-31", "1741-01-01",
         "1700-01-01", "Ärger", "zebra", "日本", "😀", "Zebra", None,
         "a'b", "～", "1720-05-05"]
#: ``''`` as a pool entry, next to text it prefixes.
EMPTY = ["", "a", None, "", "A", "ab"]
#: NUL-bearing entries that numpy's unicode arrays would pad together.
NULS = ["a", "a\x00", None, "a\x00b", "b", "\x00", "a", "\x00\x00"]

TABLES = {"words": text_table(WORDS), "empty": text_table(EMPTY),
          "nuls": text_table(NULS)}

LITERALS = ["1700-01-01", "1700-06-15", "1740-12-31", "", "0", "Zebra",
            "zebra", "ä", "😀", "😀😀", "￿", "a''b"]

AGREE = [
    *(f"SELECT * FROM words WHERE s {op} '{literal}'"
      for op in ("<", "<=", ">", ">=") for literal in LITERALS),
    "SELECT * FROM words WHERE s BETWEEN '1700-01-01' AND '1740-12-31'",
    "SELECT * FROM words WHERE s BETWEEN '1700-06-15' AND '1740-06-15'",
    "SELECT * FROM words WHERE s BETWEEN '1740-12-31' AND '1700-01-01'",
    "SELECT * FROM words WHERE s BETWEEN '1700-01-01' AND '1700-01-01'",
    "SELECT * FROM words WHERE s BETWEEN '' AND '0'",
    "SELECT * FROM words WHERE s BETWEEN 'zz' AND '😀😀'",
    "SELECT * FROM words WHERE s IN ('zebra', 'nope', 'zebra')",
    "SELECT * FROM words WHERE s IN ('nope')",
    "SELECT * FROM words WHERE s IN ('1700-01-01', '日本', 'a''b')",
    "SELECT * FROM words WHERE s NOT IN ('zebra', 'nope')",
    "SELECT * FROM words WHERE s NOT IN ('nope')",
    "SELECT * FROM words WHERE s LIKE '17%'",
    "SELECT * FROM words WHERE s LIKE 'z%'",
    "SELECT * FROM words WHERE s LIKE 'ä%'",
    "SELECT * FROM words WHERE s LIKE '17__-01-01'",
    "SELECT * FROM words WHERE s NOT LIKE '17%'",
    "SELECT * FROM words WHERE s NOT LIKE '%'",
    "SELECT * FROM words WHERE s > '1700-06-15' AND s LIKE '17%' "
    "OR s IN ('日本')",
    "SELECT MIN(s) AS lo, MAX(s) AS hi FROM words",
    *(f"SELECT * FROM empty WHERE s {op} ''"
      for op in ("<", "<=", ">", ">=", "=", "!=")),
    "SELECT * FROM empty WHERE s BETWEEN '' AND 'a'",
    "SELECT * FROM empty WHERE s IN ('', 'b')",
    "SELECT * FROM empty WHERE s NOT IN ('')",
    "SELECT * FROM empty WHERE s LIKE ''",
    "SELECT * FROM empty WHERE s NOT LIKE 'a%'",
    "SELECT MIN(s) AS lo, MAX(s) AS hi FROM empty",
    *(f"SELECT * FROM nuls WHERE s {op} '{literal}'"
      for op in ("<", "<=", ">", ">=") for literal in ("a", "b", "\x01")),
    "SELECT * FROM nuls WHERE s BETWEEN 'a' AND 'b'",
    "SELECT * FROM nuls WHERE s NOT IN ('a', 'b')",
    # sqlite's LIKE stops reading a value at its first NUL.
    "SELECT * FROM nuls WHERE s LIKE 'a'",
    "SELECT * FROM nuls WHERE s LIKE 'a_b'",
    "SELECT * FROM nuls WHERE s LIKE '_'",
    "SELECT * FROM nuls WHERE s NOT LIKE '%b'",
    # sqlite's BINARY collation orders 'a' < 'a\0' < 'a\0b': the NULs
    # count, where numpy would pad and tie them.
    "SELECT MIN(s) AS lo, MAX(s) AS hi FROM nuls",
    "SELECT MIN(s) AS lo, MAX(s) AS hi FROM nuls WHERE s > '\x01'",
    "SELECT MAX(s) AS hi FROM nuls WHERE s < 'b'",
]

DECLINE = {
    "SELECT * FROM words WHERE s BETWEEN 1 AND 'zebra'":
        "numeric literal against a text column",
    "SELECT * FROM words WHERE s BETWEEN '1700-01-01' AND 2":
        "numeric literal against a text column",
    "SELECT * FROM words WHERE s < 5":
        "numeric literal against a text column",
    "SELECT * FROM words WHERE s BETWEEN 1.5 AND 'a'":
        "numeric literal against a text column",
    "SELECT * FROM words WHERE s IN ('zebra', 1)":
        "numeric IN member against a text column",
    "SELECT * FROM words WHERE n LIKE '1%'":
        "LIKE over IntColumn storage has no typed kernel",
}


@pytest.mark.parametrize("sql", AGREE)
def test_colexec_answers_as_the_bridge_does(sql):
    reference = run_sql(sql, TABLES)
    result = colexec.execute(sql, TABLES)
    assert result.fingerprint() == reference.fingerprint()


def test_the_cases_select_varied_row_counts():
    counts = {run_sql(sql, TABLES).num_rows for sql in AGREE}
    assert 0 in counts and len(counts) > 5


@pytest.mark.parametrize("sql", sorted(DECLINE))
def test_mixed_type_operands_decline(sql):
    run_sql(sql, TABLES)  # sqlite answers them, by its own type order
    with pytest.raises(colexec.UnsupportedSQL, match=DECLINE[sql]):
        colexec.execute(sql, TABLES)


@pytest.mark.parametrize("where, params", [
    ("s < ?", ("a\x00c",)),
    ("s >= ?", ("a\x00",)),
    ("s > ?", ("\x00",)),
    ("s BETWEEN ? AND ?", ("\x00", "a\x00")),
    ("s BETWEEN ? AND ?", ("a\x00b", "a")),
    ("s = ?", ("a\x00b",)),
    ("s != ?", ("a\x00",)),
    ("s IN (?, ?)", ("a\x00", "q\x00")),
    ("s NOT IN (?)", ("a\x00",)),
])
def test_a_nul_literal_cuts_as_sqlite_binds_it(where, params):
    # sqlite refuses a NUL inside SQL text, so the oracle binds the
    # literal as a parameter.
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE nuls (s TEXT, n INTEGER)")
    connection.executemany("INSERT INTO nuls VALUES (?, ?)",
                           [(text, n) for n, text in enumerate(NULS)])
    expected = [n for (n,) in connection.execute(
        f"SELECT n FROM nuls WHERE {where}", params)]
    connection.close()
    literals = iter(f"'{literal}'" for literal in params)
    sql = "SELECT n FROM nuls WHERE " + "".join(
        next(literals) if part == "?" else part for part in where)
    assert colexec.execute(sql, TABLES).column("n") == expected
