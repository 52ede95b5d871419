"""Unit tests for Table and DataLake round-trips."""

import pytest

from repro.data import (ColumnSpec, DataLake, DataType, Schema, SourceKind,
                        Table)
from repro.errors import SchemaError, UnknownTableError

_SCHEMA = Schema([
    ColumnSpec("name", DataType.STRING),
    ColumnSpec("height_cm", DataType.INTEGER),
])

_ROWS = [("Ann", 180), ("Bob", 195), ("Cid", 201)]


def _table() -> Table:
    return Table.from_rows(_SCHEMA, _ROWS)


def test_table_from_rows_round_trip():
    table = _table()
    assert table.num_rows == 3
    assert table.column_names == ["name", "height_cm"]
    assert list(table.row_tuples()) == _ROWS
    assert table.row(1) == {"name": "Bob", "height_cm": 195}


def test_from_rows_rejects_a_short_row():
    # The rows are transposed with zip, which would silently truncate.
    with pytest.raises(SchemaError, match="row has 1 values, schema has 2"):
        Table.from_rows(_SCHEMA, [("Ann", 180), ("Bob",)])


def test_ragged_columns_are_rejected():
    with pytest.raises(SchemaError, match="ragged columns"):
        Table(_SCHEMA, {"name": ["Ann", "Bob"], "height_cm": [180]})


@pytest.mark.parametrize("dtype", [DataType.TEXT, DataType.IMAGE])
def test_a_built_table_never_aliases_the_input_list(dtype):
    from repro.vision import LazyImage, build_scene
    if dtype is DataType.TEXT:
        cells = ["first report", "second report"]
    else:
        cells = [LazyImage(build_scene({"dog": 1}, seed=seed), path=f"{seed}")
                 for seed in (1, 2)]
    expected = list(cells)
    table = Table(Schema([ColumnSpec("doc", dtype)]), {"doc": cells})
    cells.append(cells[0])
    cells[0] = None
    assert table.column("doc") == expected


def test_table_filter_project_rename():
    table = _table()
    tall = table.filter([height > 190 for height in table.column("height_cm")])
    assert tall.column("name") == ["Bob", "Cid"]
    names = tall.project(["name"]).rename({"name": "player"})
    assert names.column_names == ["player"]
    assert names.column("player") == ["Bob", "Cid"]


def test_table_equality_round_trip():
    table = _table()
    rows = list(table.rows())
    again = Table(_SCHEMA, {name: [row[name] for row in rows]
                            for name in _SCHEMA.column_names})
    assert table.equals(again)
    assert table.equals(again.take([2, 1, 0]), ignore_order=True)


def test_lake_add_resolve_subset():
    lake = DataLake(name="test")
    lake.add_table("players", _table(), description="the players")
    assert "players" in lake
    assert len(lake) == 1
    assert lake.table("players").num_rows == 3
    assert lake.source("players").kind is SourceKind.TABLE
    subset = lake.subset(["players"])
    assert subset.source_names == ["players"]
    with pytest.raises(UnknownTableError):
        lake.table("nope")


def test_lake_fingerprint_is_stable_and_shape_sensitive():
    lake_a = DataLake(name="a").add_table("players", _table())
    lake_b = DataLake(name="b").add_table("players", _table())
    # Same sources/schemas/row counts → same fingerprint, name is irrelevant.
    assert lake_a.fingerprint() == lake_b.fingerprint()
    # A different shape → different fingerprint.
    lake_c = DataLake(name="c").add_table(
        "players", Table.from_rows(_SCHEMA, _ROWS[:2]))
    assert lake_a.fingerprint() != lake_c.fingerprint()


# ----------------------------------------------------------------------
# Columnar-storage edge cases (the fuzzer's first likely finds)
# ----------------------------------------------------------------------


def make_typed_table(columns):
    from repro.data.datatypes import infer_column_type
    specs = [ColumnSpec(name, infer_column_type(list(values)))
             for name, values in columns.items()]
    return Table(Schema(specs), columns)


def test_all_none_typed_columns_store_and_roundtrip():
    schema = Schema([ColumnSpec("n", DataType.INTEGER),
                     ColumnSpec("f", DataType.FLOAT),
                     ColumnSpec("b", DataType.BOOLEAN),
                     ColumnSpec("d", DataType.DATE),
                     ColumnSpec("s", DataType.STRING)])
    nones = {name: [None, None] for name in schema.column_names}
    table = Table(schema, nones)
    for name in schema.column_names:
        assert table.column(name) == [None, None]
    again = Table.from_dict(table.to_dict())
    assert again == table
    assert again.fingerprint() == table.fingerprint()


def test_typed_columns_round_trip_exactly():
    from datetime import date
    # Values the typed stores must reproduce bit-for-bit — fingerprints
    # hash reprs, so any drift would silently invalidate old caches.
    int64_min, int64_max = -2 ** 63, 2 ** 63 - 1
    table = make_typed_table({
        "i": [int64_min, int64_max, 0, None],
        "f": [-0.0, float("inf"), 1e-323, None],
        "d": [date.min, date.max, date(2020, 2, 29), None],
        "b": [True, False, None, None],
    })
    assert table.column("i") == [int64_min, int64_max, 0, None]
    values = table.column("f")
    assert repr(values[0]) == "-0.0" and values[1] == float("inf")
    assert values[2] == 1e-323
    assert table.column("d")[:3] == [date.min, date.max, date(2020, 2, 29)]
    assert table.column("b") == [True, False, None, None]


def test_int64_overflow_and_bool_contamination_fall_back():
    from repro.data.columns import IntColumn, ObjectColumn, build_column
    from repro.data.datatypes import DataType as DT
    assert isinstance(build_column([2 ** 63 - 1, None], DT.INTEGER),
                      IntColumn)
    # Out-of-int64 values and bools (bool is not int here: reprs differ)
    # must demote to object storage rather than corrupt the typed buffer.
    assert isinstance(build_column([2 ** 63, 1], DT.INTEGER), ObjectColumn)
    assert isinstance(build_column([-2 ** 63 - 1, 1], DT.INTEGER),
                      ObjectColumn)
    assert isinstance(build_column([True, 1], DT.INTEGER), ObjectColumn)
    assert build_column([2 ** 63, 1], DT.INTEGER).materialize() == [2 ** 63, 1]


def test_empty_table_joins_match_across_engines():
    from repro.relational import colexec
    from repro.relational.sqlexec import build_join_sql, run_sql
    empty = Table.empty(Schema([ColumnSpec("k", DataType.STRING),
                                ColumnSpec("v", DataType.INTEGER)]))
    other = Table(Schema([ColumnSpec("k", DataType.STRING),
                          ColumnSpec("w", DataType.INTEGER)]),
                  {"k": ["a"], "w": [1]})
    for left, right in ((empty, other), (other, empty), (empty, empty)):
        sql = build_join_sql("l", "r", "k", "k", left.column_names,
                             right.column_names)
        bridged = run_sql(sql, {"l": left, "r": right})
        columnar = colexec.execute(sql, {"l": left, "r": right})
        assert columnar.to_dict() == bridged.to_dict()
        assert columnar.fingerprint() == bridged.fingerprint()
        assert columnar.num_rows == 0


def test_empty_table_aggregates_match_sqlite():
    from repro.relational import colexec
    from repro.relational.sqlexec import run_sql
    empty = Table.empty(Schema([ColumnSpec("k", DataType.STRING),
                                ColumnSpec("v", DataType.INTEGER)]))
    sql = ("SELECT COUNT(*) AS c, SUM(v) AS s, AVG(v) AS a, MIN(v) AS m "
           "FROM t")
    bridged = run_sql(sql, {"t": empty})
    assert bridged.to_dict()["columns"] == {"c": [0], "s": [None],
                                            "a": [None], "m": [None]}
    result = colexec.execute(sql, {"t": empty})
    assert result.to_dict() == bridged.to_dict()
    grouped_sql = "SELECT k, COUNT(*) AS c FROM t GROUP BY k"
    grouped = colexec.execute(grouped_sql, {"t": empty})
    assert grouped.num_rows == 0
    assert grouped.to_dict() == run_sql(grouped_sql, {"t": empty}).to_dict()


def test_date_coercion_at_column_boundaries():
    from datetime import date, datetime
    from repro.data.datatypes import coerce
    from repro.errors import TypeMismatchError
    assert coerce("0001-01-01", DataType.DATE) == date.min
    assert coerce("9999-12-31", DataType.DATE) == date.max
    assert coerce(datetime(2020, 1, 2, 3, 4), DataType.DATE) == date(2020, 1, 2)
    for bad in ("2020-1-2", "2020-13-01", "2020-02-30", 737791):
        with pytest.raises(TypeMismatchError):
            coerce(bad, DataType.DATE)


def test_date_column_boundaries_survive_take_and_concat():
    from datetime import date
    schema = Schema([ColumnSpec("d", DataType.DATE)])
    table = Table(schema, {"d": [date.min, None, date.max]})
    taken = table.take([2, 0])
    assert taken.column("d") == [date.max, date.min]
    merged = Table(schema, {"d": table.column("d") + taken.column("d")})
    assert merged.column("d") == [date.min, None, date.max, date.max,
                                  date.min]
    assert Table.from_dict(merged.to_dict()) == merged


def test_sample_values_skip_nan_as_they_skip_null():
    # sqlite binds NaN as NULL, and NaN != NaN would defeat the dedup:
    # three NaNs used to be the column's three "examples".
    nan = float("nan")
    table = Table.infer({"x": [nan, None, nan, nan, 1.0, 2.0, 1.0]})
    assert table.sample_values("x") == [1.0, 2.0]
    assert Table.infer({"x": [nan, nan]}).sample_values("x") == []
