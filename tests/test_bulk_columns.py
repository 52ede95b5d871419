"""Bulk column construction is the per-value builder, only faster.

``build_column`` packs a whole list in one typed pass, ``infer_column_type``
decides from the distinct exact value types, ``Column.take`` gathers with
numpy, and colexec assembles a join from per-column gathers.  Each is
checked here against the implementation it replaced — the per-value
``ColumnBuilder`` loop, the per-value ``infer_type`` loop, per-index
gathers, and the ``with_column`` join assembly, kept in this file as
references — over seeded generated inputs.
"""

from __future__ import annotations

import math
import random
from array import array
from datetime import date, datetime

import pytest

from repro.data.columns import (BoolColumn, Column, ColumnBuilder, DateColumn,
                                FloatColumn, IntColumn, ObjectColumn,
                                StringColumn, build_column, set_table_store)
from repro.data.datatypes import DataType, infer_column_type, infer_type
from repro.data.schema import ColumnSpec, ForeignKey, Schema
from repro.data.table import Table
from repro.datasets import load_lake
from repro.errors import TypeMismatchError
from repro.relational import colexec, ops
from repro.relational.sqlexec import _adapt_cell, _infer_sql_dtype
from repro.testing.fuzz import _CROSS_JOINS, _USING_JOINS

DT = DataType
INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1


class Text(str):
    """A ``str`` subclass: typed string stores must refuse it."""


# ----------------------------------------------------------------------
# References: the implementations the bulk paths replaced
# ----------------------------------------------------------------------


def reference_column(values, dtype: DataType) -> Column:
    """One ``ColumnBuilder.append`` per value (fed from an iterator, so
    the bulk path cannot be taken)."""
    builder = ColumnBuilder(dtype)
    builder.extend(iter(values))
    return builder.finish()


def reference_infer(values) -> DataType:
    seen: set[DataType] = set()
    for value in values:
        if value is None:
            continue
        seen.add(infer_type(value))
    if not seen:
        return DT.STRING
    if seen == {DT.INTEGER, DT.FLOAT}:
        return DT.FLOAT
    if len(seen) == 1:
        return seen.pop()
    names = ", ".join(sorted(t.name for t in seen))
    raise TypeMismatchError(f"column mixes incompatible datatypes: {names}")


def reference_take(column: Column, indices) -> Column:
    """Per-index gathers, as every store did before numpy."""
    if isinstance(column, ObjectColumn):
        return ObjectColumn([column.values[i] for i in indices])
    if isinstance(column, StringColumn):
        return StringColumn(array("i", (column.codes[i] for i in indices)),
                            column.pool)
    nulls = bytearray(column.nulls[i] for i in indices)
    if isinstance(column, BoolColumn):
        return BoolColumn(bytearray(column.data[i] for i in indices), nulls)
    return type(column)(array(column.data.typecode,
                              (column.data[i] for i in indices)), nulls)


def reference_join_assembly(left: Table, right: Table,
                            left_indices, right_indices,
                            right_on: str, left_on: str) -> Table:
    """The ``with_column`` chain that assembled colexec joins."""
    renames = ops.join_renames(left.column_names, right.column_names,
                               left_on, right_on)
    result = left.take(left_indices)
    for name in right.column_names:
        if name == right_on and right_on == left_on:
            continue
        values = right.column(name)
        picked = [values[j] for j in right_indices]
        result = result.with_column(renames.get(name, name),
                                    right.dtype(name), picked)
    return result


def reference_sqlite_join(left: Table, right: Table,
                          left_on: str, right_on: str) -> Table:
    """colexec's join before bulk assembly: row order unchanged, columns
    appended one ``with_column`` at a time."""
    left_keys = colexec._adapted_column(left, left_on)
    right_keys = colexec._adapted_column(right, right_on)
    order_columns = [colexec._adapted_column(right, name)
                     for name in right.column_names
                     if name != right_on and not right.dtype(name).is_modality]
    index: dict[object, list[int]] = {}
    for j, key in enumerate(right_keys):
        if key is not None:
            index.setdefault(key, []).append(j)
    modality_right = any(right.dtype(name).is_modality
                         for name in right.column_names if name != right_on)
    if modality_right and any(len(rows) > 1 for rows in index.values()):
        raise colexec.UnsupportedSQL("duplicate keys into modality columns")
    for rows in index.values():
        if len(rows) > 1:
            rows.sort(key=lambda j: tuple(colexec._index_sort_key(values[j])
                                          for values in order_columns))
    left_indices, right_indices = [], []
    for i, key in enumerate(left_keys):
        if key is None:
            continue
        for j in index.get(key, ()):
            left_indices.append(i)
            right_indices.append(j)
    return reference_join_assembly(left, right, left_indices, right_indices,
                                   right_on, left_on)


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------


def cells(column: Column) -> list[tuple[type, str]]:
    """Values by (type, repr): NaN-safe and type-exact."""
    return [(type(value), repr(value)) for value in column.iter_values()]


def assert_same_column(bulk: Column, reference: Column,
                       same_pool: bool = True) -> None:
    """Same class and values; with *same_pool*, the same raw buffers and
    string pool too.  A gathered string column shares its source's pool
    (a superset of the values it still holds), so joins compare values."""
    assert type(bulk) is type(reference)
    assert len(bulk) == len(reference)
    assert cells(bulk) == cells(reference)
    if isinstance(reference, StringColumn):
        if same_pool:
            assert bulk.pool == reference.pool
            assert bulk.codes.tobytes() == reference.codes.tobytes()
    elif not isinstance(reference, ObjectColumn):
        assert bytes(bulk.data) == bytes(reference.data)
        assert bulk.nulls == reference.nulls


def assert_same_table(bulk: Table, reference: Table,
                      same_pool: bool = True) -> None:
    assert bulk.schema == reference.schema
    for name in reference.column_names:
        assert_same_column(bulk.storage(name), reference.storage(name),
                           same_pool)
    assert bulk.fingerprint() == reference.fingerprint()
    assert repr(bulk.to_dict()) == repr(reference.to_dict())


# ----------------------------------------------------------------------
# Seeded value lists
# ----------------------------------------------------------------------

_SPECIALS = {
    DT.INTEGER: [0, -1, INT64_MIN, INT64_MAX, INT64_MIN - 1, INT64_MAX + 1,
                 True, False, 2.5, "7"],
    DT.FLOAT: [float("nan"), -0.0, 0.0, float("inf"), float("-inf"),
               1e-323, 5e-324, 1.5e308, 3, True],
    DT.STRING: ["", "a", "Ünïcode", "a b c", Text("sub"), 3, 2.0],
    DT.BOOLEAN: [True, False, 1, 0],
    DT.DATE: [date(1, 1, 1), date(9999, 12, 31), date(1889, 1, 15),
              datetime(2020, 1, 2, 3, 4), "2020-01-01"],
}


def _plain(dtype: DataType, rng: random.Random) -> object:
    if dtype is DT.INTEGER:
        return rng.randint(-1000, 1000)
    if dtype is DT.FLOAT:
        return rng.uniform(-1e6, 1e6)
    if dtype is DT.STRING:
        return rng.choice(["alpha", "beta", "gamma", "delta", "é", "x y"])
    if dtype is DT.BOOLEAN:
        return rng.random() < 0.5
    if dtype is DT.DATE:
        return date.fromordinal(rng.randint(1, 800_000))
    return f"doc-{rng.randint(0, 9)}"


def value_lists(dtype: DataType, seed: int, count: int = 60):
    """Empty, all-None, and seeded lists mixing plain values, duplicates,
    ``None``s and (in about half of them) one edge-case value."""
    rng = random.Random(seed)
    yield []
    yield [None]
    yield [None] * 5
    specials = _SPECIALS.get(dtype, [])
    for case in range(count):
        size = rng.randint(1, 40)
        values = [None if rng.random() < 0.15 else _plain(dtype, rng)
                  for _ in range(size)]
        if values and rng.random() < 0.5:
            values += rng.sample(values, k=min(3, len(values)))
        if specials and case % 2:
            values.insert(rng.randint(0, len(values)),
                          rng.choice(specials))
        yield values
    for special in specials:
        yield [special]
        yield [None, special, special]


RELATIONAL = [DT.INTEGER, DT.FLOAT, DT.STRING, DT.BOOLEAN, DT.DATE]


# ----------------------------------------------------------------------
# build_column
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dtype", RELATIONAL + [DT.TEXT, DT.IMAGE])
def test_bulk_pack_matches_the_per_value_builder(dtype):
    for values in value_lists(dtype, seed=sum(map(ord, dtype.value))):
        bulk = build_column(list(values), dtype)
        reference = reference_column(values, dtype)
        assert_same_column(bulk, reference)
        schema = Schema([ColumnSpec("c", dtype)])
        assert_same_table(Table(schema, {"c": list(values)}),
                          Table(schema, {"c": reference}))


def test_bulk_pack_edge_cases_pick_the_same_store():
    cases = [
        ([INT64_MAX, None, INT64_MIN], DT.INTEGER, IntColumn),
        ([INT64_MAX + 1, 1], DT.INTEGER, ObjectColumn),
        ([INT64_MIN - 1], DT.INTEGER, ObjectColumn),
        ([True, 1], DT.INTEGER, ObjectColumn),
        ([float("nan"), -0.0, 1e-323], DT.FLOAT, FloatColumn),
        ([1, 2.0], DT.FLOAT, ObjectColumn),
        ([datetime(2020, 1, 1), date(2020, 1, 1)], DT.DATE, ObjectColumn),
        ([date(2020, 1, 1), None], DT.DATE, DateColumn),
        ([Text("a"), "a"], DT.STRING, ObjectColumn),
        (["b", "a", None, "b"], DT.STRING, StringColumn),
        ([True, None, 1], DT.BOOLEAN, ObjectColumn),
        ([None, False], DT.BOOLEAN, BoolColumn),
        ([], DT.STRING, StringColumn),
    ]
    for values, dtype, expected in cases:
        bulk = build_column(values, dtype)
        assert type(bulk) is expected, (values, dtype)
        assert_same_column(bulk, reference_column(values, dtype))
    # -0.0 keeps its sign, and the string pool keeps first-occurrence order.
    assert repr(build_column([-0.0], DT.FLOAT).get(0)) == "-0.0"
    assert build_column(["b", "a", None, "b"], DT.STRING).pool == ["b", "a"]


def test_bulk_pack_respects_the_row_store():
    previous = set_table_store("row")
    try:
        column = build_column([1, 2, None], DT.INTEGER)
    finally:
        set_table_store(previous)
    assert type(column) is ObjectColumn
    assert column.values == [1, 2, None]


# ----------------------------------------------------------------------
# infer_column_type
# ----------------------------------------------------------------------


def _infer_outcome(fn, values):
    try:
        return ("ok", fn(values))
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return (type(exc), str(exc))


def test_infer_column_type_matches_the_per_value_loop():
    pool = [None, 1, -5, 2.5, float("nan"), "s", Text("t"), True, False,
            date(2020, 1, 1), datetime(2020, 1, 1, 12), b"raw", object(),
            [1], INT64_MAX + 1]
    rng = random.Random(25)
    lists = [[], [None], [None, None]] + [[value] for value in pool]
    for _ in range(400):
        lists.append([rng.choice(pool) for _ in range(rng.randint(1, 6))])
    for values in lists:
        assert (_infer_outcome(infer_column_type, values)
                == _infer_outcome(reference_infer, values)), values


# ----------------------------------------------------------------------
# Column.take
# ----------------------------------------------------------------------


def _index_sets(size: int, rng: random.Random):
    yield []
    if size:
        yield [0, 0, 0]
        yield list(reversed(range(size)))
        yield [rng.randrange(size) for _ in range(2 * size)]
        yield [-1, 0]


@pytest.mark.parametrize("dtype", RELATIONAL + [DT.TEXT])
def test_take_matches_per_index_gathers(dtype):
    rng = random.Random(7)
    for values in value_lists(dtype, seed=11, count=30):
        column = build_column(list(values), dtype)
        for indices in _index_sets(len(values), rng):
            taken = column.take(indices)
            assert_same_column(taken, reference_take(column, indices))
            if isinstance(column, StringColumn):
                assert taken.pool is column.pool


def test_take_sql_column_keeps_the_bridge_dtype_rule():
    rng = random.Random(3)
    for dtype in (DT.INTEGER, DT.FLOAT, DT.STRING):
        for values in value_lists(dtype, seed=5, count=20):
            storage = build_column(list(values), dtype)
            for indices in [None, *_index_sets(len(values), rng)]:
                taken = colexec._take_sql_column(storage, indices)
                if taken is None:
                    assert isinstance(storage, ObjectColumn)
                    continue
                column, result_dtype = taken
                expected = (values if indices is None
                            else [values[i] for i in indices])
                assert result_dtype == _infer_sql_dtype(
                    [_adapt_cell(v) for v in expected])
                assert cells(column) == cells(build_column(expected, dtype))


# ----------------------------------------------------------------------
# Join assembly
# ----------------------------------------------------------------------


def _join_tables():
    left = Table(
        Schema([ColumnSpec("id", DT.INTEGER, "left key"),
                ColumnSpec("name", DT.STRING, "left name"),
                ColumnSpec("score", DT.FLOAT),
                ColumnSpec("name_right", DT.STRING)],
               description="left table",
               foreign_keys=[ForeignKey("id", "right", "id")],
               primary_key="id"),
        {"id": [1, 2, 2, 3, None, 4],
         "name": ["a", "b", "b", None, "e", "f"],
         "score": [1.0, float("nan"), -0.0, None, 2.0, 3.0],
         "name_right": ["x", "y", "z", "w", "v", "u"]})
    right = Table(
        Schema([ColumnSpec("id", DT.INTEGER, "right key"),
                ColumnSpec("name", DT.STRING, "right name"),
                ColumnSpec("flag", DT.INTEGER),
                ColumnSpec("born", DT.DATE),
                ColumnSpec("note", DT.TEXT)],
               foreign_keys=[ForeignKey("id", "left", "id")],
               primary_key="id"),
        {"id": [2, 1, 2, 4, None],
         "name": ["B", "A", "B2", None, "N"],
         "flag": [1, True, 0, 7, None],          # promoted to ObjectColumn
         "born": [date(2000, 1, 1), None, date(1999, 5, 5),
                  date(1, 1, 1), date(2020, 2, 2)],
         "note": ["t1", "t2", None, "t4", "t5"]})
    return left, right


def test_join_assembly_matches_the_with_column_chain():
    left, right = _join_tables()
    plain = left.project(["id", "name", "score"])
    rng = random.Random(9)
    index_pairs = [([], []), ([0, 1, 1, 2], [1, 0, 2, 0]),
                   ([5, 4, 3, 2, 1, 0], [3, 3, 3, 0, 1, 2])]
    for _ in range(20):
        size = rng.randint(0, 12)
        index_pairs.append(([rng.randrange(left.num_rows)
                             for _ in range(size)],
                            [rng.randrange(right.num_rows)
                             for _ in range(size)]))
    shapes = [(left, "id", "id"), (left, "name", "name"),
              (plain, "id", "id"), (plain, "name", "id"),
              (left, "score", "flag")]
    for base, left_on, right_on in shapes:
        renames = ops.join_renames(base.column_names, right.column_names,
                                   left_on, right_on)
        merged = right_on if right_on == left_on else None
        for left_indices, right_indices in index_pairs:
            bulk = colexec._assemble_join(base, right, left_indices,
                                          right_indices, renames, merged)
            reference = reference_join_assembly(
                base, right, left_indices, right_indices, right_on, left_on)
            assert_same_table(bulk, reference, same_pool=False)


def test_join_assembly_renames_and_clashes_keep_the_old_schema():
    left, right = _join_tables()
    # "name" -> "name_right" clashes with the left column of that name:
    # the right column replaces it (re-appended after the columns before
    # it) and the keys are dropped, as with_column's project did.
    renames = ops.join_renames(left.column_names, right.column_names,
                               "id", "id")
    joined = colexec._assemble_join(left, right, [0, 1], [1, 0], renames,
                                    "id")
    assert joined.column_names == ["id", "name", "score", "name_right",
                                   "flag", "born", "note"]
    assert joined.column("name_right") == ["A", "B"]
    assert joined.schema.foreign_keys == []
    assert joined.schema.primary_key is None
    reordered = left.project(["id", "name_right", "name"])
    renames = ops.join_renames(reordered.column_names, right.column_names,
                               "id", "id")
    joined = colexec._assemble_join(reordered, right, [0], [1], renames,
                                    "id")
    assert joined.column_names == ["id", "name", "name_right", "flag",
                                   "born", "note"]
    assert_same_table(joined, reference_join_assembly(
        reordered, right, [0], [1], "id", "id"), same_pool=False)
    # Without the clash the left schema's keys survive.
    plain = left.project(["id", "name", "score"])
    plain.schema.foreign_keys.append(ForeignKey("id", "right", "id"))
    plain.schema.primary_key = "id"
    renames = ops.join_renames(plain.column_names, right.column_names,
                               "id", "id")
    joined = colexec._assemble_join(plain, right, [0], [1], renames, "id")
    assert joined.column_names == ["id", "name", "score", "name_right",
                                   "flag", "born", "note"]
    assert joined.schema.primary_key == "id"
    assert joined.schema.foreign_keys == [ForeignKey("id", "right", "id")]
    assert joined.schema.column("id").description == "left key"
    assert joined.schema.column("name_right").description == ""


@pytest.fixture(scope="module")
def lakes():
    return {name: load_lake(name, scale=1) for name in ("artwork", "rotowire")}


def test_workload_join_shapes_match_the_reference(lakes):
    shapes = []
    for dataset, joins in _USING_JOINS.items():
        shapes += [(dataset, left, right, key, key)
                   for left, right, key in joins]
    for dataset, joins in _CROSS_JOINS.items():
        shapes += [(dataset, *join) for join in joins]
    # Includes a `_right` rename (players / teams) and duplicate keys.
    for dataset, left_name, right_name, left_on, right_on in shapes:
        sources = lakes[dataset].sources
        left = sources[left_name].table
        right = sources[right_name].table
        reference = reference_sqlite_join(left, right, left_on, right_on)
        bulk = colexec._sqlite_join(left, right, left_on, right_on)
        assert bulk.num_rows
        assert_same_table(bulk, reference, same_pool=False)
        assert (colexec.join_tables(left, right, left_on, right_on)
                .fingerprint()
                == colexec.sqliteize(reference).fingerprint())


def test_duplicate_key_join_matches_the_reference():
    left, right = _join_tables()
    plain = right.project(["id", "name", "flag", "born"])
    for left_on, right_on in (("id", "id"), ("name", "name"),
                              ("score", "flag")):
        reference = reference_sqlite_join(left, plain, left_on, right_on)
        bulk = colexec._sqlite_join(left, plain, left_on, right_on)
        assert_same_table(bulk, reference, same_pool=False)
    assert any(math.isnan(v) for v in
               colexec._sqlite_join(left, plain, "id", "id").column("score")
               if isinstance(v, float))
