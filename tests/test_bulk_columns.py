"""Bulk column construction is the per-value builder, only faster.

``build_column`` packs a whole list in one typed pass, ``infer_column_type``
decides from the distinct exact value types, ``Column.take`` gathers with
numpy, and colexec assembles a join from per-column gathers.  Each is
checked here against a value-at-a-time reference — a per-value column
builder, the per-value ``infer_type`` loop, per-index gathers, and the
``with_column`` join assembly, kept in this file — over seeded
generated inputs.
"""

from __future__ import annotations

import math
import random
from datetime import date, datetime

import numpy as np
import pytest

from repro.data.columns import (BoolColumn, Column, DateColumn, FloatColumn,
                                ImageColumn, IntColumn, ObjectColumn,
                                PooledColumn, StringColumn, TextColumn,
                                build_column)
from repro.data.datatypes import DataType, infer_column_type, infer_type
from repro.data.schema import ColumnSpec, ForeignKey, Schema
from repro.data.table import Table
from repro.datasets import load_lake
from repro.errors import TypeMismatchError
from repro.relational import colexec
from repro.relational.sqlexec import (_adapt_cell, _infer_sql_dtype,
                                      build_join_sql, join_renames, run_sql)
from repro.testing.fuzz import _CROSS_JOINS, _USING_JOINS

DT = DataType
INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1


class Text(str):
    """A ``str`` subclass: typed string stores must refuse it."""


# ----------------------------------------------------------------------
# References: the implementations the bulk paths replaced
# ----------------------------------------------------------------------


#: The numpy dtype of each fixed-width store's ``data`` array.
_STORE_DTYPES = {IntColumn: np.int64, FloatColumn: np.float64,
                 BoolColumn: np.bool_, DateColumn: np.int64}

#: Each typed store and the one Python type it accepts exactly.
_TYPED_STORES = {DT.INTEGER: (IntColumn, int), DT.FLOAT: (FloatColumn, float),
                 DT.BOOLEAN: (BoolColumn, bool), DT.DATE: (DateColumn, date),
                 DT.STRING: (StringColumn, str), DT.TEXT: (TextColumn, str)}


def _fits(value, exact: type) -> bool:
    return type(value) is exact and (exact is not int
                                     or INT64_MIN <= value <= INT64_MAX)


def reference_column(values, dtype: DataType) -> Column:
    """One value at a time: the typed store while every value fits it
    exactly, else object storage of the same values."""
    values = list(values)
    if dtype is DT.IMAGE:
        # Any objects, pooled by identity.
        pool: list[object] = []
        codes = np.zeros(len(values), dtype=np.int32)
        for i, value in enumerate(values):
            if value is not None and not any(seen is value for seen in pool):
                pool.append(value)
            codes[i] = -1 if value is None else next(
                code for code, seen in enumerate(pool) if seen is value)
        return ImageColumn(codes, pool)
    store, exact = _TYPED_STORES.get(dtype, (ObjectColumn, None))
    if exact is None or not all(value is None or _fits(value, exact)
                                for value in values):
        return ObjectColumn(values)
    if store in (StringColumn, TextColumn):
        pool = []
        codes = np.zeros(len(values), dtype=np.int32)
        for i, value in enumerate(values):
            if value is not None and value not in pool:
                pool.append(value)
            codes[i] = -1 if value is None else pool.index(value)
        return store(codes, pool)
    data = np.zeros(len(values), dtype=_STORE_DTYPES[store])
    nulls = np.zeros(len(values), dtype=bool)
    for i, value in enumerate(values):
        if value is None:
            nulls[i] = True
        else:
            data[i] = value.toordinal() if store is DateColumn else value
    return store(data, nulls)


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
    if isinstance(column, PooledColumn):
        return type(column)(np.array([column.codes[i] for i in indices],
                                     dtype=np.int32), column.pool)
    nulls = np.array([column.nulls[i] for i in indices], dtype=bool)
    return type(column)(np.array([column.data[i] for i in indices],
                                 dtype=_STORE_DTYPES[type(column)]), nulls)


def reference_join_assembly(left: Table, right: Table,
                            left_indices, right_indices,
                            right_on: str, left_on: str) -> Table:
    """The ``with_column`` chain that assembled colexec joins."""
    renames = join_renames(left.column_names, right.column_names,
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


def sql_cells(table: Table, name: str) -> list[object]:
    """A column as the sqlite bridge binds it (bool -> int, date -> ISO)."""
    return [_adapt_cell(value) for value in table.column(name)]


def index_sort_key(value: object) -> tuple[int, object]:
    """sqlite's BINARY index order over bound cells: NULL < numeric < text."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, value)


def reference_sqlite_join(left: Table, right: Table,
                          left_on: str, right_on: str) -> Table:
    """An equi-join in sqlite's row order over bound cells, its columns
    appended one ``with_column`` at a time."""
    left_keys = sql_cells(left, left_on)
    right_keys = sql_cells(right, right_on)
    order_columns = [sql_cells(right, name)
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
            rows.sort(key=lambda j: tuple(index_sort_key(values[j])
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
    (a superset of the values it still holds), so joins compare values.
    Typed buffers always have the store's numpy dtype."""
    assert type(bulk) is type(reference)
    assert len(bulk) == len(reference)
    assert cells(bulk) == cells(reference)
    if isinstance(reference, PooledColumn):
        assert bulk.codes.dtype == np.int32
        if same_pool:
            assert bulk.pool == reference.pool
            assert bulk.codes.tobytes() == reference.codes.tobytes()
    elif not isinstance(reference, ObjectColumn):
        assert bulk.data.dtype == _STORE_DTYPES[type(reference)]
        assert bulk.nulls.dtype == np.bool_
        assert bulk.data.tobytes() == reference.data.tobytes()
        assert bulk.nulls.tobytes() == reference.nulls.tobytes()


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
    DT.TEXT: ["", "a longer report.", Text("sub"), 3],
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


class CountingPool(list):
    """A string pool that counts full scans of itself."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_a_string_column_and_its_takes_share_one_pool_memo():
    pool = CountingPool(["b", "a", "c"])
    column = StringColumn(np.array([0, 1, -1, 0, 2], dtype=np.int32), pool)
    taken = column.take([4, 0, 2])
    twice = taken.take([1, 1])
    assert [column.code_of("a"), taken.code_of("c"), twice.code_of("b"),
            twice.code_of("zz")] == [1, 2, 0, None]
    assert pool.scans == 1          # one code index, built once
    order = column.pool_order()     # one Python order, built once
    assert taken.pool_order() is twice.pool_order() is order
    texts, ranks = order
    assert texts == ["a", "b", "c"] and ranks.tolist() == [1, 0, 2]
    assert cells(twice) == [(str, "'b'"), (str, "'b'")]


@pytest.mark.parametrize("dtype, value", [(DT.INTEGER, 7), (DT.STRING, "v")])
def test_sample_values_decodes_a_prefix_of_a_long_column(monkeypatch,
                                                         dtype, value):
    values = [None, value, None] * 20 + [value] * 9_940
    values[10], values[20] = value * 2, value * 3
    table = Table(Schema([ColumnSpec("c", dtype)]), {"c": values})
    store = type(table.storage("c"))
    decoded = []
    decode = store._decode

    def spy(self, start, stop):
        decoded.append((start, stop))
        return decode(self, start, stop)

    monkeypatch.setattr(store, "_decode", spy)
    assert table.sample_values("c") == [value, value * 2, value * 3]
    # The third distinct value is row 20: at most 64 rows get decoded.
    assert decoded[0][0] == 0
    assert sum(stop - start for start, stop in decoded) <= 64
    # A full read still decodes every row, once.
    assert table.column("c") == values


def test_take_sql_column_keeps_the_bridge_dtype_rule():
    rng = random.Random(3)
    for dtype in (DT.INTEGER, DT.FLOAT, DT.STRING, DT.BOOLEAN, DT.DATE):
        for values in value_lists(dtype, seed=5, count=20):
            storage = build_column(list(values), dtype)
            if isinstance(storage, ObjectColumn):
                # No typed kernel: colexec declines, and the bridge
                # answers what sqlite can bind (no int past int64).
                with pytest.raises(colexec.UnsupportedSQL):
                    colexec._take_sql_column(storage, None)
                if all(_fits(v, int) for v in values if type(v) is int):
                    table = Table(Schema([ColumnSpec("c", dtype)]),
                                  {"c": storage})
                    assert run_sql("SELECT c FROM t",
                                   {"t": table}).num_rows == len(values)
                continue
            for indices in [None, *_index_sets(len(values), rng)]:
                column, result_dtype = colexec._take_sql_column(storage,
                                                                indices)
                expected = [_adapt_cell(v) for v in (
                    values if indices is None
                    else [values[i] for i in indices])]
                assert result_dtype == _infer_sql_dtype(expected)
                if dtype is DT.FLOAT:  # sqlite hands -0.0 back as 0.0
                    expected = [None if v is None else v + 0.0
                                for v in expected]
                assert cells(column) == cells(build_column(expected,
                                                           result_dtype))


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
        renames = join_renames(base.column_names, right.column_names,
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
    renames = join_renames(left.column_names, right.column_names,
                           "id", "id")
    joined = colexec._assemble_join(left, right, [0, 1], [1, 0], renames,
                                    "id")
    assert joined.column_names == ["id", "name", "score", "name_right",
                                   "flag", "born", "note"]
    assert joined.column("name_right") == ["A", "B"]
    assert joined.schema.foreign_keys == []
    assert joined.schema.primary_key is None
    reordered = left.project(["id", "name_right", "name"])
    renames = join_renames(reordered.column_names, right.column_names,
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
    renames = join_renames(plain.column_names, right.column_names,
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
        sql = build_join_sql(left_name, right_name, left_on, right_on,
                             left.column_names, right.column_names)
        tables = {left_name: left, right_name: right}
        assert (colexec.execute(sql, tables).fingerprint()
                == run_sql(sql, tables).fingerprint())


def test_duplicate_key_join_matches_the_reference():
    left, right = _join_tables()
    typed = right.project(["id", "name", "born"])
    for left_on, right_on in (("id", "id"), ("name", "name")):
        reference = reference_sqlite_join(left, typed, left_on, right_on)
        bulk = colexec._sqlite_join(left, typed, left_on, right_on)
        assert_same_table(bulk, reference, same_pool=False)
    assert any(math.isnan(v) for v in
               colexec._sqlite_join(left, typed, "id", "id").column("score")
               if isinstance(v, float))


def test_joins_over_an_object_stored_column_decline():
    # "flag" mixes a bool into ints, so it is object-stored: it can order
    # no duplicate-key matches and key no join.  The bridge answers both.
    left, right = _join_tables()
    plain = right.project(["id", "name", "flag", "born"])
    assert isinstance(plain.storage("flag"), ObjectColumn)
    for left_on, right_on in (("id", "id"), ("score", "flag")):
        with pytest.raises(colexec.UnsupportedSQL):
            colexec._sqlite_join(left, plain, left_on, right_on)
        sql = build_join_sql("l", "r", left_on, right_on,
                             left.column_names, plain.column_names)
        assert run_sql(sql, {"l": left, "r": plain}).num_rows


def test_join_operator_clashing_rename_matches_sqlite_on_both_engines():
    # The left table already has "name_right", so the right "name" column
    # renamed by join_renames clashes with it; sqlite then suffixes the
    # second one "_2".  colexec declines the statement (duplicate output
    # names) instead of answering with a differently shaped table.
    from repro.obs.trace import QueryTelemetry
    from repro.operators.base import ExecutionContext
    from repro.operators.join import JoinOperator
    left, right = _join_tables()
    tables = {"l": left, "r": right.project(["id", "name", "flag", "born"])}
    answers = {}
    for engine in ("columnar", "sqlite"):
        telemetry = QueryTelemetry()
        context = ExecutionContext(tables=dict(tables), telemetry=telemetry,
                                   relational_engine=engine)
        answers[engine] = JoinOperator().run(context, ["l", "r", "id", "id"])
        assert "sql_engine_columnar" not in telemetry.counters
    columnar, bridged = answers["columnar"].table, answers["sqlite"].table
    assert columnar.column_names == bridged.column_names
    assert "name_right_2" in columnar.column_names
    assert columnar.fingerprint() == bridged.fingerprint()
