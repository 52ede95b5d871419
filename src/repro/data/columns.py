"""Typed columnar storage backing :class:`repro.data.table.Table`.

A :class:`Column` stores one table column.  Typed implementations hold
numpy arrays — int64 for ints, float64 for floats, bool for bools,
int64 proleptic-Gregorian ordinals for dates, each with a parallel bool
null mask (a null cell holds 0 / ``False``), and int32 dictionary codes
(``-1`` for null) into a list of interned strings — so a million-row
column costs megabytes instead of a Python object per cell, and
:mod:`repro.relational.colexec`'s kernels read the arrays as they are.
IMAGE and TEXT columns are pooled the same way: int32 codes into a pool
of images (pooled by object identity) or of documents (pooled by value).
:class:`ObjectColumn` is the fallback for any value stream those stores
cannot represent exactly.

Exactness is the contract: a typed column only accepts a value when the
round trip back to Python reproduces an **identical** object ``repr`` —
``type(v) is int`` (bools excluded), ``type(v) is float``, ``type(v) is
str``, ``type(v) is date`` (datetimes excluded).  Anything else promotes
the column to object storage.  That strictness is what keeps
``Table.fingerprint()`` (a digest over cell ``repr``\\ s) byte-identical
with the historical row store, so pre-columnar plan/answer caches and
cachenet payloads keep their keys.

There is one way to build a column: :func:`build_column` packs a whole
list once, into the typed store when every non-null value has the
store's exact type, and into an :class:`ObjectColumn` of a fresh copy
otherwise.  Columns are never appended to.  There is one way to read
one: each store family (fixed-width, date, string) decodes a row range
with ``tolist()`` in :meth:`Column._decode`, which both the lazy
:meth:`Column.iter_values` and the memoized :meth:`Column.materialize`
call.  :meth:`Column.take` is one numpy fancy-index; a pooled column (string,
image, text) and every take of it share the pool and one
:class:`~repro.data.memo.Memo` of what is derived from it (the code
index, the string pool's Python order; a modality step's answers,
:mod:`repro.operators.modality`).  The memo is not pickled: an
unpickled column derives it again.
"""

from __future__ import annotations

import sys
from datetime import date
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.datatypes import DataType
from repro.data.memo import Memo

#: Rows :meth:`Column.iter_values` decodes first; each later chunk is
#: twice the one before.  A caller that stops early — sample values for
#: a prompt — pays for one small chunk, a full scan for a few.  A column
#: no longer than one chunk is decoded whole and kept.
DECODE_CHUNK = 8

#: Values :meth:`Column.distinct` scans one by one before it searches a
#: typed or pooled store's numpy keys whole: a column whose first values
#: are distinct enough stops early, and below this numpy's per-call cost
#: is more than the scan.
DISTINCT_SCAN = 64

#: Up to this many distinct values, a whole-store search finds each next
#: one with a masked pass over the keys (one ``argmax``); past it, one
#: stable ``np.unique`` costs less than that many passes.
DISTINCT_PASSES = 8


class Column:
    """One stored table column.  Immutable once handed to a ``Table``."""

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: list[object] | None = None

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _decode(self, start: int, stop: int) -> list[object]:
        """Python values (``None`` for nulls) of rows *start*..*stop*."""
        raise NotImplementedError  # pragma: no cover - abstract

    def take(self, indices: Sequence[int]) -> "Column":  # pragma: no cover
        raise NotImplementedError

    def iter_values(self) -> Iterator[object]:
        """An iterator over the Python values (``None`` for nulls) that
        decodes chunk by chunk; a column no longer than the first chunk
        is decoded once and kept."""
        if self._cache is not None or len(self) <= DECODE_CHUNK:
            return iter(self.materialize())
        return chain.from_iterable(self._chunks())

    def _chunks(self) -> Iterator[list[object]]:
        start, step = 0, DECODE_CHUNK
        while start < len(self):
            yield self._decode(start, start + step)
            start += step
            step *= 2

    def materialize(self) -> list[object]:
        """The column as a Python list (memoized; callers must not mutate)."""
        if self._cache is None:
            self._cache = self._decode(0, len(self))
        return self._cache

    def get(self, index: int) -> object:
        return self.materialize()[index]

    def _distinct_keys(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(keys, valid)``: per-row numpy keys that are equal where the
        values are, and which rows hold a value (not NULL or NaN); ``None``
        when the store has none."""
        return None

    def distinct(self, limit: int) -> list[object]:
        """The first *limit* distinct non-null values, in row order.

        NaN is skipped: NaN != NaN would pass the dedup every time, and
        sqlite binds it as NULL anyway.  The first :data:`DISTINCT_SCAN`
        values are scanned as they decode; past them, a store with numpy
        keys is searched whole (:func:`_first_rows`).
        """
        seen: list[object] = []
        for scanned, value in enumerate(self.iter_values()):
            if scanned == DISTINCT_SCAN:
                keys = self._distinct_keys()
                if keys is not None:
                    return self._values_at(_first_rows(*keys, limit))
            if value is not None and value == value and value not in seen:
                seen.append(value)
                if len(seen) >= limit:
                    break
        return seen

    def _values_at(self, rows: np.ndarray) -> list[object]:
        return self.take(rows)._decode(0, len(rows))


class ObjectColumn(Column):
    """Plain-list storage: modality cells and mixed types."""

    __slots__ = ("values",)

    def __init__(self, values: list[object]) -> None:
        super().__init__()
        # The list is already the materialized form.
        self.values = self._cache = values

    def __len__(self) -> int:
        return len(self.values)

    def take(self, indices: Sequence[int]) -> "ObjectColumn":
        values = self.values
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()
        return ObjectColumn([values[i] for i in indices])


class _MaskedColumn(Column):
    """A fixed-width numpy ``data`` array with a bool ``nulls`` mask.
    Pickling keeps the arrays and drops the decoded list."""

    __slots__ = ("data", "nulls")

    def __init__(self, data: np.ndarray, nulls: np.ndarray) -> None:
        super().__init__()
        self.data = data
        self.nulls = nulls

    def __len__(self) -> int:
        return len(self.data)

    def _decode(self, start: int, stop: int) -> list[object]:
        values = self.data[start:stop].tolist()
        nulls = self.nulls[start:stop]
        if not np.count_nonzero(nulls):
            return values
        return [None if null else value
                for value, null in zip(values, nulls.tolist())]

    def take(self, indices: Sequence[int]) -> "Column":
        idx = np.asarray(indices, dtype=np.intp)
        return type(self)(self.data[idx], self.nulls[idx])

    def _distinct_keys(self) -> tuple[np.ndarray, np.ndarray]:
        valid = ~self.nulls
        if self.data.dtype.kind == "f":
            # -0.0 == 0.0 in numpy as in Python; the first is kept.
            valid &= ~np.isnan(self.data)
        return self.data, valid

    def __reduce__(self) -> tuple:
        return type(self), (self.data, self.nulls)


class IntColumn(_MaskedColumn):
    """int64 storage with a null mask."""

    __slots__ = ()


class FloatColumn(_MaskedColumn):
    """float64 storage with a null mask, and whether any cell is NaN:
    worked out once per store, known without looking for a take of a
    NaN-free store, and not pickled."""

    __slots__ = ("_nan",)

    def __init__(self, data: np.ndarray, nulls: np.ndarray,
                 nan: bool | None = None) -> None:
        super().__init__(data, nulls)
        self._nan = nan

    def has_nan(self) -> bool:
        """Whether any cell holds NaN (a NULL cell holds 0.0)."""
        if self._nan is None:
            self._nan = bool(np.isnan(self.data).any())
        return self._nan

    def take(self, indices: Sequence[int]) -> "FloatColumn":
        idx = np.asarray(indices, dtype=np.intp)
        return FloatColumn(self.data[idx], self.nulls[idx],
                           False if self._nan is False else None)


class BoolColumn(_MaskedColumn):
    """bool storage with a null mask."""

    __slots__ = ()


class DateColumn(_MaskedColumn):
    """``datetime.date`` storage as int64 proleptic-Gregorian ordinals."""

    __slots__ = ()

    def _decode(self, start: int, stop: int) -> list[object]:
        ordinals = self.data[start:stop].tolist()
        nulls = self.nulls[start:stop]
        fromordinal = date.fromordinal
        if not np.count_nonzero(nulls):
            return list(map(fromordinal, ordinals))
        return [None if null else fromordinal(raw)
                for raw, null in zip(ordinals, nulls.tolist())]


class PooledColumn(Column):
    """int32 codes (``-1`` for null) into a pool of values, and one
    :class:`~repro.data.memo.Memo` of what is derived from the pool.

    Every take shares the pool and the memo: the pool is immutable by
    convention, so a value derived from it serves every intermediate
    table gathered from the column.  Pickling keeps the codes, the pool
    and an empty memo (shared by takes pickled together).
    """

    __slots__ = ("codes", "pool", "memo")

    def __init__(self, codes: np.ndarray, pool: list,
                 memo: Memo | None = None) -> None:
        super().__init__()
        self.codes = codes
        self.pool = pool
        self.memo = Memo("pool") if memo is None else memo

    def __len__(self) -> int:
        return len(self.codes)

    def _decode(self, start: int, stop: int) -> list[object]:
        pool = self.pool
        return [None if code < 0 else pool[code]
                for code in self.codes[start:stop].tolist()]

    def take(self, indices: Sequence[int]) -> "PooledColumn":
        return type(self)(self.codes[np.asarray(indices, dtype=np.intp)],
                          self.pool, self.memo)

    def distinct(self, limit: int) -> list[object]:
        """The first *limit* distinct pool entries the rows hold, in row
        order: distinct codes, as a pool holds each value once (an image
        pool each object), so no two values are ever compared."""
        codes = self.codes
        rows: dict[int, int] = {}  # code -> first row
        for row, code in enumerate(codes[:DISTINCT_SCAN].tolist()):
            if code >= 0 and code not in rows:
                rows[code] = row
                if len(rows) >= limit:
                    break
        else:
            if len(codes) > DISTINCT_SCAN:
                return self._values_at(_first_rows(codes, codes >= 0, limit))
        if not rows:
            return []
        prefix = self._decode(0, max(rows.values()) + 1)
        return [prefix[row] for row in rows.values()]

    def __reduce__(self) -> tuple:
        return type(self), (self.codes, self.pool, self.memo)


class StringColumn(PooledColumn):
    """Dictionary-encoded interned strings."""

    __slots__ = ()

    def code_of(self, text: str) -> int | None:
        """The dictionary code for *text*, or ``None`` when absent."""
        return self.memo.get(
            "index", (), lambda: {t: i for i, t in enumerate(self.pool)}
        ).get(text)

    def pool_order(self) -> tuple[list[str], np.ndarray]:
        """:func:`build_pool_order` of the pool, built once for this
        column and every take of it."""
        pool = self.pool
        return self.memo.get("order", (), lambda: build_pool_order(pool))


def build_pool_order(pool: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """``(texts, ranks)``: *pool* sorted, and ``ranks[code]`` each entry's
    position in it.  Python compares strings code point by code point,
    NULs included, which is the order of sqlite's BINARY collation (UTF-8
    bytes order the way their code points do)."""
    order = sorted(range(len(pool)), key=pool.__getitem__)
    ranks = np.empty(len(pool), dtype=np.int32)
    ranks[order] = np.arange(len(pool), dtype=np.int32)
    return [pool[code] for code in order], ranks


class ImageColumn(PooledColumn):
    """An IMAGE column: codes into a pool of objects, one entry per
    distinct object (by identity), so a lazy image keeps one entry however
    many rows or takes show it."""

    __slots__ = ()


class TextColumn(PooledColumn):
    """A TEXT column of ``str`` documents: codes into a pool of distinct
    documents (by value)."""

    __slots__ = ()


def _first_rows(keys: np.ndarray, valid: np.ndarray,
                limit: int) -> np.ndarray:
    """Ascending rows of the first *limit* distinct *keys* among the
    *valid* rows.  Up to :data:`DISTINCT_PASSES` of them, each next one
    is the first valid row whose key is not yet seen (at most *limit*
    passes); more are a stable unique, which keeps each key's first
    row."""
    if limit > DISTINCT_PASSES:
        rows = np.flatnonzero(valid)
        _, first = np.unique(keys[rows], return_index=True)
        return rows[np.sort(first)[:limit]]
    unseen = valid.copy()
    found = []
    for _ in range(limit):
        row = int(unseen.argmax())
        if not unseen[row]:
            break
        found.append(row)
        unseen &= keys != keys[row]
    return np.array(found, dtype=np.intp)


#: The one Python type each typed store accepts (``type(v) is T``).
_EXACT_TYPES = {
    DataType.INTEGER: int,
    DataType.FLOAT: float,
    DataType.BOOLEAN: bool,
    DataType.DATE: date,
    DataType.STRING: str,
    DataType.TEXT: str,
}
_NONE_TYPE = type(None)


def pooled(storage: Column) -> PooledColumn:
    """*storage* as codes into a pool: itself when it is pooled, else its
    values pooled by identity afresh (with a memo that dies with it)."""
    if isinstance(storage, PooledColumn):
        return storage
    return PooledColumn(*_pool_by_identity(storage.materialize()))


def _pool_by_identity(values: list[object]) -> tuple[np.ndarray, list]:
    """*values* as codes into a pool of its distinct objects (by
    identity), in first-occurrence order."""
    pool: list[object] = []
    index: dict[int, int] = {}  # id -> code; *values* keeps every id alive
    codes = []
    for value in values:
        if value is None:
            codes.append(-1)
            continue
        code = index.setdefault(id(value), len(pool))
        if code == len(pool):
            pool.append(value)
        codes.append(code)
    return np.array(codes, dtype=np.int32), pool


def _pack(values: list[object], dtype: DataType) -> Column | None:
    """*values* packed into *dtype*'s typed store in bulk, or ``None``
    for object storage: any value whose type is not exactly the store's
    (bool in ints, datetime in dates, ``str`` subclasses or non-strings
    in TEXT, mixes), or an int past int64.  An IMAGE column always pools
    its objects."""
    if dtype is DataType.IMAGE:
        return ImageColumn(*_pool_by_identity(values))
    exact = _EXACT_TYPES.get(dtype)
    if exact is None:
        return None
    kinds = set(map(type, values))
    nullable = _NONE_TYPE in kinds
    kinds.discard(_NONE_TYPE)
    if not kinds <= {exact}:
        return None
    if exact is str:
        # The pool keeps first-occurrence order.
        text = dtype is DataType.TEXT
        pool = [value if text else sys.intern(value)
                for value in dict.fromkeys(values) if value is not None]
        lookup: dict[object, int] = {value: code
                                     for code, value in enumerate(pool)}
        lookup[None] = -1
        codes = np.fromiter(map(lookup.__getitem__, values),
                            dtype=np.int32, count=len(values))
        return TextColumn(codes, pool) if text else StringColumn(codes, pool)
    nulls = (np.array([value is None for value in values], dtype=bool)
             if nullable else np.zeros(len(values), dtype=bool))
    if exact is bool:
        return BoolColumn(np.array(values, dtype=bool), nulls)  # None→False
    if exact is date:
        return DateColumn(np.array([0 if value is None
                                    else value.toordinal()
                                    for value in values], dtype=np.int64),
                          nulls)
    if nullable:
        fill = 0.0 if exact is float else 0
        values = [fill if value is None else value for value in values]
    if exact is float:
        return FloatColumn(np.array(values, dtype=np.float64), nulls)
    try:
        return IntColumn(np.array(values, dtype=np.int64), nulls)
    except OverflowError:
        return None  # past int64


def build_column(values: Iterable[object], dtype: DataType) -> Column:
    """Pack *values* once into the best storage for *dtype*.

    A :class:`Column` is returned as is.  Anything else is packed by
    :func:`_pack` (one type scan, one typed-buffer construction) or,
    when that declines, kept as an :class:`ObjectColumn` of a fresh
    copy, so table storage never aliases a caller's list.
    """
    if isinstance(values, Column):
        return values
    if not isinstance(values, list):
        values = list(values)
    packed = _pack(values, dtype)
    return packed if packed is not None else ObjectColumn(values.copy())
