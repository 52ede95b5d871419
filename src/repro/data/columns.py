"""Typed columnar storage backing :class:`repro.data.table.Table`.

A :class:`Column` stores one table column.  Typed implementations pack
values into compact buffers — ``array('q')`` for int64, ``array('d')``
for float64, a ``bytearray`` for bools, date ordinals for dates, and
dictionary-encoded interned strings — with a parallel null mask, so a
million-row column costs megabytes instead of a Python object per cell.
:class:`ObjectColumn` is the fallback for modality columns (IMAGE/TEXT)
and for any value stream the typed stores cannot represent exactly.

Exactness is the contract: a typed column only accepts a value when the
round trip back to Python reproduces an **identical** object ``repr`` —
``type(v) is int`` (bools excluded), ``type(v) is float``, ``type(v) is
str``, ``type(v) is date`` (datetimes excluded).  Anything else promotes
the column to object storage.  That strictness is what keeps
``Table.fingerprint()`` (a digest over cell ``repr``\\ s) byte-identical
with the historical row store, so pre-columnar plan/answer caches and
cachenet payloads keep their keys.

Two construction paths share that rule.  :class:`ColumnBuilder` appends
one value at a time (streaming ingestion, generators);
:func:`build_column` packs a whole list in one typed pass when every
non-null value has the store's exact type, and hands anything else to
the builder.  Gathers (:meth:`Column.take`) on fixed-width stores are
one numpy fancy-index over the raw buffers.

The store mode is process-global: ``columnar`` (default) packs typed
columns, ``row`` forces plain-list storage everywhere.  The ``row`` mode
exists so benchmarks can measure the row-store baseline
(``REPRO_TABLE_STORE=row`` or :func:`set_table_store`).
"""

from __future__ import annotations

import os
import sys
from array import array
from datetime import date
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.datatypes import DataType

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

_STORE_MODES = ("columnar", "row")

_store_mode = os.environ.get("REPRO_TABLE_STORE", "columnar")
if _store_mode not in _STORE_MODES:  # pragma: no cover - env misuse
    _store_mode = "columnar"


def table_store() -> str:
    """The active store mode: ``"columnar"`` or ``"row"``."""
    return _store_mode


def set_table_store(mode: str) -> str:
    """Set the store mode; returns the previous mode (for restoring)."""
    global _store_mode
    if mode not in _STORE_MODES:
        raise ValueError(f"unknown table store {mode!r}; "
                         f"expected one of {_STORE_MODES}")
    previous = _store_mode
    _store_mode = mode
    return previous


def _gather(buffer: array | bytearray, idx: np.ndarray) -> array | bytearray:
    """A fixed-width *buffer* (typed ``array`` or byte mask) at positions
    *idx*, gathered in one numpy pass."""
    if isinstance(buffer, bytearray):
        return bytearray(np.frombuffer(buffer, dtype=np.uint8)[idx].tobytes())
    out = array(buffer.typecode)
    out.frombytes(np.frombuffer(buffer, dtype=buffer.typecode)[idx].tobytes())
    return out


class Column:
    """One stored table column.  Immutable once handed to a ``Table``."""

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: list[object] | None = None

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def iter_values(self) -> Iterator[object]:  # pragma: no cover - abstract
        """Yield Python values (``None`` for nulls) without caching."""
        raise NotImplementedError

    def take(self, indices: Sequence[int]) -> "Column":  # pragma: no cover
        raise NotImplementedError

    def materialize(self) -> list[object]:
        """The column as a Python list (memoized; callers must not mutate)."""
        if self._cache is None:
            self._cache = list(self.iter_values())
        return self._cache

    def get(self, index: int) -> object:
        return self.materialize()[index]

    # Building hook: append *value* if this storage can represent it
    # exactly; return False (leaving the column unchanged) otherwise.
    def _append(self, value: object) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class ObjectColumn(Column):
    """Plain-list storage: modality cells, mixed types, the row store."""

    __slots__ = ("values",)

    def __init__(self, values: list[object] | None = None) -> None:
        super().__init__()
        self.values: list[object] = values if values is not None else []

    def __len__(self) -> int:
        return len(self.values)

    def iter_values(self) -> Iterator[object]:
        return iter(self.values)

    def materialize(self) -> list[object]:
        return self.values

    def get(self, index: int) -> object:
        return self.values[index]

    def take(self, indices: Sequence[int]) -> "ObjectColumn":
        values = self.values
        return ObjectColumn([values[i] for i in indices])

    def _append(self, value: object) -> bool:
        self.values.append(value)
        return True


class _MaskedColumn(Column):
    """Shared null-mask plumbing for the fixed-width typed columns."""

    __slots__ = ("data", "nulls")

    def __init__(self, data, nulls: bytearray) -> None:
        super().__init__()
        self.data = data
        self.nulls = nulls

    def __len__(self) -> int:
        return len(self.data)

    def take(self, indices: Sequence[int]) -> "Column":
        idx = np.asarray(indices, dtype=np.intp)
        return type(self)(_gather(self.data, idx), _gather(self.nulls, idx))


class IntColumn(_MaskedColumn):
    """int64 storage (``array('q')``) with a null mask."""

    __slots__ = ()

    def __init__(self, data: array | None = None,
                 nulls: bytearray | None = None) -> None:
        super().__init__(data if data is not None else array("q"),
                         nulls if nulls is not None else bytearray())

    def iter_values(self) -> Iterator[object]:
        for raw, null in zip(self.data, self.nulls):
            yield None if null else raw

    def _append(self, value: object) -> bool:
        if value is None:
            self.data.append(0)
            self.nulls.append(1)
            return True
        if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
            self.data.append(value)
            self.nulls.append(0)
            return True
        return False


class FloatColumn(_MaskedColumn):
    """float64 storage (``array('d')``) with a null mask."""

    __slots__ = ()

    def __init__(self, data: array | None = None,
                 nulls: bytearray | None = None) -> None:
        super().__init__(data if data is not None else array("d"),
                         nulls if nulls is not None else bytearray())

    def iter_values(self) -> Iterator[object]:
        for raw, null in zip(self.data, self.nulls):
            yield None if null else raw

    def _append(self, value: object) -> bool:
        if value is None:
            self.data.append(0.0)
            self.nulls.append(1)
            return True
        if type(value) is float:
            self.data.append(value)
            self.nulls.append(0)
            return True
        return False


class BoolColumn(_MaskedColumn):
    """1-byte bool storage with a null mask."""

    __slots__ = ()

    def __init__(self, data: bytearray | None = None,
                 nulls: bytearray | None = None) -> None:
        super().__init__(data if data is not None else bytearray(),
                         nulls if nulls is not None else bytearray())

    def iter_values(self) -> Iterator[object]:
        for raw, null in zip(self.data, self.nulls):
            yield None if null else bool(raw)

    def _append(self, value: object) -> bool:
        if value is None:
            self.data.append(0)
            self.nulls.append(1)
            return True
        if type(value) is bool:
            self.data.append(1 if value else 0)
            self.nulls.append(0)
            return True
        return False


class DateColumn(_MaskedColumn):
    """``datetime.date`` storage as proleptic-Gregorian ordinals."""

    __slots__ = ()

    def __init__(self, data: array | None = None,
                 nulls: bytearray | None = None) -> None:
        super().__init__(data if data is not None else array("q"),
                         nulls if nulls is not None else bytearray())

    def iter_values(self) -> Iterator[object]:
        fromordinal = date.fromordinal
        for raw, null in zip(self.data, self.nulls):
            yield None if null else fromordinal(raw)

    def _append(self, value: object) -> bool:
        if value is None:
            self.data.append(0)
            self.nulls.append(1)
            return True
        # datetime is a date subclass with a different repr; exclude it.
        if type(value) is date:
            self.data.append(value.toordinal())
            self.nulls.append(0)
            return True
        return False


class StringColumn(Column):
    """Dictionary-encoded interned strings: codes into a shared pool."""

    __slots__ = ("codes", "pool", "_index")

    def __init__(self, codes: array | None = None,
                 pool: list[str] | None = None) -> None:
        super().__init__()
        self.codes: array = codes if codes is not None else array("i")
        self.pool: list[str] = pool if pool is not None else []
        self._index: dict[str, int] | None = None

    def __len__(self) -> int:
        return len(self.codes)

    def iter_values(self) -> Iterator[object]:
        pool = self.pool
        for code in self.codes:
            yield None if code < 0 else pool[code]

    def take(self, indices: Sequence[int]) -> "StringColumn":
        # The pool is shared with the source column (both are immutable
        # by convention), so a take is just a code gather.
        return StringColumn(
            _gather(self.codes, np.asarray(indices, dtype=np.intp)),
            self.pool)

    def code_of(self, text: str) -> int | None:
        """The dictionary code for *text*, or ``None`` when absent."""
        if self._index is None:
            self._index = {t: i for i, t in enumerate(self.pool)}
        return self._index.get(text)

    def _append(self, value: object) -> bool:
        if value is None:
            self.codes.append(-1)
            return True
        if type(value) is not str:
            return False
        if self._index is None:
            self._index = {text: i for i, text in enumerate(self.pool)}
        code = self._index.get(value)
        if code is None:
            code = len(self.pool)
            value = sys.intern(value)
            self.pool.append(value)
            self._index[value] = code
        self.codes.append(code)
        return True


_TYPED_STORES = {
    DataType.INTEGER: IntColumn,
    DataType.FLOAT: FloatColumn,
    DataType.BOOLEAN: BoolColumn,
    DataType.DATE: DateColumn,
    DataType.STRING: StringColumn,
}


class ColumnBuilder:
    """Streaming one-pass column construction with promote-on-mismatch.

    Appends feed the typed store chosen for *dtype*; the first value the
    typed store cannot represent exactly converts everything accumulated
    so far into an :class:`ObjectColumn` and object storage takes over.
    Generators can therefore feed a builder without a second pass —
    the basis of streaming lake ingestion.
    """

    __slots__ = ("_column",)

    def __init__(self, dtype: DataType) -> None:
        store = None
        if _store_mode == "columnar" and not dtype.is_modality:
            store = _TYPED_STORES.get(dtype)
        self._column: Column = store() if store is not None else ObjectColumn()

    def append(self, value: object) -> None:
        if not self._column._append(value):
            self._column = ObjectColumn(list(self._column.iter_values()))
            self._column.values.append(value)

    def extend(self, values: Iterable[object]) -> None:
        append = self.append
        for value in values:
            append(value)

    def finish(self) -> Column:
        column = self._column
        self._column = ObjectColumn()
        return column


#: The one Python type each typed store accepts (``type(v) is T``).
_EXACT_TYPES = {
    DataType.INTEGER: int,
    DataType.FLOAT: float,
    DataType.BOOLEAN: bool,
    DataType.DATE: date,
    DataType.STRING: str,
}
_NONE_TYPE = type(None)


def _pack(values: list[object], dtype: DataType) -> Column | None:
    """*values* packed into *dtype*'s typed store in bulk, or ``None``
    when the per-value builder must decide: a modality dtype, any value
    whose type is not exactly the store's (bool in ints, datetime in
    dates, ``str`` subclasses, mixes), or an int past int64.  Whatever
    this returns equals what :class:`ColumnBuilder` builds from the same
    list — class, values and string pool order."""
    exact = _EXACT_TYPES.get(dtype)
    if exact is None:
        return None
    kinds = set(map(type, values))
    nullable = _NONE_TYPE in kinds
    kinds.discard(_NONE_TYPE)
    if not kinds <= {exact}:
        return None
    if exact is str:
        # First-occurrence pool order, exactly as appends would grow it.
        pool = [sys.intern(text) for text in dict.fromkeys(values)
                if text is not None]
        lookup: dict[object, int] = {text: code
                                     for code, text in enumerate(pool)}
        lookup[None] = -1
        return StringColumn(array("i", map(lookup.__getitem__, values)),
                            pool)
    nulls = (bytearray([value is None for value in values]) if nullable
             else bytearray(len(values)))
    if exact is bool:
        return BoolColumn(bytearray(map(bool, values)), nulls)
    if exact is date:
        return DateColumn(array("q", [0 if value is None
                                      else value.toordinal()
                                      for value in values]), nulls)
    if nullable:
        fill = 0.0 if exact is float else 0
        values = [fill if value is None else value for value in values]
    if exact is float:
        return FloatColumn(array("d", values), nulls)
    try:
        return IntColumn(array("q", values), nulls)
    except OverflowError:
        return None  # past int64: the builder promotes to object storage


def build_column(values: Iterable[object], dtype: DataType) -> Column:
    """Pack *values* into the best storage for *dtype*.

    A list packs in bulk when it can (:func:`_pack`: one type scan, one
    typed-buffer construction); everything else — other iterables, the
    row store, lists the typed store cannot represent exactly — streams
    through :class:`ColumnBuilder`, which builds the same column.
    """
    if isinstance(values, Column):
        return values
    if isinstance(values, list) and _store_mode == "columnar":
        packed = _pack(values, dtype)
        if packed is not None:
            return packed
    builder = ColumnBuilder(dtype)
    builder.extend(values)
    return builder.finish()


def concat_columns(first: Column, second: Column,
                   dtype: DataType) -> Column:
    """*second* appended to *first* (neither input is modified)."""
    if type(first) is type(second):
        if isinstance(first, _MaskedColumn):
            return type(first)(first.data[:] + second.data,
                               first.nulls + second.nulls)
        if isinstance(first, StringColumn) and first.pool is second.pool:
            return StringColumn(first.codes[:] + second.codes, first.pool)
        if isinstance(first, ObjectColumn):
            return ObjectColumn(first.values + second.values)
    builder = ColumnBuilder(dtype)
    builder.extend(first.iter_values())
    builder.extend(second.iter_values())
    return builder.finish()
