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

There is one way to build a column: :func:`build_column` packs a whole
list once, into the typed store when every non-null value has the
store's exact type, and into an :class:`ObjectColumn` of a fresh copy
otherwise.  Columns are never appended to.  Gathers
(:meth:`Column.take`) on fixed-width stores are one numpy fancy-index
over the raw buffers.
"""

from __future__ import annotations

import sys
from array import array
from datetime import date
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.datatypes import DataType


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


class ObjectColumn(Column):
    """Plain-list storage: modality cells and mixed types."""

    __slots__ = ("values",)

    def __init__(self, values: list[object]) -> None:
        super().__init__()
        self.values = values

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


class _MaskedColumn(Column):
    """Shared null-mask plumbing for the fixed-width typed columns."""

    __slots__ = ("data", "nulls")

    def __init__(self, data: array | bytearray, nulls: bytearray) -> None:
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

    def iter_values(self) -> Iterator[object]:
        for raw, null in zip(self.data, self.nulls):
            yield None if null else raw


class FloatColumn(_MaskedColumn):
    """float64 storage (``array('d')``) with a null mask."""

    __slots__ = ()

    def iter_values(self) -> Iterator[object]:
        for raw, null in zip(self.data, self.nulls):
            yield None if null else raw


class BoolColumn(_MaskedColumn):
    """1-byte bool storage with a null mask."""

    __slots__ = ()

    def iter_values(self) -> Iterator[object]:
        for raw, null in zip(self.data, self.nulls):
            yield None if null else bool(raw)


class DateColumn(_MaskedColumn):
    """``datetime.date`` storage as proleptic-Gregorian ordinals."""

    __slots__ = ()

    def iter_values(self) -> Iterator[object]:
        fromordinal = date.fromordinal
        for raw, null in zip(self.data, self.nulls):
            yield None if null else fromordinal(raw)


class StringColumn(Column):
    """Dictionary-encoded interned strings: codes into a shared pool."""

    __slots__ = ("codes", "pool", "_index")

    def __init__(self, codes: array, pool: list[str]) -> None:
        super().__init__()
        self.codes = codes
        self.pool = pool
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
    for object storage: a modality dtype, any value whose type is not
    exactly the store's (bool in ints, datetime in dates, ``str``
    subclasses, mixes), or an int past int64."""
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
