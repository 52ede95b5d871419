"""Column-store table with relational *and* modality columns.

A :class:`Table` is an immutable-by-convention column store.  Relational
columns hold ``int/float/str/bool/date`` values (or ``None``); modality
columns (``IMAGE``, ``TEXT``) hold arbitrary Python objects such as rendered
:class:`repro.vision.image.Image` rasters or long report strings.

Storage is columnar for real: relational columns pack into the typed
stores of :mod:`repro.data.columns` — numpy int64 / float64 / bool
arrays, date ordinals, dictionary-encoded interned strings — with
plain-list object storage as the fallback for modality columns and
anything the typed stores cannot represent exactly.  The public surface
is unchanged: :meth:`column` still returns a Python list (memoized
materialization), ``to_dict``/``from_dict`` and :meth:`fingerprint` are
byte-identical with the historical row store, so old caches still load.

All relational operators in :mod:`repro.relational` and all multi-modal
operators in :mod:`repro.operators` consume and produce ``Table`` values.
Anything computed from a table's content — its fingerprint, join
indexes, generated-UDF outputs, its schema line as a prompt shows it —
is memoised in the table's
:class:`~repro.data.memo.Memo`, :attr:`Table.memo`.  A table built from
outside data is checked and packed once (:class:`Table`); one gathered
or projected from packed stores is not checked again.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.columns import Column, PooledColumn, build_column
from repro.data.datatypes import (DataType, decode_scalar, encode_scalar,
                                  infer_column_type)
from repro.data.memo import Memo
from repro.data.schema import ColumnSpec, Schema
from repro.errors import SchemaError, UnknownColumnError


class Table:
    """An ordered collection of equally-long named columns."""

    def __init__(self, schema: Schema, columns: Mapping[str, object]):
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        missing = [c.name for c in schema.columns if c.name not in columns]
        if missing:
            raise SchemaError(f"columns missing from data: {', '.join(missing)}")
        extra = [n for n in columns if n not in schema]
        if extra:
            raise SchemaError(f"data columns not in schema: {', '.join(extra)}")
        self.schema = schema
        self._columns: dict[str, Column] = {
            spec.name: build_column(columns[spec.name], spec.dtype)
            for spec in schema.columns
        }
        #: what is derived from this table's content (not pickled)
        self.memo = Memo("table")

    @classmethod
    def _packed(cls, schema: Schema, columns: dict[str, Column]) -> "Table":
        """A table over *columns*: packed, equally long stores keyed in
        *schema*'s order, as a gather or a projection of a table already
        holds them.  Nothing is checked or packed again."""
        table = cls.__new__(cls)
        table.schema = schema
        table._columns = columns
        table.memo = Memo("table")
        return table

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[object]]) -> "Table":
        """Build a table from row tuples ordered like ``schema.columns``."""
        rows = list(rows)
        width = len(schema.columns)
        for row in rows:
            # zip(*rows) would silently truncate a short row.
            if len(row) != width:
                raise SchemaError(
                    f"row has {len(row)} values, schema has {width} columns")
        columns = zip(*rows) if rows else ([] for _ in range(width))
        return cls(schema, dict(zip(schema.column_names, columns)))

    @classmethod
    def infer(cls, columns: Mapping[str, Sequence[object]],
              modality_types: Mapping[str, DataType] | None = None,
              description: str = "") -> "Table":
        """Build a table inferring relational column types from the data.

        Columns listed in *modality_types* are tagged IMAGE/TEXT instead of
        being inferred.
        """
        modality_types = dict(modality_types or {})
        specs = []
        for name, values in columns.items():
            if name in modality_types:
                specs.append(ColumnSpec(name, modality_types[name]))
            else:
                specs.append(ColumnSpec(name, infer_column_type(list(values))))
        return cls(Schema(specs, description=description), columns)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        return cls(schema, {name: [] for name in schema.column_names})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def column_names(self) -> list[str]:
        return self.schema.column_names

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def column(self, name: str) -> list[object]:
        """The values of one column (a defensive copy is *not* taken)."""
        if name not in self._columns:
            raise UnknownColumnError(name, self.column_names)
        return self._columns[name].materialize()

    def storage(self, name: str) -> Column:
        """The underlying :class:`~repro.data.columns.Column` store.

        The columnar executor reads typed buffers through this; everyone
        else should use :meth:`column`.
        """
        if name not in self._columns:
            raise UnknownColumnError(name, self.column_names)
        return self._columns[name]

    def iter_column(self, name: str) -> Iterator[object]:
        """Iterate one column's values without materializing a list."""
        if name not in self._columns:
            raise UnknownColumnError(name, self.column_names)
        return self._columns[name].iter_values()

    def dtype(self, name: str) -> DataType:
        return self.schema.dtype(name)

    def row(self, index: int) -> dict[str, object]:
        """One row as a name→value dict."""
        return {name: column.materialize()[index]
                for name, column in self._columns.items()}

    def rows(self) -> Iterator[dict[str, object]]:
        names = self.column_names
        columns = [self._columns[n].materialize() for n in names]
        for values in zip(*columns) if columns else ():
            yield dict(zip(names, values))

    def row_tuples(self) -> Iterator[tuple[object, ...]]:
        columns = [self._columns[n].materialize() for n in self.column_names]
        return iter(zip(*columns)) if columns else iter(())

    # ------------------------------------------------------------------
    # Row / column algebra (used by the relational engine and operators)
    # ------------------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "Table":
        """Rows at *indices*, in that order (may repeat / reorder)."""
        return Table._packed(self.schema, {
            name: column.take(indices)
            for name, column in self._columns.items()})

    def filter(self, mask: Sequence[bool]) -> "Table":
        if len(mask) != self.num_rows:
            raise SchemaError(
                f"mask length {len(mask)} != num_rows {self.num_rows}")
        return self.take(np.flatnonzero(np.fromiter(
            map(bool, mask), dtype=bool, count=len(mask))))

    def head(self, n: int = 5) -> "Table":
        return self.take(list(range(min(n, self.num_rows))))

    def project(self, names: Sequence[str]) -> "Table":
        specs = [self.schema.column(n) for n in names]
        schema = Schema(specs, description=self.schema.description)
        return Table._packed(schema, {n: self._columns[n] for n in names})

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        for old in mapping:
            if old not in self._columns:
                raise UnknownColumnError(old, self.column_names)
        specs = [ColumnSpec(mapping.get(c.name, c.name), c.dtype, c.description)
                 for c in self.schema.columns]
        schema = Schema(specs, description=self.schema.description)
        return Table._packed(schema, {mapping.get(n, n): v
                                      for n, v in self._columns.items()})

    def with_column(self, name: str, dtype: DataType,
                    values: Sequence[object] | Column) -> "Table":
        """A copy with one column appended (replaces an existing name).

        A packed :class:`~repro.data.columns.Column` is stored as is.
        """
        if len(values) != self.num_rows:
            raise SchemaError(
                f"new column {name!r} has {len(values)} values, "
                f"table has {self.num_rows} rows")
        if name in self._columns:
            base = self.project([c for c in self.column_names if c != name])
        else:
            base = self
        schema = base.schema.with_column(ColumnSpec(name, dtype))
        columns: dict[str, Column] = dict(base._columns)
        columns[name] = build_column(values, dtype)
        return Table._packed(schema, columns)

    # ------------------------------------------------------------------
    # Display / comparison helpers
    # ------------------------------------------------------------------

    def sample_values(self, name: str, limit: int = 3) -> list[object]:
        """Up to *limit* distinct non-null example values of a column, in
        row order.

        Used by prompt construction ("These are some relevant values...").
        NULL and NaN are skipped.  The store finds them
        (:meth:`~repro.data.columns.Column.distinct`): a typed or pooled
        store with numpy over its arrays or codes, object storage by a
        scan.  A modality value that is not already a ``str`` (an image)
        is shown as its ``repr``, and values are distinct as shown.
        Not memoised: discovery memoises its hint per lake column.
        """
        storage = self.storage(name)
        if not self.dtype(name).is_modality:
            return storage.distinct(limit)
        values = (storage.distinct(len(storage))
                  if isinstance(storage, PooledColumn)
                  else storage.iter_values())
        shown: list[object] = []
        for value in values:
            if value is None:
                continue
            display = value if isinstance(value, str) else repr(value)
            if display not in shown:
                shown.append(display)
                if len(shown) >= limit:
                    break
        return shown

    def prompt_line(self, name: str) -> str:
        """This table's schema line under *name*, as a prompt shows it
        (:meth:`~repro.data.schema.Schema.prompt_repr`); memoised."""
        return self.memo.get("prompt_line", name, lambda:
                             self.schema.prompt_repr(name, self.num_rows))

    def prompt_digest(self, name: str) -> str:
        """A digest of :meth:`prompt_line`, taken from the schema's parts
        (name, row count, columns and dtypes, description, foreign keys)
        so it is known without rendering the line.  Not memoised here: a
        lake source's is, on the lake
        (:meth:`~repro.data.catalog.DataLake.prompt_digest`)."""
        schema = self.schema
        parts = [name, str(self.num_rows), schema.description,
                 str(len(schema.columns)),
                 *(f"{c.name}:{c.dtype.value}" for c in schema.columns),
                 *(fk.prompt_repr(name) for fk in schema.foreign_keys)]
        return hashlib.sha256("\0".join(parts).encode("utf-8")
                              ).hexdigest()[:32]

    def to_display(self, max_rows: int = 10, max_width: int = 20) -> str:
        """A plain-text rendering for logs, examples, and observations."""

        def fmt(value: object) -> str:
            text = "NULL" if value is None else str(value)
            if len(text) > max_width:
                text = text[:max_width - 1] + "…"
            return text

        names = self.column_names
        shown = list(self.head(max_rows).row_tuples())
        widths = [len(n) for n in names]
        rendered = [[fmt(v) for v in row] for row in shown]
        for row in rendered:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [" | ".join(n.ljust(w) for n, w in zip(names, widths))]
        lines.append("-+-".join("-" * w for w in widths))
        for row in rendered:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.num_rows > max_rows:
            lines.append(f"... ({self.num_rows} rows total)")
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Content digest of the schema and every cell value.

        Computed lazily, then memoized — the table is immutable by
        convention (every mutation helper returns a new ``Table``), so the
        digest is stable for the object's lifetime.  IMAGE cells hash via
        :meth:`repro.vision.image.Image.fingerprint` (itself memoized);
        everything else hashes by ``repr``.  The typed column stores
        round-trip values exactly, so this digest is byte-identical with
        the historical row store — pre-columnar caches keep their keys.
        The sqlite bridge keys its registration memo on this digest, so a
        table is only copied into sqlite again when its content actually
        changed.
        """
        return self.memo.get("fingerprint", (), self._content_digest)

    def _content_digest(self) -> str:
        from repro.vision.image import Image
        digest = hashlib.sha256()
        for spec in self.schema.columns:
            digest.update(f"{spec.name}:{spec.dtype.value}\n".encode("utf-8"))
        for spec in self.schema.columns:
            values = self._columns[spec.name].iter_values()
            if spec.dtype is DataType.IMAGE:
                parts = (value.fingerprint() if isinstance(value, Image)
                         else repr(value) for value in values)
            else:
                parts = (repr(value) for value in values)
            for part in parts:
                digest.update(part.encode("utf-8"))
                digest.update(b"\x1f")
            digest.update(b"\x1e")
        return digest.hexdigest()[:24]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name}:{c.dtype.value}" for c in self.schema.columns)
        return f"Table({self.num_rows} rows, [{cols}])"

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless JSON-safe encoding (schema + per-column values).

        Relational values are encoded with
        :func:`~repro.data.datatypes.encode_scalar` (dates become tagged
        dicts); IMAGE cells holding :class:`~repro.vision.image.Image`
        objects become ``{"$image": ...}`` tagged dicts; TEXT cells are
        plain strings.
        """
        columns: dict[str, list[object]] = {}
        for spec in self.schema.columns:
            values = self._columns[spec.name].iter_values()
            if spec.dtype is DataType.IMAGE:
                columns[spec.name] = [self._encode_image(v) for v in values]
            else:
                columns[spec.name] = [encode_scalar(v) for v in values]
        return {"schema": self.schema.to_dict(), "columns": columns}

    @classmethod
    def from_dict(cls, data: dict) -> "Table":
        """Inverse of :meth:`to_dict`."""
        schema = Schema.from_dict(data["schema"])
        columns: dict[str, object] = {}
        for spec in schema.columns:
            values = data["columns"][spec.name]
            if spec.dtype is DataType.IMAGE:
                columns[spec.name] = [cls._decode_image(v) for v in values]
            else:
                columns[spec.name] = [decode_scalar(v) for v in values]
        return cls(schema, columns)

    @staticmethod
    def _encode_image(value: object) -> object:
        from repro.vision.image import Image
        if isinstance(value, Image):
            return {"$image": value.to_dict()}
        return encode_scalar(value)

    @staticmethod
    def _decode_image(value: object) -> object:
        if isinstance(value, dict) and set(value) == {"$image"}:
            from repro.vision.image import Image
            return Image.from_dict(value["$image"])
        return decode_scalar(value)

    def __eq__(self, other: object) -> bool:
        """Structural equality: schema (incl. dtypes) and cell values."""
        if not isinstance(other, Table):
            return NotImplemented
        if self.schema != other.schema:
            return False
        return all(self._columns[n].materialize()
                   == other._columns[n].materialize()
                   for n in self.column_names)

    __hash__ = None  # mutable container semantics

    def equals(self, other: "Table", ignore_order: bool = False) -> bool:
        """Structural equality on column names and values (not descriptions)."""
        if self.column_names != other.column_names:
            return False
        mine = list(self.row_tuples())
        theirs = list(other.row_tuples())
        if ignore_order:
            key = repr
            return sorted(mine, key=key) == sorted(theirs, key=key)
        return mine == theirs
