"""Datatypes for multi-modal tables.

CAESURA presents non-relational modalities to the LLM as *special tables*
whose columns carry modality datatypes (``IMAGE``, ``TEXT``).  The relational
datatypes mirror what SQLite supports; the modality datatypes tag columns
whose values are arbitrary Python objects (rendered images, long documents)
that only multi-modal operators may consume.
"""

from __future__ import annotations

import enum
from datetime import date, datetime

from repro.errors import TypeMismatchError


class DataType(enum.Enum):
    """Datatype of a table column."""

    INTEGER = "int"
    FLOAT = "float"
    STRING = "str"
    BOOLEAN = "bool"
    DATE = "date"
    IMAGE = "IMAGE"
    TEXT = "TEXT"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_modality(self) -> bool:
        """True for non-relational modality types (IMAGE, TEXT)."""
        return self in (DataType.IMAGE, DataType.TEXT)

    @property
    def sqlite_affinity(self) -> str:
        """SQLite column affinity used by the sqlite3 bridge."""
        if self is DataType.INTEGER:
            return "INTEGER"
        if self is DataType.FLOAT:
            return "REAL"
        if self is DataType.BOOLEAN:
            return "INTEGER"
        # Dates, strings, and modality *tokens* are stored as text.
        return "TEXT"

    @classmethod
    def parse(cls, name: str) -> "DataType":
        """Parse a datatype from its prompt spelling (``'str'``, ``'IMAGE'``)."""
        normalized = name.strip()
        for member in cls:
            if member.value == normalized or member.name == normalized.upper():
                return member
        raise TypeMismatchError(f"unknown datatype {name!r}")


def encode_scalar(value: object) -> object:
    """Encode one relational scalar as a JSON-safe value.

    ``int``/``float``/``str``/``bool``/``None`` pass through; ``date`` and
    ``datetime`` become a ``{"$date": iso}`` tagged dict so decoding is
    lossless without schema context.  Anything else raises.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, datetime):                # before date: a subclass
        return {"$datetime": value.isoformat()}
    if isinstance(value, date):
        return {"$date": value.isoformat()}
    raise TypeMismatchError(
        f"cannot JSON-encode scalar of type {type(value).__name__}")


def decode_scalar(value: object) -> object:
    """Inverse of :func:`encode_scalar`."""
    if isinstance(value, dict):
        if set(value) == {"$date"}:
            return date.fromisoformat(value["$date"])
        if set(value) == {"$datetime"}:
            return datetime.fromisoformat(value["$datetime"])
    return value


def infer_type(value: object) -> DataType:
    """Infer the :class:`DataType` of a single Python value."""
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, (date, datetime)):
        return DataType.DATE
    if isinstance(value, str):
        return DataType.STRING
    raise TypeMismatchError(
        f"cannot infer relational datatype of {type(value).__name__}; "
        "tag modality columns explicitly as IMAGE or TEXT"
    )


def infer_column_type(values: list[object]) -> DataType:
    """Infer a column datatype from its values (ignoring ``None``).

    Mixed int/float widens to float; any other mix raises.
    :func:`infer_type` depends only on a value's type, so it runs once per
    distinct type, in first-occurrence order.
    """
    # One value per distinct type; dict keys keep first-occurrence order.
    representatives = dict(zip(map(type, values), values))
    representatives.pop(type(None), None)
    seen = {infer_type(value) for value in representatives.values()}
    if not seen:
        return DataType.STRING
    if seen == {DataType.INTEGER, DataType.FLOAT}:
        return DataType.FLOAT
    if len(seen) == 1:
        return seen.pop()
    names = ", ".join(sorted(t.name for t in seen))
    raise TypeMismatchError(f"column mixes incompatible datatypes: {names}")


def coerce(value: object, dtype: DataType) -> object:
    """Coerce *value* to *dtype*, raising :class:`TypeMismatchError` on failure.

    ``None`` passes through unchanged (SQL-style NULL semantics).
    """
    if value is None:
        return None
    try:
        if dtype is DataType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, (int, float)):
                return int(value)
            return int(str(value).strip())
        if dtype is DataType.FLOAT:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
            return float(str(value).strip())
        if dtype is DataType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return bool(value)
            text = str(value).strip().lower()
            if text in ("true", "yes", "1"):
                return True
            if text in ("false", "no", "0"):
                return False
            raise ValueError(text)
        if dtype is DataType.DATE:
            if isinstance(value, datetime):
                return value.date()
            if isinstance(value, date):
                return value
            return date.fromisoformat(str(value).strip())
        if dtype is DataType.STRING:
            return value if isinstance(value, str) else str(value)
    except (ValueError, TypeError) as exc:
        raise TypeMismatchError(
            f"cannot coerce {value!r} to {dtype.name}"
        ) from exc
    # Modality types accept any object.
    return value
