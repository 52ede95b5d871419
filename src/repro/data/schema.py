"""Table schemas and their serialization into prompts.

The schema serialization format is taken from Figure 3 of the paper::

    paintings_metadata = table(num_rows=7912, columns=['title': 'str', ...],
                               description='...', foreign_keys=[...])
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.datatypes import DataType
from repro.errors import SchemaError, UnknownColumnError


@dataclass(frozen=True)
class ColumnSpec:
    """Name, datatype, and human description of one column."""

    name: str
    dtype: DataType
    description: str = ""

    def prompt_repr(self) -> str:
        return f"'{self.name}': '{self.dtype.value}'"

    def to_dict(self) -> dict:
        return {"name": self.name, "dtype": self.dtype.value,
                "description": self.description}

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnSpec":
        return cls(name=data["name"], dtype=DataType.parse(data["dtype"]),
                   description=data.get("description", ""))


@dataclass(frozen=True)
class ForeignKey:
    """A join edge between two tables (``games.team_id -> teams.team_id``)."""

    column: str
    other_table: str
    other_column: str

    def prompt_repr(self, table: str) -> str:
        return (f"{table}.{self.column} = "
                f"{self.other_table}.{self.other_column}")

    def to_dict(self) -> dict:
        return {"column": self.column, "other_table": self.other_table,
                "other_column": self.other_column}

    @classmethod
    def from_dict(cls, data: dict) -> "ForeignKey":
        return cls(column=data["column"], other_table=data["other_table"],
                   other_column=data["other_column"])


@dataclass
class Schema:
    """Ordered column specifications plus join metadata."""

    columns: list[ColumnSpec]
    description: str = ""
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    primary_key: str | None = None

    def __post_init__(self) -> None:
        # Name lookups go through this map; columns are never changed
        # after construction (with_column builds a new schema).
        self._by_name = {spec.name: spec for spec in self.columns}
        if len(self._by_name) != len(self.columns):
            names = [c.name for c in self.columns]
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {', '.join(dupes)}")

    @classmethod
    def of(cls, *specs: tuple[str, DataType], description: str = "") -> "Schema":
        """Shorthand: ``Schema.of(('title', DataType.STRING), ...)``."""
        return cls([ColumnSpec(n, t) for n, t in specs], description=description)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> ColumnSpec:
        spec = self._by_name.get(name)
        if spec is None:
            raise UnknownColumnError(name, self.column_names)
        return spec

    def dtype(self, name: str) -> DataType:
        return self.column(name).dtype

    @property
    def modality_columns(self) -> list[ColumnSpec]:
        """Columns carrying IMAGE/TEXT objects."""
        return [c for c in self.columns if c.dtype.is_modality]

    def with_column(self, spec: ColumnSpec) -> "Schema":
        """A copy of this schema with one column appended."""
        return Schema(self.columns + [spec], description=self.description,
                      foreign_keys=list(self.foreign_keys),
                      primary_key=self.primary_key)

    def to_dict(self) -> dict:
        return {
            "columns": [spec.to_dict() for spec in self.columns],
            "description": self.description,
            "foreign_keys": [fk.to_dict() for fk in self.foreign_keys],
            "primary_key": self.primary_key,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schema":
        return cls(
            columns=[ColumnSpec.from_dict(c) for c in data["columns"]],
            description=data.get("description", ""),
            foreign_keys=[ForeignKey.from_dict(fk)
                          for fk in data.get("foreign_keys", [])],
            primary_key=data.get("primary_key"))

    def prompt_repr(self, table_name: str, num_rows: int) -> str:
        """Serialize for a CAESURA prompt (Figure 3 format)."""
        cols = ", ".join(c.prompt_repr() for c in self.columns)
        parts = [f"num_rows={num_rows}", f"columns=[{cols}]"]
        if self.description:
            parts.append(f"description='{self.description}'")
        if self.foreign_keys:
            fks = ", ".join(f"'{fk.prompt_repr(table_name)}'"
                            for fk in self.foreign_keys)
            parts.append(f"foreign_keys=[{fks}]")
        return f"{table_name} = table({', '.join(parts)})"
