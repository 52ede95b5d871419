"""sqlite3 bridge: run guarded SELECT statements over multi-modal tables.

The paper's prototype "has access to all relational operators supported by
SQLite".  Modality values (IMAGE / TEXT objects) cannot live inside sqlite,
so the bridge swaps each object for an opaque token (``obj://<n>``) it
holds for the table, runs the query, and resolves tokens in the result
back into objects — restoring the modality datatype of any result column
whose values are all tokens of one modality.  This is what lets an image
column flow through a regular SQL join (Figure 4).
"""

from __future__ import annotations

import re
import sqlite3
from datetime import date
from typing import Sequence

from repro.data.datatypes import DataType
from repro.data.schema import ColumnSpec, Schema
from repro.data.table import Table
from repro.errors import SQLExecutionError
from repro.relational.guard import validate_select_only

_TOKEN_RE = re.compile(r"^obj://(\d+)$")


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _adapt_cell(value: object) -> object:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, date):
        return value.isoformat()
    return value


def _infer_sql_dtype(values: list[object]) -> DataType:
    kinds = {type(v) for v in values if v is not None}
    if not kinds:
        return DataType.STRING
    if kinds <= {int}:
        return DataType.INTEGER
    if kinds <= {int, float}:
        return DataType.FLOAT
    return DataType.STRING


def join_renames(left_columns: Sequence[str], right_columns: Sequence[str],
                 left_on: str, right_on: str) -> dict[str, str]:
    """Right-side rename map for an equi-join's name clashes.

    Clashing right-side columns get a ``_right`` suffix, except a
    same-name join key, which is merged into a single key column.  This is
    the single naming rule shared by :func:`build_join_sql`, colexec's
    in-process join and the planner, so every execution path produces
    identically-shaped tables.
    """
    renames: dict[str, str] = {}
    for name in right_columns:
        if name not in left_columns:
            continue
        if name == right_on and right_on == left_on:
            continue  # merged into a single key column
        renames[name] = f"{name}_right"
    return renames


def build_join_sql(left_name: str, right_name: str,
                   left_on: str, right_on: str,
                   left_columns: Sequence[str],
                   right_columns: Sequence[str]) -> str:
    """One SELECT implementing an equi-join with cross-column keys.

    Left columns come first, then right columns with clashes renamed by
    :func:`join_renames` (a same-name key is merged).  ``CROSS JOIN ...
    ON`` is used instead of plain ``JOIN`` because SQLite treats them as
    semantic equivalents but never reorders a CROSS JOIN — rows therefore
    come back in left-row-major order, the order colexec's in-process
    join replicates, which keeps results byte-identical whichever path
    executes the step.
    """
    renames = join_renames(left_columns, right_columns, left_on, right_on)
    select_parts = [f"{_quote_ident(left_name)}.{_quote_ident(name)}"
                    for name in left_columns]
    for name in right_columns:
        if name == right_on and right_on == left_on:
            continue  # merged into the single left-side key column
        source = f"{_quote_ident(right_name)}.{_quote_ident(name)}"
        if name in renames:
            select_parts.append(f"{source} AS {_quote_ident(renames[name])}")
        else:
            select_parts.append(source)
    return (f"SELECT {', '.join(select_parts)} "
            f"FROM {_quote_ident(left_name)} "
            f"CROSS JOIN {_quote_ident(right_name)} "
            f"ON {_quote_ident(left_name)}.{_quote_ident(left_on)} = "
            f"{_quote_ident(right_name)}.{_quote_ident(right_on)}")


def dedup_names(names: Sequence[str]) -> list[str]:
    """Result column *names* made unique, as both relational engines do.

    The k-th occurrence of a name (k > 1) becomes ``name_k``; a suffix
    another column already takes is skipped, so no name repeats.
    """
    taken = set(names)
    counts: dict[str, int] = {}
    unique: list[str] = []
    for name in names:
        counts[name] = counts.get(name, 0) + 1
        if counts[name] > 1:
            while f"{name}_{counts[name]}" in taken:
                counts[name] += 1
            name = f"{name}_{counts[name]}"
            taken.add(name)
        unique.append(name)
    return unique


class SQLBridge:
    """A connection-lifetime sqlite database that memoizes registrations.

    Registering a table copies every row into sqlite, which dominates
    batch execution on large lakes when each SQL step rebuilds the
    database from scratch.  A bridge keeps one connection alive across
    queries and re-registers a table only when its content fingerprint
    (:meth:`repro.data.table.Table.fingerprint`) changed under its name —
    the immutable lake tables of a warmed-up engine are therefore copied
    into sqlite exactly once per engine, not once per SQL step.

    Modality cells are stored as ``obj://<n>`` tokens; the bridge keeps
    each registered table's objects and frees them when the table is
    dropped or re-registered.  *n* comes from one counter per bridge, so
    a token is never reused.

    One bridge belongs to one engine (one in-flight query at a time); the
    connection is opened with ``check_same_thread=False`` because a thread
    lane may run consecutive queries of the same engine on different
    threads.  Concurrent use of a single bridge is not supported —
    engines are never shared by two in-flight queries.
    """

    def __init__(self) -> None:
        self._connection = sqlite3.connect(":memory:",
                                           check_same_thread=False)
        self._fingerprints: dict[str, str] = {}
        #: token number -> (object, modality dtype)
        self._objects: dict[int, tuple[object, DataType]] = {}
        #: registered table name -> the token numbers it holds
        self._tokens: dict[str, list[int]] = {}
        self._next_token = 0
        #: diagnostic counters: sqlite registrations actually performed vs.
        #: registrations skipped because the fingerprint matched.
        self.registrations = 0
        self.reuses = 0

    def close(self) -> None:
        self._connection.close()
        self._fingerprints.clear()
        self._objects.clear()
        self._tokens.clear()

    def __enter__(self) -> "SQLBridge":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def register(self, name: str, table: Table) -> None:
        """(Re-)register *table* under *name* in the sqlite database."""
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise SQLExecutionError(f"invalid table name {name!r}")
        self.unregister(name)
        cursor = self._connection.cursor()
        column_defs = ", ".join(
            f"{_quote_ident(spec.name)} {spec.dtype.sqlite_affinity}"
            for spec in table.schema.columns)
        cursor.execute(f"CREATE TABLE {_quote_ident(name)} ({column_defs})")

        modality = {spec.name: spec.dtype
                    for spec in table.schema.modality_columns}
        placeholders = ", ".join("?" for _ in table.column_names)
        insert_sql = (f"INSERT INTO {_quote_ident(name)} "
                      f"VALUES ({placeholders})")
        # Column-wise cell preparation: the register hot path dominates batch
        # execution on large lakes, so per-row dict building is avoided and
        # columns that need no conversion are passed through untouched.
        tokens = self._tokens[name] = []
        prepared: list[Sequence[object]] = []
        for column in table.column_names:
            values = table.column(column)
            if column in modality:
                dtype = modality[column]
                cells: list[object] = []
                for value in values:
                    if value is None:
                        cells.append(None)
                        continue
                    self._objects[self._next_token] = (value, dtype)
                    tokens.append(self._next_token)
                    cells.append(f"obj://{self._next_token}")
                    self._next_token += 1
                prepared.append(cells)
            elif any(isinstance(v, (date, bool)) for v in values):
                prepared.append([_adapt_cell(v) for v in values])
            else:
                prepared.append(values)
        cursor.executemany(insert_sql, zip(*prepared) if prepared else [])
        self._connection.commit()

    def unregister(self, name: str) -> None:
        """Drop *name* and free its objects (no-op when absent)."""
        self._fingerprints.pop(name, None)
        tokens = self._tokens.pop(name, None)
        if tokens is None:
            return
        for token in tokens:
            del self._objects[token]
        self._connection.execute(f"DROP TABLE IF EXISTS {_quote_ident(name)}")
        self._connection.commit()

    def sync(self, tables: dict[str, Table],
             known: dict[str, Table] | None = None) -> None:
        """Bring the sqlite database up to date with *tables*.

        *known* is the full set of currently valid table names (defaults
        to *tables*); registrations whose name is no longer valid are
        dropped, so a statement can never be answered from a table that a
        previous query bound and this one does not know about.
        """
        valid = known if known is not None else tables
        for name in [n for n in self._tokens if n not in valid]:
            self.unregister(name)
        for name, table in tables.items():
            fingerprint = table.fingerprint()
            if self._fingerprints.get(name) == fingerprint:
                self.reuses += 1
                continue
            self.register(name, table)
            self._fingerprints[name] = fingerprint
            self.registrations += 1

    def execute(self, sql: str, tables: dict[str, Table],
                known: dict[str, Table] | None = None) -> Table:
        """Sync *tables* (pruning against *known*) and run one SELECT."""
        self.sync(tables, known=known)
        return self.query(sql)

    def query(self, sql: str) -> Table:
        """Run one guarded SELECT over the registered tables."""
        cleaned = validate_select_only(sql)
        cursor = self._connection.cursor()
        try:
            cursor.execute(cleaned)
        except sqlite3.Error as exc:
            raise SQLExecutionError(f"SQL failed: {exc} (query: {sql})") from exc
        if cursor.description is None:
            raise SQLExecutionError("statement returned no result set")
        names = [d[0] for d in cursor.description]
        raw_rows = cursor.fetchall()
        # sqlite can return duplicate column names; make them unique.
        unique_names = dedup_names(names)
        columns = {n: [] for n in unique_names}
        for raw in raw_rows:
            for name, value in zip(unique_names, raw):
                columns[name].append(value)
        return self._to_table(unique_names, columns)

    def _token(self, value: object) -> int | None:
        """The number of the live object token *value*, else ``None``."""
        match = _TOKEN_RE.match(value) if isinstance(value, str) else None
        if match is None or int(match.group(1)) not in self._objects:
            return None
        return int(match.group(1))

    def _to_table(self, names: list[str],
                  columns: dict[str, list[object]]) -> Table:
        specs = []
        resolved: dict[str, list[object]] = {}
        for name in names:
            values = columns[name]
            present = [v for v in values if v is not None]
            if present and all(self._token(v) is not None for v in present):
                dtypes = set()
                objects = []
                for value in values:
                    if value is None:
                        objects.append(None)
                        continue
                    obj, dtype = self._objects[self._token(value)]
                    objects.append(obj)
                    dtypes.add(dtype)
                dtype = dtypes.pop() if len(dtypes) == 1 else DataType.STRING
                specs.append(ColumnSpec(name, dtype))
                resolved[name] = objects
                continue
            resolved[name] = values
            specs.append(ColumnSpec(name, _infer_sql_dtype(values)))
        return Table(Schema(specs), resolved)


def run_sql(sql: str, tables: dict[str, Table]) -> Table:
    """One-shot convenience: register *tables* in a throwaway bridge,
    execute *sql*, return the result."""
    with SQLBridge() as bridge:
        for name, table in tables.items():
            bridge.register(name, table)
        return bridge.query(sql)
