"""The SQL physical operator (joins, selections, aggregations, sorting).

CAESURA "has access to all relational operators supported by SQLite"; the
mapping phase emits a single guarded SELECT statement which is executed over
the current execution context by
:meth:`~repro.operators.base.ExecutionContext.execute_sql`: in-process on
colexec's typed kernels, else through the sqlite3 bridge, where modality
columns survive via object tokens (:mod:`repro.relational.sqlexec`).
"""

from __future__ import annotations

import functools
import re

from repro.data.table import Table
from repro.operators.base import (ExecutionContext, OperatorCard,
                                  OperatorResult, PhysicalOperator,
                                  register_operator)


def referenced_tables(sql: str, tables: dict[str, Table]) -> dict[str, Table]:
    """The subset of *tables* whose names occur in *sql*.

    Registering a table into sqlite copies every row, which dominates the
    execution phase on large lakes, so only tables the statement can
    actually touch are registered.  Matching is a conservative word-level
    scan: a name mentioned anywhere in the statement (even in a string
    literal) is registered — a superset of the truly referenced tables.
    Falls back to all tables when nothing matches, so a malformed statement
    still fails with sqlite's own error message.  The scan runs once per
    statement text and table names (:func:`_mentioned`).
    """
    mentioned = _mentioned(sql, tuple(tables))
    if not mentioned:
        return dict(tables)
    return {name: tables[name] for name in mentioned}


@functools.lru_cache(maxsize=1024)
def _mentioned(sql: str, names: tuple[str, ...]) -> tuple[str, ...]:
    """The *names* that occur in *sql* as words, in their order."""
    return tuple(name for name in names
                 if re.search(rf"\b{re.escape(name)}\b", sql, re.IGNORECASE))


class SQLOperator(PhysicalOperator):
    """Execute one SELECT statement over the context tables."""

    card = OperatorCard(
        name="SQL",
        purpose=("It is useful when you want to join tables, select rows "
                 "based on a condition over relational columns, group and "
                 "aggregate values (COUNT, SUM, AVG, MIN, MAX), sort rows, "
                 "or limit the output. Works only on relational columns; "
                 "it cannot look inside IMAGE or TEXT columns."),
        argument_format="(one SELECT statement over the available tables)")

    def run(self, context: ExecutionContext, args: list[str]) -> OperatorResult:
        (sql,) = self.require_args(args, 1)
        context.count("sql_statements")
        result = context.execute_sql(
            sql, referenced_tables(sql, context.tables), self.name)
        observation = (
            f"SQL returned a table with {result.num_rows} rows and columns "
            f"{result.column_names}.")
        if result.num_rows:
            samples = {name: result.sample_values(name)
                       for name in result.column_names[:4]}
            observation += f" Example values: {samples}"
        return OperatorResult(table=result, observation=observation)


register_operator(SQLOperator)
