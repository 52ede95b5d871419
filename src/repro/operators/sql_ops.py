"""The SQL physical operator (joins, selections, aggregations, sorting).

CAESURA "has access to all relational operators supported by SQLite"; the
mapping phase emits a single guarded SELECT statement which is executed over
the current execution context through the sqlite3 bridge.  Modality columns
survive via object tokens (:mod:`repro.relational.sqlexec`).
"""

from __future__ import annotations

import re

from repro.data.table import Table
from repro.errors import OperatorError, ReproError
from repro.operators.base import (ExecutionContext, OperatorCard,
                                  OperatorResult, PhysicalOperator,
                                  register_operator)
from repro.relational import colexec
from repro.relational.sqlexec import SQLExecutor


def referenced_tables(sql: str, tables: dict[str, Table]) -> dict[str, Table]:
    """The subset of *tables* whose names occur in *sql*.

    Registering a table into sqlite copies every row, which dominates the
    execution phase on large lakes, so only tables the statement can
    actually touch are registered.  Matching is a conservative word-level
    scan: a name mentioned anywhere in the statement (even in a string
    literal) is registered — a superset of the truly referenced tables.
    Falls back to all tables when nothing matches, so a malformed statement
    still fails with sqlite's own error message.
    """
    subset = {name: table for name, table in tables.items()
              if re.search(rf"\b{re.escape(name)}\b", sql, re.IGNORECASE)}
    return subset or dict(tables)


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
        tables = referenced_tables(sql, context.tables)
        result = None
        engine = context.relational_engine
        if engine != "sqlite":
            # In-process execution over column storage; anything outside
            # the proven-identical envelope falls through to the bridge.
            try:
                result = colexec.execute(sql, tables, engine=engine)
            except colexec.UnsupportedSQL:
                context.count("colexec_declined")
                engine = "sqlite"
        if result is None:
            try:
                if context.sql_bridge is not None:
                    # Engine-lifetime connection: registration is memoized
                    # on content fingerprints, pruned against the current
                    # context.
                    result = context.sql_bridge.execute(sql, tables,
                                                        known=context.tables)
                else:
                    with SQLExecutor() as executor:
                        for name, table in tables.items():
                            executor.register(name, table)
                        result = executor.execute(sql)
            except ReproError as exc:
                raise OperatorError(str(exc), operator=self.name) from exc
        context.count(f"sql_engine_{engine}")
        observation = (
            f"SQL returned a table with {result.num_rows} rows and columns "
            f"{result.column_names}.")
        if result.num_rows:
            samples = {name: result.sample_values(name)
                       for name in result.column_names[:4]}
            observation += f" Example values: {samples}"
        return OperatorResult(table=result, observation=observation)


register_operator(SQLOperator)
