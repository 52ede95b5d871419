"""The Join physical operator: equi-joins with cross-column keys.

The plain SQL operator covers same-name joins (``USING (col)``), but the
lake's foreign keys are not always name-aligned — ``players.team =
teams.name`` is the canonical example.  This operator binds the logical
"join A and B on the 'x' and 'y' columns" step to a real equi-join whose
key columns differ per side.

It registers through :func:`repro.operators.base.register_operator` like
every other operator — the engine loop is untouched; the card below is all
the mapping prompt needs (the paper's "provide all necessary information
about their behavior in the prompt").

Execution tries colexec's in-process join first (unless the context asks
for the sqlite engine) and otherwise runs the statement
:func:`~repro.relational.sqlexec.build_join_sql` builds on the sqlite
bridge (:meth:`~repro.operators.base.ExecutionContext.run_sql`), the same
path the SQL operator falls back to.  Both paths produce
identically-shaped, identically-ordered tables.
"""

from __future__ import annotations

from repro.errors import OperatorError, ReproError
from repro.operators.base import (ExecutionContext, OperatorCard,
                                  OperatorResult, PhysicalOperator,
                                  register_operator)
from repro.relational import colexec
from repro.relational.sqlexec import build_join_sql


class JoinOperator(PhysicalOperator):
    """Equi-join two context tables on (possibly differently named) keys."""

    card = OperatorCard(
        name="Join",
        purpose=("It is useful when you want to combine two tables whose "
                 "join key columns have different names, e.g. joining "
                 "players with teams on players.team = teams.name. "
                 "Produces one row per matching key pair; right-side "
                 "columns whose names clash with the left side get a "
                 "'_right' suffix. IMAGE and TEXT columns survive the "
                 "join untouched. For keys that share one name, the SQL "
                 "operator's JOIN ... USING is equivalent."),
        argument_format="(left_table; right_table; left_column; "
                        "right_column)")

    def run(self, context: ExecutionContext, args: list[str]) -> OperatorResult:
        left_name, right_name, left_on, right_on = self.require_args(args, 4)
        left = context.resolve(left_name)
        right = context.resolve(right_name)
        for name, table, key in ((left_name, left, left_on),
                                 (right_name, right, right_on)):
            if key not in table:
                raise OperatorError(
                    f"join key {key!r} is missing from table {name!r} "
                    f"(available columns: {table.column_names})",
                    operator=self.name)
        result = None
        engine = context.relational_engine
        if engine != "sqlite":
            # In-process join in the bridge's result representation;
            # shapes it cannot reproduce byte-identically fall through.
            try:
                result = colexec.join_tables(left, right, left_on, right_on)
            except colexec.UnsupportedSQL:
                context.count("colexec_declined")
        if result is None:
            engine = "sqlite"
            sql = build_join_sql(left_name, right_name, left_on, right_on,
                                 left.column_names, right.column_names)
            try:
                result = context.run_sql(sql, {left_name: left,
                                               right_name: right})
            except ReproError as exc:
                raise OperatorError(str(exc), operator=self.name) from exc
        context.count(f"sql_engine_{engine}")
        context.count("joins_executed")
        observation = (
            f"Join produced a table with {result.num_rows} rows and "
            f"columns {result.column_names} "
            f"({left_name}.{left_on} = {right_name}.{right_on}).")
        return OperatorResult(table=result, observation=observation)


register_operator(JoinOperator)
