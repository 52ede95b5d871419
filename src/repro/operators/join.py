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

Execution runs the one SELECT :func:`~repro.relational.sqlexec.build_join_sql`
builds through
:meth:`~repro.operators.base.ExecutionContext.execute_sql`, the same
path as the SQL operator: colexec when the statement fits its kernels,
else the sqlite bridge, with identically-shaped, identically-ordered
results either way.
"""

from __future__ import annotations

from repro.errors import OperatorError
from repro.operators.base import (ExecutionContext, OperatorCard,
                                  OperatorResult, PhysicalOperator,
                                  register_operator)
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
        sql = build_join_sql(left_name, right_name, left_on, right_on,
                             left.column_names, right.column_names)
        result = context.execute_sql(sql, {left_name: left,
                                           right_name: right}, self.name)
        context.count("joins_executed")
        observation = (
            f"Join produced a table with {result.num_rows} rows and "
            f"columns {result.column_names} "
            f"({left_name}.{left_on} = {right_name}.{right_on}).")
        return OperatorResult(table=result, observation=observation)


register_operator(JoinOperator)
