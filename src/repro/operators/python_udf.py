"""Python UDF physical operator.

"The Python operator takes a description as input, which is translated to
code using GPT-4" (Figure 4).  The description is compiled to real Python
source by the recipe-based code generator, validated and compiled by the
AST sandbox once per source text, and executed per-row.  The sandbox
allows no I/O, clock or randomness, so the output is a pure function of
the input column and the source: it is memoised on the input table
(the ``udf`` kind of :attr:`~repro.data.table.Table.memo`), and asking
again over the same table object runs no row.
"""

from __future__ import annotations

from repro.data.columns import Column, build_column
from repro.data.datatypes import DataType, infer_column_type
from repro.errors import (CodeGenerationError, OperatorError,
                          SandboxViolationError)
from repro.operators.base import (ExecutionContext, OperatorCard,
                                  OperatorResult, PhysicalOperator,
                                  register_operator)
from repro.udf.codegen import generate_udf


class PythonOperator(PhysicalOperator):
    """Apply generated Python code to a column, producing a new column."""

    card = OperatorCard(
        name="Python",
        purpose=("It is useful when you need an arbitrary transformation of "
                 "a relational column that SQL cannot express, e.g. extract "
                 "the century from a date string. Describe the "
                 "transformation in natural language; Python code is "
                 "generated and executed over every value."),
        argument_format=("(table; input_column; new_column; natural-language "
                         "description of the transformation)"))

    def run(self, context: ExecutionContext, args: list[str]) -> OperatorResult:
        table_name, input_column, new_column, description = (
            self.require_args(args, 4))
        table = context.resolve(table_name)
        if input_column not in table:
            raise OperatorError(
                f"table {table_name!r} has no column {input_column!r}",
                operator=self.name)
        if table.dtype(input_column).is_modality:
            raise OperatorError(
                f"column {input_column!r} is {table.dtype(input_column).value}"
                f"; the Python operator works on relational columns only "
                "(use Visual Question Answering / Text Question Answering "
                "for modalities)", operator=self.name)
        try:
            udf = generate_udf(description)
            transform = udf.compile()
        except (CodeGenerationError, SandboxViolationError) as exc:
            raise OperatorError(str(exc), operator=self.name) from exc
        context.count("udf_calls")
        evaluated = False

        def evaluate() -> tuple[DataType, Column]:
            nonlocal evaluated
            evaluated = True
            inputs = table.column(input_column)
            values: list[object] = []
            append = values.append
            for row, value in enumerate(inputs):
                if value is None:
                    append(None)
                    continue
                try:
                    append(transform(value))
                except Exception as exc:  # generated code may fail arbitrarily
                    context.count("udf_rows_evaluated",
                                  row + 1 - inputs[:row].count(None))
                    raise OperatorError(
                        f"generated code failed on row {row} (value "
                        f"{value!r}): {exc}", operator=self.name) from exc
            context.count("udf_rows_evaluated",
                          len(inputs) - inputs.count(None))
            dtype = infer_column_type(values)
            return dtype, build_column(values, dtype)

        dtype, column = table.memo.get("udf", (input_column, udf.source),
                                       evaluate)
        if not evaluated:
            context.count("udf_memo_hits")
        result = table.with_column(new_column, dtype, column)
        samples = result.sample_values(new_column)
        observation = (
            f"New column {new_column!r} has been added via generated Python "
            f"code:\n{udf.source}Example values: {samples}")
        return OperatorResult(table=result, observation=observation)


register_operator(PythonOperator)
