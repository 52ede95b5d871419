"""Python UDF physical operator.

"The Python operator takes a description as input, which is translated to
code using GPT-4" (Figure 4).  The description is compiled to real Python
source by the recipe-based code generator, validated and compiled by the
AST sandbox once per source text, and executed per value.  The sandbox
allows no I/O, clock or randomness, so the output is a pure function of
the input column and the source: over a source table of the execution
context (a lake table) it is memoised on that table (the ``udf`` kind
of :attr:`~repro.data.table.Table.memo`), and asking again runs no row.
A per-query intermediate dies with its query, so nothing is memoised
on it.

A string column is codes into a pool shared by every take of it, so a
step over a fresh intermediate (a filtered take of a lake column) reads
the pool's ``udf_values`` memo: each pool entry's value under the
source, handed to the code once per entry.  Only entries the rows
reference and no earlier step worked out are evaluated, in the order
of their first row, and the rows gather their values by code.  That
path needs a function that keeps no state between calls: the sandbox
allows one top-level ``def`` with no ``global`` or ``nonlocal`` in a
fresh namespace, so only default arguments could, and a function with
any is evaluated row by row.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.columns import Column, StringColumn, build_column
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
        storage = table.storage(input_column)
        evaluated = False

        def evaluate() -> tuple[DataType, Column]:
            nonlocal evaluated
            evaluated = True
            if (isinstance(storage, StringColumn)
                    and transform.__defaults__ is None
                    and transform.__kwdefaults__ is None):
                return self._by_entry(context, storage, transform,
                                      udf.source)
            return self._by_row(context, storage.materialize(), transform)

        if context.is_source(table):
            dtype, column = table.memo.get(
                "udf", (input_column, udf.source), evaluate)
        else:
            dtype, column = evaluate()
        if not evaluated:
            context.count("udf_memo_hits")
        result = table.with_column(new_column, dtype, column)
        samples = result.sample_values(new_column)
        observation = (
            f"New column {new_column!r} has been added via generated Python "
            f"code:\n{udf.source}Example values: {samples}")
        return OperatorResult(table=result, observation=observation)

    def _failed(self, row: int, value: object,
                exc: Exception) -> OperatorError:
        return OperatorError(f"generated code failed on row {row} (value "
                             f"{value!r}): {exc}", operator=self.name)

    def _by_row(self, context: ExecutionContext, inputs: list[object],
                transform: Callable[[object], object]
                ) -> tuple[DataType, Column]:
        """The code run on every non-null row, in row order."""
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
                raise self._failed(row, value, exc) from exc
        context.count("udf_rows_evaluated",
                      len(inputs) - inputs.count(None))
        dtype = infer_column_type(values)
        return dtype, build_column(values, dtype)

    def _by_entry(self, context: ExecutionContext, storage: StringColumn,
                  transform: Callable[[object], object],
                  source: str) -> tuple[DataType, Column]:
        """The code run once per pool entry under *source*: only on the
        entries the rows reference that are not yet known, in the order of
        their first row, so the first failure is the row-wise loop's.  The
        output is the row-wise loop's too: its dtype is inferred from the
        referenced entries' values, and the packed column is gathered by
        code from them packed in first-row order (a string output pools
        in row order, as packing every row would).  A failing step stores
        nothing; an entry is marked known only once its value is
        stored.  A step that hands the code no value is a memo hit."""
        pool = storage.pool
        known = storage.memo.get("udf_values", source,
                                 lambda: _EntryValues(len(pool)))
        codes = storage.codes
        entries, first = np.unique(codes, return_index=True)
        if len(entries) and entries[0] < 0:
            entries, first = entries[1:], first[1:]
        order = np.argsort(first)
        entries, first = entries[order], first[order]
        missing = np.flatnonzero(~known.known[entries])
        fresh: list[object] = []
        for at in missing.tolist():
            value = pool[entries[at]]
            try:
                fresh.append(transform(value))
            except Exception as exc:  # generated code may fail arbitrarily
                context.count("udf_rows_evaluated", len(fresh) + 1)
                raise self._failed(int(first[at]), value, exc) from exc
        if len(missing):
            context.count("udf_rows_evaluated", len(missing))
        else:
            context.count("udf_memo_hits")
        values = [known.values[code] for code in entries.tolist()]
        for at, value in zip(missing.tolist(), fresh):
            values[at] = value
        dtype = infer_column_type(values)
        # One more value, None, is where NULL's code -1 gathers from.
        positions = np.full(len(pool) + 1, len(entries), dtype=np.intp)
        positions[entries] = np.arange(len(entries), dtype=np.intp)
        column = build_column(values + [None], dtype).take(positions[codes])
        for code, value in zip(entries[missing].tolist(), fresh):
            known.values[code] = value
        known.known[entries[missing]] = True
        return dtype, column


class _EntryValues:
    """One source's value per pool entry, and which are known."""

    __slots__ = ("values", "known")

    def __init__(self, size: int) -> None:
        self.values: list[object] = [None] * size
        self.known = np.zeros(size, dtype=bool)


register_operator(PythonOperator)
