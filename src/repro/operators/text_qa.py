"""Text Question Answering physical operator (BART).

"The TextQA operator takes a question template as input, which is translated
to questions by inserting different team names from the values in the table"
(Figure 4).  Placeholders ``<column>`` in the template are instantiated from
each row before the extractive QA model answers from the row's text.

A question depends only on the row's document and its placeholder values,
so the step answers each distinct (document code, placeholder codes) row
once: ``np.unique`` finds them, and their answers are memoised on the
document pool per (template, answer type) and answer-cache scope, keyed by
the document code and the placeholder values as the question shows them.
A warm step hashes no report and instantiates no question.
"""

from __future__ import annotations

import numpy as np

from repro.core.answer_cache import AnswerKey, text_fingerprint
from repro.data.columns import Column, PooledColumn, pooled
from repro.data.datatypes import DataType
from repro.data.table import Table
from repro.errors import OperatorError
from repro.operators.base import (ExecutionContext, OperatorCard,
                                  OperatorResult, PhysicalOperator,
                                  register_operator)
from repro.operators.modality import AnswerMemo, answer_column, pool_memo
from repro.operators.visual_qa import answer_dtype, cast_answer
from repro.text.qa import instantiate_template, template_columns


def _row_codes(storage: Column) -> np.ndarray:
    """Per-row codes, equal where two rows show the same value in a
    question (``-1`` for NULL, shown as ``None``)."""
    if isinstance(storage, PooledColumn):
        return storage.codes
    data = getattr(storage, "data", None)
    if data is None:
        return pooled(storage).codes
    if data.dtype.kind == "f":
        # By bit pattern: -0.0 and 0.0 show differently.
        data = np.ascontiguousarray(data).view(np.int64)
    codes = np.unique(data, return_inverse=True)[1].reshape(-1)
    return np.where(storage.nulls, -1, codes)


def _entries(table: Table, documents: PooledColumn, rows: np.ndarray,
             names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (document code, placeholder codes) *rows*, numbered
    in first-seen order: each row's entry (``-1`` off *rows*), and one
    row per entry."""
    stacked = np.stack([documents.codes[rows]] + [
        _row_codes(table.storage(name))[rows] for name in names], axis=1)
    _, first, inverse = np.unique(stacked, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first, kind="stable")
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    codes = np.full(len(documents), -1, dtype=np.intp)
    codes[rows] = number[inverse.reshape(-1)]
    return codes, rows[first[order]]


class TextQAOperator(PhysicalOperator):
    """Answer an instantiated question template against a TEXT column."""

    card = OperatorCard(
        name="Text Question Answering",
        purpose=("It is useful when you want to extract structured "
                 "information from text documents, e.g. the number of "
                 "points a team scored according to a game report. The "
                 "question is a template: placeholders like <name> are "
                 "replaced with the value of that column in each row. It "
                 "adds the answers as a new column."),
        argument_format=("(table; text_column; new_column; "
                         "question_template; answer_type one of "
                         "int/float/str)"),
        reads=DataType.TEXT)

    def run(self, context: ExecutionContext, args: list[str]) -> OperatorResult:
        table_name, text_column, new_column, template, answer_type = (
            self.require_args(args, 5))
        table = self.require_column(context, table_name, text_column,
                                    DataType.TEXT)
        dtype = answer_dtype(answer_type)
        documents = pooled(table.storage(text_column))
        rows = np.flatnonzero(documents.codes >= 0)
        if len(rows):
            answers = self._answer(context, table, documents, rows,
                                   template, answer_type)
        else:
            # No document to ask: the template is never instantiated.
            answers = [None] * table.num_rows
        result = table.with_column(new_column, dtype, answers)
        samples = result.sample_values(new_column)
        observation = (
            f"New column {new_column!r} has been added to the table. "
            f"Example values: {samples}")
        return OperatorResult(table=result, observation=observation)

    def _answer(self, context: ExecutionContext, table: Table,
                documents: PooledColumn, rows: np.ndarray, template: str,
                answer_type: str) -> Column:
        """The answers of the non-null document *rows*, one per row of
        *table* (``None`` elsewhere)."""
        cache_type = answer_type.strip().lower()
        model = context.text_model
        names = template_columns(template)
        for name in names:
            if name not in table:
                raise OperatorError(
                    f"question template references unknown column "
                    f"<{name}>", operator=self.name)

        codes, shown = _entries(table, documents, rows, names)
        doc_codes = documents.codes[shown].tolist()
        values = [table.storage(name).take(shown).materialize()
                  for name in names]

        def subjects(entries: list[int]) -> list[tuple[AnswerKey, tuple]]:
            keyed = []
            for entry in entries:
                code = doc_codes[entry]
                document = str(documents.pool[code])
                fingerprint = documents.memo.get(
                    "text_fingerprint", code,
                    lambda: text_fingerprint(document))
                question = instantiate_template(template, {
                    name: column[entry] for name, column in zip(names, values)})
                keyed.append(((fingerprint, question, cache_type),
                              (document, question)))
            return keyed

        cache = context.answer_cache
        memo = None
        if cache is not None:
            # The pool's memo answers by document code and placeholder
            # values as the question shows them; this step reads it into
            # a memo over its own distinct rows.
            asked = pool_memo(documents, cache, (template, cache_type),
                              dict)
            memo = _StepMemo(asked, list(zip(
                doc_codes, *(map(str, column) for column in values))))

        return answer_column(
            context, codes, memo, subjects,
            lambda asked_now: [
                cast_answer(model.answer(document, question), answer_type,
                            self.name) for document, question in asked_now],
            "text_inferences", answer_dtype(answer_type))


class _StepMemo(AnswerMemo):
    """A step's memo over its distinct rows, read from the pool's
    *asked* answers of one (template, answer type) and written through to
    them.  *asked* holds ``(answer, answer-cache key)`` by (document
    code, placeholder values as the question shows them); *asked_keys*
    are each row's key there."""

    __slots__ = ("asked", "asked_keys")

    def __init__(self, asked: dict, asked_keys: list[tuple]) -> None:
        super().__init__(len(asked_keys))
        self.asked, self.asked_keys = asked, asked_keys
        found = [(entry, pair) for entry, pair
                 in enumerate(map(asked.get, asked_keys)) if pair is not None]
        if found:
            entries, pairs = zip(*found)
            answers, keys = zip(*pairs)
            self.key(list(entries), keys)
            AnswerMemo.store(self, list(entries), answers)

    def store(self, entries: list[int], answers: list[object]) -> None:
        super().store(entries, answers)
        for entry, answer in zip(entries, answers):
            self.asked[self.asked_keys[entry]] = (answer, self.keys[entry])


register_operator(TextQAOperator)
