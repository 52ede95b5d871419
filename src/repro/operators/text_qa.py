"""Text Question Answering physical operator (BART).

"The TextQA operator takes a question template as input, which is translated
to questions by inserting different team names from the values in the table"
(Figure 4).  Placeholders ``<column>`` in the template are instantiated from
each row before the extractive QA model answers from the row's text.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.answer_cache import AnswerKey, text_fingerprint
from repro.data.datatypes import DataType
from repro.operators.base import (ExecutionContext, OperatorCard,
                                  OperatorResult, PhysicalOperator,
                                  register_operator)
from repro.operators.modality import answer_column
from repro.operators.visual_qa import answer_dtype, cast_answer
from repro.text.qa import instantiate_template


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
                         "int/float/str)"))

    def run(self, context: ExecutionContext, args: list[str]) -> OperatorResult:
        table_name, text_column, new_column, template, answer_type = (
            self.require_args(args, 5))
        table = self.require_column(context, table_name, text_column,
                                    DataType.TEXT)
        cache_type = answer_type.strip().lower()
        model = context.text_model

        def instantiated() -> Iterator[tuple[AnswerKey, tuple] | None]:
            for row in table.rows():
                if row[text_column] is None:
                    yield None
                    continue
                document = str(row[text_column])
                question = instantiate_template(template, row)
                yield ((text_fingerprint(document), question, cache_type),
                       (document, question))

        answers = answer_column(
            context, instantiated(),
            lambda asked: [
                cast_answer(model.answer(document, question), answer_type,
                            self.name) for document, question in asked],
            "text_inferences")
        result = table.with_column(new_column, answer_dtype(answer_type),
                                   answers)
        samples = result.sample_values(new_column)
        observation = (
            f"New column {new_column!r} has been added to the table. "
            f"Example values: {samples}")
        return OperatorResult(table=result, observation=observation)


register_operator(TextQAOperator)
