"""Visual Question Answering and Image Select physical operators (BLIP-2)."""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.core.answer_cache import AnswerKey
from repro.data.datatypes import DataType
from repro.data.table import Table
from repro.errors import OperatorError
from repro.operators.base import (ExecutionContext, OperatorCard,
                                  OperatorResult, PhysicalOperator,
                                  register_operator)
from repro.operators.modality import answer_column
from repro.vision.image import Image

_ANSWER_CASTS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": bool,
}

_ANSWER_DTYPES = {
    "int": DataType.INTEGER,
    "float": DataType.FLOAT,
    "str": DataType.STRING,
    "bool": DataType.BOOLEAN,
}


def cast_answer(value: object, answer_type: str, operator: str) -> object:
    """Cast a QA answer to the declared type; None passes through."""
    if value is None:
        return None
    answer_type = answer_type.strip().lower()
    if answer_type not in _ANSWER_CASTS:
        raise OperatorError(
            f"unknown answer type {answer_type!r}; expected one of "
            f"{', '.join(_ANSWER_CASTS)}", operator=operator)
    try:
        return _ANSWER_CASTS[answer_type](value)
    except (TypeError, ValueError) as exc:
        raise OperatorError(
            f"cannot cast answer {value!r} to {answer_type}",
            operator=operator) from exc


def answer_dtype(answer_type: str) -> DataType:
    return _ANSWER_DTYPES.get(answer_type.strip().lower(), DataType.STRING)


def answer_images(operator: PhysicalOperator, context: ExecutionContext,
                  table_name: str, image_column: str, question: str,
                  answer_type: str,
                  infer: Callable[[list[Image]], Sequence[object]],
                  ) -> tuple[Table, list[object]]:
    """What VisualQA and Image Select share: *question* asked of every
    image of a column through the modality batch seam.  Returns ``(table,
    one answer per row)``; null cells answer ``None``.

    Cache keys are ``(image fingerprint, question, answer_type)``.
    Images are keyed batch by batch (:meth:`Image.keyed`): a lazy lake
    image without a digest is rendered once, that raster is what *infer*
    sees on a cache miss, and it is dropped with its batch instead of
    staying on the lake.
    """
    table = operator.require_column(context, table_name, image_column,
                                    DataType.IMAGE)

    def keyed() -> Iterator[tuple[AnswerKey, Image] | None]:
        for image in table.column(image_column):
            if image is None:
                yield None
                continue
            if not isinstance(image, Image):
                raise OperatorError(
                    f"column {image_column!r} holds {type(image).__name__}, "
                    "not images", operator=operator.name)
            view = image.keyed()
            yield (view.fingerprint(), question, answer_type), view

    answers = answer_column(context, keyed(), infer, "vision_inferences")
    return table, answers


class VisualQAOperator(PhysicalOperator):
    """Ask a question about every image in a column; store typed answers."""

    card = OperatorCard(
        name="Visual Question Answering",
        purpose=("It is useful when you want to extract structured "
                 "information from images, e.g. how many objects of some "
                 "kind are depicted, or whether something is depicted "
                 "(answered 'yes'/'no'). It adds the answers as a new "
                 "column."),
        argument_format=("(table; image_column; new_column; question; "
                         "answer_type one of int/float/str)"),
        reads=DataType.IMAGE)

    def run(self, context: ExecutionContext, args: list[str]) -> OperatorResult:
        table_name, image_column, new_column, question, answer_type = (
            self.require_args(args, 5))
        table, answers = answer_images(
            self, context, table_name, image_column, question,
            answer_type.strip().lower(),
            lambda images: [
                cast_answer(raw, answer_type, self.name) for raw in
                context.vision_model.answer_many(images, question)])
        result = table.with_column(new_column, answer_dtype(answer_type),
                                   answers)
        samples = result.sample_values(new_column)
        observation = (
            f"New column {new_column!r} has been added to the table. "
            f"Example values: {samples}")
        return OperatorResult(table=result, observation=observation)


class ImageSelectOperator(PhysicalOperator):
    """Keep only rows whose image matches a textual description."""

    card = OperatorCard(
        name="Image Select",
        purpose=("It is useful for when you want to select tuples based on "
                 "what is depicted in images, e.g. keep only the paintings "
                 "depicting a certain object."),
        argument_format="(table; image_column; description of what to keep)",
        reads=DataType.IMAGE)

    def run(self, context: ExecutionContext, args: list[str]) -> OperatorResult:
        table_name, image_column, description = self.require_args(args, 3)
        table, matches = answer_images(
            self, context, table_name, image_column, description, "select",
            lambda images: context.vision_model.matches_many(images,
                                                             description))
        result = table.filter([bool(keep) for keep in matches])
        observation = (
            f"Image Select kept {result.num_rows} of {table.num_rows} rows "
            f"matching {description!r}.")
        return OperatorResult(table=result, observation=observation)


register_operator(VisualQAOperator)
register_operator(ImageSelectOperator)
