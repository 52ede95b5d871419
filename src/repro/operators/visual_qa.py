"""Visual Question Answering and Image Select physical operators (BLIP-2)."""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.answer_cache import MISS, AnswerKey
from repro.data.columns import Column, pooled
from repro.data.datatypes import DataType
from repro.data.table import Table
from repro.errors import OperatorError
from repro.operators.base import (ExecutionContext, OperatorCard,
                                  OperatorResult, PhysicalOperator,
                                  register_operator)
from repro.operators.modality import AnswerMemo, answer_column, pool_memo
from repro.vision.image import Image
from repro.vision.renderer import renders_in_thread

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
                  dtype: DataType) -> tuple[Table, Column]:
    """What VisualQA and Image Select share: *question* asked of every
    image of a column through the modality batch seam.  Returns ``(table,
    one answer per row as a *dtype* column)``; null cells answer ``None``.

    The column's images are pool entries (pooled by identity), and the
    answers are memoised per entry on the pool (:func:`~repro.operators.
    modality.pool_memo`), so a warm step keys no image.  Cache keys are
    ``(image fingerprint, question, answer_type)``; an image the memo
    lacks is keyed once, by :func:`key_images`.  A digest the render map
    serves is filed per entry in the pool's ``map_digests`` memo, under
    the render cache's scope, so the next question about the entry asks
    the map nothing; it only ever keys answers, never
    :meth:`Image.fingerprint`.  The rasters the step rendered, to key
    images or to show them to the model, are counted as
    ``images_rendered``.
    """
    table = operator.require_column(context, table_name, image_column,
                                    DataType.IMAGE)
    images = pooled(table.storage(image_column))
    pool = images.pool

    def subjects(entries: list[int]) -> list[tuple[AnswerKey, Image]]:
        batch = list(map(pool.__getitem__, entries))
        for image in batch:
            if not isinstance(image, Image):
                raise OperatorError(
                    f"column {image_column!r} holds {type(image).__name__}, "
                    "not images", operator=operator.name)
        renders = context.render_cache
        digests = (None if renders is None
                   else pool_memo(images, renders, (), dict, "map_digests"))
        return [((digest, question, answer_type), view)
                for digest, view in key_images(context, batch, entries,
                                               digests)]

    cache = context.answer_cache
    memo = (None if cache is None
            else pool_memo(images, cache, (question, answer_type),
                           lambda: AnswerMemo(len(pool))))
    before = renders_in_thread()
    answers = answer_column(context, images.codes, memo, subjects, infer,
                            "vision_inferences", dtype)
    rendered = renders_in_thread() - before
    if rendered:
        context.count("images_rendered", rendered)
    return table, answers


def key_images(context: ExecutionContext, images: list[Image],
               entries: list[int],
               digests: dict[int, str] | None) -> list[tuple[str, Image]]:
    """Each image's digest for its answer-cache key, and the image to
    show the model on a miss.  *entries* are the images' pool entries and
    *digests* what the render map served for them before, by entry
    (``None`` without a render map).

    An image whose keying would render it (a lazy lake image without a
    digest, :meth:`Image.map_key`) and whose entry *digests* lacks is
    looked up in the context's render map first, all of them with one
    ``get_many`` (one ``mget`` on a tier).  A digest found there keys the
    image as it is, unrendered, and is filed in *digests*.  The other
    images are keyed by :meth:`Image.keyed`, which renders such an image
    once and returns that raster for the model, to be dropped with its
    batch.  The digests the map lacked are published with one
    ``put_many``.
    """
    renders = context.render_cache
    served = {} if digests is None else digests
    scene_keys = [None if renders is None or entry in served
                  else image.map_key()
                  for entry, image in zip(entries, images)]
    wanted = [(key,) for key in scene_keys if key is not None]
    found = dict(zip(wanted, renders.get_many(wanted))) if wanted else {}
    keyed, fresh = [], []
    for entry, image, key in zip(entries, images, scene_keys):
        digest = served.get(entry) or found.get((key,), MISS)
        if digest is MISS:
            image = image.keyed()
            digest = image.fingerprint()
            if key is not None:
                fresh.append(((key,), digest))
        elif key is not None:
            served[entry] = digest
        keyed.append((digest, image))
    if len(fresh) < len(wanted):
        context.count("image_keys_from_map", len(wanted) - len(fresh))
    if fresh:
        renders.put_many(fresh)
    return keyed


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
        dtype = answer_dtype(answer_type)
        table, answers = answer_images(
            self, context, table_name, image_column, question,
            answer_type.strip().lower(),
            lambda images: [
                cast_answer(raw, answer_type, self.name) for raw in
                context.vision_model.answer_many(images, question)], dtype)
        result = table.with_column(new_column, dtype, answers)
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
                                                             description),
            DataType.BOOLEAN)
        result = table.filter(matches.materialize())
        observation = (
            f"Image Select kept {result.num_rows} of {table.num_rows} rows "
            f"matching {description!r}.")
        return OperatorResult(table=result, observation=observation)


register_operator(VisualQAOperator)
register_operator(ImageSelectOperator)
