"""The batch seam shared by VisualQA, Image Select and TextQA.

A modality operator answers one question about every object of a column.
:func:`answer_column` does that a batch of rows at a time: look the
batch's distinct answer-cache keys up with one ``AnswerCache.get_many``
(one ``mget`` against a cache tier), run the model on the distinct misses
only, store them with one ``put_many``.

Counters read as a row-at-a-time ``get`` / infer / ``put`` loop would
have left them: every non-null row is one cache lookup, and a key that
repeats inside a batch (the same image after a join) is looked up again
once the first occurrence's answer is stored — one miss and n-1 hits.
Without a cache the keys go unused and every non-null row is inferred.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

from repro.core.answer_cache import MISS, AnswerKey
from repro.operators.base import ExecutionContext

#: Rows looked up and inferred together: one ``mget`` and at most one
#: ``mput`` against a cache tier per this many rows.  It also bounds what
#: a batch keeps alive — 64 transient 64x64 rasters are 768 KB — which is
#: why it is not larger: throughput is flat from 64 to 256 rows, peak
#: memory is not.
BATCH_ROWS = 64


def answer_column(context: ExecutionContext,
                  items: Iterable[tuple[AnswerKey, object] | None],
                  infer: Callable[[list], Sequence[object]],
                  inference_counter: str) -> list[object]:
    """One answer per item of *items*.

    An item is ``(answer-cache key, object)``, or ``None`` for a null
    cell, which answers ``None``.  Equal keys mean interchangeable
    objects.  *infer* answers a list of objects (already cast to the
    operator's answer type) and is counted per object under
    *inference_counter*.

    *items* is consumed :data:`BATCH_ROWS` at a time and a finished
    batch is dropped, so an iterable that materializes its objects
    lazily (rendered images) keeps one batch of them alive.
    """
    answers: list[object] = []
    stream = iter(items)
    while batch := list(itertools.islice(stream, BATCH_ROWS)):
        answers.extend(_answer_batch(context, batch, infer,
                                     inference_counter))
    return answers


def _answer_batch(context: ExecutionContext,
                  batch: list[tuple[AnswerKey, object] | None],
                  infer: Callable[[list], Sequence[object]],
                  inference_counter: str) -> list[object]:
    pairs = [item for item in batch if item is not None]
    cache = context.answer_cache
    if cache is None:
        fresh = iter(_infer(context, [item for _, item in pairs], infer,
                            inference_counter))
        return [None if item is None else next(fresh) for item in batch]

    objects: dict[AnswerKey, object] = {}  # distinct keys, first seen
    for key, item in pairs:
        objects.setdefault(key, item)
    known = dict(zip(objects, cache.get_many(list(objects))))
    missed = [key for key, answer in known.items() if answer is MISS]
    if missed:
        fresh = _infer(context, [objects[key] for key in missed], infer,
                       inference_counter)
        known.update(zip(missed, fresh))
        cache.put_many(list(zip(missed, fresh)))
    misses = len(missed)
    if len(objects) < len(pairs):
        # Repeats are looked up now that their first occurrence is
        # stored: hits, unless the cache is too small to hold the batch.
        seen: set[AnswerKey] = set()
        repeats = [key for key, _ in pairs
                   if key in seen or seen.add(key)]
        misses += sum(answer is MISS for answer in cache.get_many(repeats))
    context.record_answer_lookup(True, len(pairs) - misses)
    context.record_answer_lookup(False, misses)
    return [None if item is None else known[item[0]] for item in batch]


def _infer(context: ExecutionContext, objects: list,
           infer: Callable[[list], Sequence[object]],
           inference_counter: str) -> Sequence[object]:
    if not objects:
        return []
    answers = infer(objects)
    context.count(inference_counter, len(objects))
    return answers
