"""The batch seam shared by VisualQA, Image Select and TextQA.

A modality operator answers one question about every object of a column.
The objects are the entries of a pool: an IMAGE or TEXT column is int32
codes into a pool (:class:`~repro.data.columns.PooledColumn`), and TextQA
pools the distinct (document, placeholder values) rows of its step.
:func:`answer_column` answers the rows :data:`BATCH_ROWS` at a time:
look the batch's distinct answer-cache keys up with one
``AnswerCache.get_many`` (one ``mget`` against a cache tier), run the
model on the distinct misses only, store them with one ``put_many``,
then look the repeated keys up again.

Each entry's key and answer are kept in an :class:`AnswerMemo` per
(pool, question, answer type), filed under the answer cache's
:attr:`~repro.core.cache.Cache.memo_scope`.  A pool keeps its answer
memos in its :class:`~repro.data.memo.Memo` (the ``answers`` kind, read
by :func:`pool_memo`), which every take of the column shares, so an
entry is keyed once, not once per step.  When the memo knows every
row's entry and the cache still holds every key, a step is one
``Cache.touch`` of the keys in the order the batches above would look
them up, and a numpy gather of the memo's answers,
``memo.values[codes]``: the cache's LRU order and counters end as the
batches would leave them, with no key built and no answer list made.
Otherwise (an entry not keyed yet, a key the cache has evicted since)
the step runs the batches.  The answer cache stays the source of truth
and the persisted file; a new scope (a ``clear``, a loaded cache,
another cache) starts an empty memo.

Counters read as a row-at-a-time ``get`` / infer / ``put`` loop would
have left them: every non-null row is one cache lookup, and a key that
repeats inside a batch (the same image after a join) is looked up again
once the first occurrence's answer is stored — one miss and n-1 hits.
Without a cache there is no memo: every non-null row is inferred.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.core.answer_cache import MISS, AnswerKey
from repro.data.columns import (Column, ObjectColumn, PooledColumn,
                                build_column)
from repro.data.datatypes import DataType
from repro.operators.base import ExecutionContext

#: Pool entries looked up and inferred together: one ``mget`` and at most
#: one ``mput`` against a cache tier per this many entries.  It also
#: bounds what a batch keeps alive — 64 transient 64x64 rasters are
#: 768 KB — which is why it is not larger: throughput is flat from 64 to
#: 256, peak memory is not.
BATCH_ROWS = 64

_M = TypeVar("_M")

#: ``subjects(entries) -> [(answer-cache key, object for the model)]``,
#: one pair per pool entry.
Subjects = Callable[[list[int]], list[tuple[AnswerKey, object]]]


class AnswerMemo:
    """Answers to one question about the entries of one pool, and their
    keys in the answer cache.  Equal keys mean interchangeable objects,
    so an answer is a function of its key."""

    __slots__ = ("values", "keys", "canon", "known", "_ids", "_packed")

    def __init__(self, size: int) -> None:
        # values[size] stays None: what a null cell's code -1 gathers.
        self.values = np.full(size + 1, None, dtype=object)
        self.keys = np.full(size, None, dtype=object)
        # canon[e]: the first entry keyed like entry e (-1: e is not
        # keyed yet), so equal keys are one number to numpy.
        self.canon = np.full(size, -1, dtype=np.intp)
        self.known = np.zeros(size, dtype=bool)
        self._ids: dict[AnswerKey, int] = {}
        self._packed: tuple[np.ndarray, Column] | None = None

    def key(self, entries: list[int], keys: list[AnswerKey]) -> None:
        """Record the answer-cache *keys* of *entries*."""
        ids = self._ids
        canon = [ids.setdefault(key, entry)
                 for entry, key in zip(entries, keys)]
        self.keys[entries] = np.fromiter(keys, dtype=object,
                                         count=len(entries))
        self.canon[entries] = canon

    def store(self, entries: list[int], answers: list[object]) -> None:
        """Record the *answers* of keyed *entries*."""
        for entry, answer in zip(entries, answers):
            self.values[entry] = answer
        # Known entries are stored before they are marked known.
        self.known[entries] = True

    def column(self, codes: np.ndarray, dtype: DataType) -> Column:
        """The answers at *codes* (all known, or -1) as a *dtype* column,
        gathered from the memo packed once into the same store a list of
        those answers packs into."""
        packed = self._packed
        present = codes[codes >= 0]
        if packed is None or not packed[0][present].all():
            known = self.known.copy()
            packed = self._packed = (known,
                                     build_column(self.values.tolist(), dtype))
        if isinstance(packed[1], ObjectColumn):
            # An answer outside these rows kept the memo from packing.
            return build_column(self.values[codes].tolist(), dtype)
        return packed[1].take(codes)


def pool_memo(storage: PooledColumn, cache, key: tuple,
              make: Callable[[], _M], kind: str = "answers") -> _M:
    """The *kind* memo of *storage*'s pool for *key* (for answers: the
    question and answer type) under *cache*'s current scope; a memo of
    another scope is replaced by an empty one, ``make()``."""
    scope = cache.memo_scope
    return storage.memo.get(kind, key, lambda: (scope, make()),
                            lambda filed: filed[0] is scope)[1]


def answer_column(context: ExecutionContext, codes: np.ndarray,
                  memo: AnswerMemo | None, subjects: Subjects,
                  infer: Callable[[list], Sequence[object]],
                  inference_counter: str, dtype: DataType) -> Column:
    """One answer per row as a *dtype* column.

    *codes* are the rows' pool entries (``-1`` for a null cell, which
    answers ``None``); *memo* holds the entries' keys and answers under
    the context's answer cache (``None`` without one).  *infer* answers
    a list of objects (already cast to the operator's answer type) and
    is counted per object under *inference_counter*.
    """
    cache = context.answer_cache
    if cache is None:
        answers = np.full(len(codes) + 1, None, dtype=object)
        rows = np.flatnonzero(codes >= 0)
        for start in range(0, len(rows), BATCH_ROWS):
            batch = rows[start:start + BATCH_ROWS]
            keyed = subjects(codes[batch].tolist())
            fresh = _infer(context, [item for _, item in keyed], infer,
                           inference_counter)
            for row, answer in zip(batch.tolist(), fresh):
                answers[row] = answer
        return build_column(answers[:-1].tolist(), dtype)
    assert memo is not None
    present = codes[codes >= 0]
    if memo.known[present].all() and cache.touch(_lookups(memo, codes)):
        context.record_answer_lookup(True, len(present))
    else:
        for start in range(0, len(codes), BATCH_ROWS):
            _answer_batch(context, cache, memo,
                          codes[start:start + BATCH_ROWS], subjects, infer,
                          inference_counter)
    return memo.column(codes, dtype)


def _lookups(memo: AnswerMemo, codes: np.ndarray) -> list[AnswerKey]:
    """The keys :func:`_answer_batch` looks up for *codes* when they all
    hit, in its order: per :data:`BATCH_ROWS` rows, each distinct key
    once in first-seen order, then every repeat in row order."""
    rows = np.flatnonzero(codes >= 0)
    ids = memo.canon[codes[rows]]
    batch = rows // BATCH_ROWS
    pairs = batch * len(memo.canon) + ids
    ordered = np.sort(pairs)
    if (ordered[1:] != ordered[:-1]).all():
        return memo.keys[ids].tolist()  # no key repeats inside a batch
    repeat = np.ones(len(rows), dtype=bool)
    repeat[np.unique(pairs, return_index=True)[1]] = False
    return memo.keys[ids[np.lexsort((rows, repeat, batch))]].tolist()


def _answer_batch(context: ExecutionContext, cache, memo: AnswerMemo,
                  codes: np.ndarray, subjects: Subjects,
                  infer: Callable[[list], Sequence[object]],
                  inference_counter: str) -> None:
    """Answer one batch of rows into *memo* through the cache."""
    present = codes[codes >= 0]
    entries = np.unique(present)
    objects: dict[int, object] = {}  # entry -> object for the model
    unkeyed = entries[memo.canon[entries] < 0].tolist()
    if unkeyed:
        keyed = subjects(unkeyed)
        memo.key(unkeyed, [key for key, _ in keyed])
        objects.update(zip(unkeyed, (item for _, item in keyed)))
    ids = memo.canon[present]
    first = np.sort(np.unique(ids, return_index=True)[1])  # first seen
    keys = memo.keys[ids[first]].tolist()
    found = cache.get_many(keys)
    missed = [slot for slot, answer in enumerate(found) if answer is MISS]
    if missed:
        # The model sees the first row's object of each missed key.
        asked = present[first[missed]].tolist()
        lacking = [entry for entry in dict.fromkeys(asked)
                   if entry not in objects]
        if lacking:
            objects.update(zip(lacking,
                               (item for _, item in subjects(lacking))))
        fresh = _infer(context, [objects[entry] for entry in asked], infer,
                       inference_counter)
        for slot, answer in zip(missed, fresh):
            found[slot] = answer
        cache.put_many([(keys[slot], found[slot]) for slot in missed])
    misses = len(missed)
    if len(first) < len(present):
        # Repeats are looked up now that their first occurrence is
        # stored: hits, unless the cache is too small to hold the batch.
        repeat = np.ones(len(present), dtype=bool)
        repeat[first] = False
        misses += sum(answer is MISS for answer
                      in cache.get_many(memo.keys[ids[repeat]].tolist()))
    context.record_answer_lookup(True, len(present) - misses)
    context.record_answer_lookup(False, misses)
    answers = dict(zip(ids[first].tolist(), found))
    memo.store(entries.tolist(),
               [answers[canon] for canon in memo.canon[entries].tolist()])


def _infer(context: ExecutionContext, objects: list,
           infer: Callable[[list], Sequence[object]],
           inference_counter: str) -> Sequence[object]:
    if not objects:
        return []
    answers = infer(objects)
    context.count(inference_counter, len(objects))
    return answers
