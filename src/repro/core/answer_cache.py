"""Answer memoization for the modality models (VQA / TextQA / Image Select).

Execution dominates batch wall-clock (~80%), and almost all of it is spent
re-answering the same question about the same object: repeated queries, plan
retries, and overlapping workloads all hit the same ``(object, question)``
pairs.  :class:`AnswerCache` memoizes those answers across queries *and*
across worker threads.

Keys are ``(object fingerprint, question, answer type)``:

- the *object fingerprint* is a content digest of the image raster or text
  document (:meth:`repro.vision.image.Image.fingerprint`,
  :func:`text_fingerprint`), so a cached answer is only reused for
  byte-identical inputs — never for a path or table that happens to share a
  name;
- the *question* is the fully instantiated question string (templates are
  expanded per row before lookup);
- the *answer type* is the declared cast (``int``/``str``/…), so the same
  question asked with a different cast never aliases.

Because extractive QA legitimately answers ``None`` ("the text does not say"),
``None`` is a cacheable value; misses are reported with the :data:`MISS`
sentinel instead.

Thread safety: every operation (lookups, insertions, and the hit/miss/eviction
counters) is performed under one internal lock, so a single ``AnswerCache``
may be shared by any number of concurrently executing operators — this is how
:meth:`repro.session.Session.batch` shares one cache across its worker
engines.  The modality operators look a column up with one
:meth:`AnswerCache.get_many` and store its misses with one
:meth:`AnswerCache.put_many`; the single-key ``get``/``put`` are the same
operations on one key.
"""

from __future__ import annotations

import hashlib

from repro.core.cache import Cache, Space
from repro.data.datatypes import decode_scalar, encode_scalar

#: Sentinel returned by :meth:`AnswerCache.get` for absent keys (``None`` is
#: a legitimate cached answer).
MISS = object()

#: ``(object fingerprint, question, answer type)``
AnswerKey = tuple[str, str, str]

#: Format marker written into persisted answer-cache files.
ANSWER_CACHE_FORMAT = "repro-answer-cache/v1"


def text_fingerprint(document: str) -> str:
    """Stable content digest of a text document (TextQA cache keys)."""
    return hashlib.sha256(document.encode("utf-8")).hexdigest()[:24]


def _answer_key(item: dict) -> AnswerKey:
    fingerprint, question, answer_type = item["key"]
    return fingerprint, question, answer_type


#: The answer space: ``(fingerprint, question, answer type)`` → answer.
#: Keys are content-addressed, so the tier needs no namespace; answers
#: travel through :func:`encode_scalar` / :func:`decode_scalar`, which
#: keep dates and ``None`` intact.
ANSWER_SPACE = Space(
    name="answer", file_format=ANSWER_CACHE_FORMAT, capacity=65536,
    key_fields=("fingerprint", "question", "answer_type"),
    value_field="answer", miss=MISS,
    encode=encode_scalar, decode=decode_scalar,
    wire_item=lambda key: {"key": list(key)}, wire_key=_answer_key)


class AnswerCache(Cache):
    """A bounded, thread-safe LRU cache of modality-model answers
    (:class:`~repro.core.cache.Cache` over :data:`ANSWER_SPACE`); see the
    module docstring for the key discipline."""

    space = ANSWER_SPACE


def _digest(value: object) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a digest string, got {value!r}")
    return value


#: The render space: ``(scene key,)`` → the raster digest
#: (:meth:`~repro.vision.image.Image.fingerprint`) of a lazy image
#: (:meth:`~repro.vision.renderer.LazyImage.map_key`).  A process that
#: finds an image's digest here keys the image's answers without
#: rendering it.  Kept in memory only: its file format is never written
#: by a session or by the tier.
RENDER_SPACE = Space(
    name="render", file_format="repro-render-cache/v1",
    capacity=ANSWER_SPACE.capacity, key_fields=("scene",),
    value_field="fingerprint", miss=MISS, encode=_digest, decode=_digest,
    wire_item=lambda key: {"key": key[0]},
    wire_key=lambda item: (_digest(item["key"]),))


class RenderCache(Cache):
    """Raster digests by scene key (:data:`RENDER_SPACE`): the map that
    lets a fresh replica over a warm tier key its lake images without
    rendering them.  A digest found here is only ever used as an
    answer-cache key; :meth:`Image.fingerprint` still hashes pixels."""

    space = RENDER_SPACE
