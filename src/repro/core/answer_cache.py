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
import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.persist import atomic_write_text
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


class AnswerCache:
    """A bounded, thread-safe LRU cache of modality-model answers.

    All methods are safe to call from multiple threads; see the module
    docstring for the key discipline.
    """

    #: re-exported for call sites that only import the class
    MISS = MISS

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got "
                             f"{capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[AnswerKey, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: AnswerKey) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: AnswerKey) -> object:
        """The cached answer for *key*, or :data:`MISS`."""
        return self.get_many((key,))[0]

    def put(self, key: AnswerKey, answer: object) -> None:
        self.put_many(((key, answer),))

    def get_many(self, keys: Sequence[AnswerKey]) -> list[object]:
        """The cached answer or :data:`MISS` for each key, under one lock
        acquisition; every key counts as one hit or one miss."""
        with self._lock:
            found = self._take(keys)
            self._misses += sum(answer is MISS for answer in found)
        return found

    def put_many(self,
                 entries: Iterable[tuple[AnswerKey, object]]) -> None:
        """Store every ``(key, answer)`` pair under one lock acquisition."""
        with self._lock:
            for key, answer in entries:
                self._entries[key] = answer
                self._entries.move_to_end(key)
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1

    def _take(self, keys: Sequence[AnswerKey]) -> list[object]:
        """Lookup with the lock held: present keys are refreshed and
        counted as hits; absent ones come back :data:`MISS`, uncounted."""
        entries = self._entries
        found = [entries.get(key, MISS) for key in keys]
        hits = 0
        for key, answer in zip(keys, found):
            if answer is not MISS:
                entries.move_to_end(key)
                hits += 1
        self._hits += hits
        return found

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def hit_rate(self) -> float:
        with self._lock:
            lookups = self._hits + self._misses
            return self._hits / lookups if lookups else 0.0

    def snapshot(self) -> tuple[int, int, int]:
        """A consistent ``(hits, misses, evictions)`` triple."""
        with self._lock:
            return self._hits, self._misses, self._evictions

    def items(self) -> list[tuple[AnswerKey, object]]:
        """A consistent snapshot of ``(key, answer)`` pairs in LRU order.

        Used by the process backend to ship warm answers to worker
        initializers, mirroring ``PlanCache.items()``.
        """
        with self._lock:
            return list(self._entries.items())

    # ------------------------------------------------------------------
    # Persistence (mirrors PlanCache.save/load)
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Persist every cached answer to *path* as JSON.

        Entries are written in LRU order (least-recent first), so a
        :meth:`load` restores both the answers and the eviction order.
        Answers are encoded with :func:`~repro.data.datatypes.
        encode_scalar`, so dates and ``None`` ("the text does not say")
        survive the round trip.  The write is atomic (temp file +
        ``os.replace``), so a save interrupted by SIGTERM — or racing
        another save to the same path — can never leave a torn file.
        Returns the number of entries written.
        """
        with self._lock:
            entries = [
                {"fingerprint": fingerprint, "question": question,
                 "answer_type": answer_type, "answer": encode_scalar(answer)}
                for (fingerprint, question, answer_type), answer
                in self._entries.items()
            ]
        payload = {"format": ANSWER_CACHE_FORMAT, "capacity": self.capacity,
                   "entries": entries}
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
        return len(entries)

    @classmethod
    def load(cls, path: str | Path,
             capacity: int | None = None) -> "AnswerCache":
        """Rehydrate a cache persisted with :meth:`save`.

        *capacity* overrides the persisted capacity; counters start at
        zero (a loaded cache has served nothing yet).  Excess entries (a
        file saved from a larger cache) are dropped oldest-first.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != ANSWER_CACHE_FORMAT:
            raise ValueError(
                f"{path} is not an answer-cache file "
                f"(format={payload.get('format')!r})")
        cache = cls(capacity if capacity is not None
                    else payload.get("capacity", 65536))
        entries = payload.get("entries", [])[-cache.capacity:]
        for entry in entries:
            key = (entry["fingerprint"], entry["question"],
                   entry["answer_type"])
            cache._entries[key] = decode_scalar(entry["answer"])
        return cache
