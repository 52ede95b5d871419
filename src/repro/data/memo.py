"""What is derived from an immutable owner, memoised in one place.

An owner — a :class:`~repro.data.table.Table`, a pool (shared by a
:class:`~repro.data.columns.PooledColumn` and every take of it) or a
:class:`~repro.data.catalog.DataLake` version — holds one :class:`Memo`.
:data:`KINDS` declares each kind of value once, with its owner and its
bound.  One rule holds for every kind: ``build`` runs outside the lock,
the value is stored under one module lock, and the first value stored
wins, so threads that miss together get the same object.  A bounded
kind drops its oldest entry.  :data:`memo_builds` counts builds per
kind under that lock; a hit counts nothing, and a process lane's worker
counts in its own process.  Pickling an owner empties its memo.
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple, TypeVar

_T = TypeVar("_T")
_ABSENT = object()
_NONE: dict = {}


class Kind(NamedTuple):
    owner: str  # "table", "pool" or "lake"
    #: entries one owner keeps; ``None`` when the owner bounds the keys
    #: itself (one per column, per pool entry)
    bound: int | None = None


KINDS: dict[str, Kind] = {
    # A table's content digest, and its schema line per name.
    "fingerprint": Kind("table"),
    "prompt_line": Kind("table"),
    "hint": Kind("table"),          # discovery's, per (name, column)
    "join_index": Kind("table"),
    "udf": Kind("table", 8),        # per (input column, source)
    "index": Kind("pool"),          # a string pool's codes by text
    "order": Kind("pool"),          # its Python order
    "answers": Kind("pool", 64),    # per (question, answer type)
    "udf_values": Kind("pool", 8),  # per source: its value per entry
    "join_probes": Kind("pool", 4),  # per join index
    "text_fingerprint": Kind("pool"),  # per document
    "map_digests": Kind("pool"),    # the render map's digest per entry
    "lake_prompt": Kind("lake"),
    "lake_fingerprint": Kind("lake"),
    "tables_section": Kind("lake"),
    "prompt_digest": Kind("lake"),  # a source's schema digest, per name
}

#: Builds per kind in this process (copy it with ``dict()`` to read).
memo_builds: dict[str, int] = dict.fromkeys(KINDS, 0)

_LOCK = threading.Lock()


class Memo:
    """The derived values of one owner, by kind and key."""

    __slots__ = ("owner", "_kinds")

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._kinds: dict[str, dict[object, object]] = {}

    def get(self, kind: str, key: object, build: Callable[[], _T],
            fresh: Callable[[_T], bool] | None = None) -> _T:
        """The *kind* value under *key*, built by *build* on a miss.  A
        stored value *fresh* rejects is replaced, not kept beside the new
        one; a *build* that raises stores nothing."""
        value = self._kinds.get(kind, _NONE).get(key, _ABSENT)
        if value is not _ABSENT and (fresh is None or fresh(value)):
            return value  # type: ignore[return-value]
        spec = KINDS[kind]
        if spec.owner != self.owner:
            raise ValueError(f"memo kind {kind!r} belongs to a "
                             f"{spec.owner}, not a {self.owner}")
        value = build()
        with _LOCK:
            memo_builds[kind] += 1
            entries = self._kinds.setdefault(kind, {})
            stored = entries.get(key, _ABSENT)
            if stored is _ABSENT or fresh is not None and not fresh(stored):
                entries.pop(key, None)  # a stale value moves to the end
                stored = entries[key] = value
                if spec.bound is not None and len(entries) > spec.bound:
                    del entries[next(iter(entries))]
        return stored  # type: ignore[return-value]

    def __len__(self) -> int:
        return sum(map(len, self._kinds.values()))

    def __reduce__(self) -> tuple:
        return Memo, (self.owner,)
