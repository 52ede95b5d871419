"""One LRU cache structure for both cache spaces.

The plan cache (:class:`repro.core.batch.PlanCache`) and the answer cache
(:class:`repro.core.answer_cache.AnswerCache`) are one structure: a
bounded LRU with hit/miss/eviction counters, persisted to a versioned
JSON file and optionally fronting the shared cache tier
(:mod:`repro.cachenet`).  :class:`Cache` is that structure; what differs
between the two caches is data — a :class:`Space` naming the file format,
the key fields and the value and wire codecs — so each of them is a
subclass that only names its space.

Thread safety: every operation on the entries and counters runs under one
lock, so a single cache may be shared by any number of concurrently
running engines (this is how :meth:`repro.session.Session.batch` shares
its caches across worker engines).  Values are replaced whole by
:meth:`Cache.put`, never mutated, so handing one to several threads is
safe.

With a *tier* (a :class:`~repro.cachenet.CacheClient`) the LRU is a local
write-through front: :meth:`Cache.get_many` answers what it holds and
sends the keys it lacks to the tier in one ``mget``, installing what the
tier returns; :meth:`Cache.put_many` installs locally and forwards one
``mput``.  A local hit never touches the wire.  An unreachable tier costs
one ``cachenet_fallbacks`` count per failed RPC — a failed ``mget`` reads
as "the tier had none of these", a failed ``mput`` leaves the values in
the local front — so a down tier slows warm-up but never fails a lookup.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.core.persist import atomic_write_text


@dataclass(frozen=True)
class Space:
    """How one cache space is named, persisted and sent to a tier."""

    #: the tier's name for the space (the ``space`` field of a request)
    name: str
    #: format marker written into the space's cache files
    file_format: str
    #: capacity of a cache constructed without one
    capacity: int
    #: file-entry field of each key part, in key order
    key_fields: tuple[str, ...]
    #: file-entry field of the value
    value_field: str
    #: what a lookup returns for an absent key
    miss: object
    #: stored value -> JSON and back (files, tier values)
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    #: key -> the tier's ``{"key": ..., "ns": ...}`` request item and back
    wire_item: Callable[[tuple], dict]
    wire_key: Callable[[dict], tuple]

    def entry(self, key: tuple, value: object) -> dict:
        """The cache-file entry of one cached pair."""
        entry = dict(zip(self.key_fields, key))
        entry[self.value_field] = self.encode(value)
        return entry

    def read_entry(self, entry: dict) -> tuple[tuple, object]:
        """Inverse of :meth:`entry`."""
        return (tuple(entry[field] for field in self.key_fields),
                self.decode(entry[self.value_field]))

    def wire_entry(self, key: tuple, value: object) -> dict:
        """The tier's ``put`` / ``mput`` entry of one cached pair."""
        return {**self.wire_item(key), "value": self.encode(value)}


class Cache:
    """A bounded, thread-safe LRU cache of one :class:`Space`.

    Subclasses set :attr:`space`.  *capacity* defaults to the space's;
    *tier* makes the cache a local front over the shared cache tier (see
    the module docstring); *metrics* (a :class:`~repro.obs.
    MetricsRegistry`) receives the front's ``cachenet_hits`` /
    ``cachenet_misses`` / ``cachenet_fallbacks`` counts.
    """

    space: Space

    def __init__(self, capacity: int | None = None, tier=None,
                 metrics=None):
        if capacity is None:
            capacity = self.space.capacity
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got "
                             f"{capacity}")
        self.capacity = capacity
        self.tier = tier
        self._metrics = metrics
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._memo_scope = object()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: tuple) -> object:
        """The cached value for *key*, or the space's miss value."""
        return self.get_many((key,))[0]

    def put(self, key: tuple, value: object) -> None:
        """Store *value* under *key*, replacing any previous value."""
        self.put_many(((key, value),))

    def get_many(self, keys: Sequence[tuple]) -> list[object]:
        """The cached value or the space's miss value for each key.

        Every key counts as one hit or one miss, wherever it was found.
        The local entries answer first, under one lock acquisition; with
        a tier, the keys they lack go to it in one ``mget``.
        """
        miss = self.space.miss
        with self._lock:
            entries = self._entries
            found = [entries.get(key, miss) for key in keys]
            absent = []
            for slot, value in enumerate(found):
                if value is miss:
                    absent.append(slot)
                else:
                    entries.move_to_end(keys[slot])
            self._hits += len(found) - len(absent)
            if self.tier is None or not absent:
                self._misses += len(absent)
                return found
        fetched = self._fetch(keys, absent, found)
        with self._lock:
            self._hits += fetched
            self._misses += len(absent) - fetched
        return found

    def _fetch(self, keys: Sequence[tuple], absent: list[int],
               found: list[object]) -> int:
        """Ask the tier for the keys at the *absent* slots, fill *found*
        with what it holds and install that locally; returns how many."""
        space = self.space
        replies = self._ask_tier(
            self.tier.mget,
            [space.wire_item(keys[slot]) for slot in absent]) or []
        fetched = []
        for slot, reply in zip(absent, replies):
            if reply.get("hit"):
                found[slot] = space.decode(reply.get("value"))
                fetched.append((keys[slot], found[slot]))
        self._count("cachenet_hits", len(fetched))
        self._count("cachenet_misses", len(replies) - len(fetched))
        self.install(fetched)
        return len(fetched)

    def put_many(self, entries: Iterable[tuple[tuple, object]]) -> None:
        """Store every ``(key, value)`` pair under one lock acquisition;
        with a tier, then forward them in one best-effort ``mput``."""
        entries = list(entries)
        self.install(entries)
        if self.tier is not None and entries:
            self._ask_tier(self.tier.mput,
                           [self.space.wire_entry(key, value)
                            for key, value in entries])

    def install(self, entries: Iterable[tuple[tuple, object]]) -> None:
        """Store values as given in the local entries only: nothing is
        forwarded to a tier and no lookup is counted.  For values the
        tier already holds, or that reach it some other way."""
        with self._lock:
            for key, value in entries:
                self._entries[key] = value
                self._entries.move_to_end(key)
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1

    def rewrite(self, change: Callable[[tuple, Any], tuple]) -> None:
        """Replace each local ``(key, value)`` with ``change(key, value)``,
        in LRU order; nothing is forwarded and no lookup is counted."""
        with self._lock:
            self._entries = OrderedDict(
                change(key, value) for key, value in self._entries.items())
            self._memo_scope = object()

    def _ask_tier(self, rpc: Callable[[str, list], object],
                  payload: list) -> object:
        """``rpc(space name, payload)``, or ``None`` after counting one
        fallback when the tier is unreachable."""
        # Imported here: repro.core does not load repro.cachenet, and a
        # cache with a tier has it loaded already.
        from repro.cachenet.protocol import CacheUnavailable
        try:
            return rpc(self.space.name, payload)
        except CacheUnavailable:
            self._count("cachenet_fallbacks")
            return None

    def _count(self, name: str, value: int = 1) -> None:
        if self._metrics is not None and value:
            self._metrics.increment(name, value)

    def clear(self) -> int:
        """Drop every entry (counters are kept); returns the count."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._memo_scope = object()
            return dropped

    @property
    def memo_scope(self) -> object:
        """The token a memo of this cache's entries is filed under.

        It is replaced when every entry leaves or may change
        (:meth:`clear`, :meth:`rewrite`), so a memo filed under another
        token is stale.  One filed under the current token may still
        name keys the cache has evicted since: :meth:`touch` finds them.
        A cache built by :meth:`load` is a new object with a token of
        its own.
        """
        return self._memo_scope

    def touch(self, keys: Sequence[tuple]) -> bool:
        """Look *keys* up in order without reading their values, if the
        local entries hold them all: each moves to the most recent end
        and counts one hit, as :meth:`get_many` would leave it.  Returns
        ``False``, changing nothing, when one is absent (the tier is not
        asked)."""
        with self._lock:
            entries = self._entries
            if not all(map(entries.__contains__, keys)):
                return False
            move = entries.move_to_end
            for key in keys:
                move(key)
            self._hits += len(keys)
        return True

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

    def stats(self) -> dict[str, int]:
        """A consistent ``entries`` / ``capacity`` / ``hits`` / ``misses``
        / ``evictions`` record: the block a metrics scrape reports for
        this cache (the tier's STATS, a session's ``local_caches``)."""
        with self._lock:
            return {"entries": len(self._entries),
                    "capacity": self.capacity, "hits": self._hits,
                    "misses": self._misses, "evictions": self._evictions}

    def items(self) -> list[tuple[tuple, object]]:
        """A consistent snapshot of ``(key, value)`` pairs in LRU order
        (least recent first); values are immutable, so sharing is safe."""
        with self._lock:
            return list(self._entries.items())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Persist every entry to *path* as JSON; returns the count.

        Entries are written in LRU order (least recent first), so a
        :meth:`load` restores the eviction order too.  The write is
        atomic (temp file + ``os.replace``), so a save interrupted by
        SIGTERM — or racing another save to the same path — can never
        leave a torn file.
        """
        with self._lock:
            entries = [self.space.entry(key, value)
                       for key, value in self._entries.items()]
        payload = {"format": self.space.file_format,
                   "capacity": self.capacity, "entries": entries}
        # Compact separators and no indent keep ``json``'s C encoder.
        atomic_write_text(path, json.dumps(payload, separators=(",", ":"))
                          + "\n")
        return len(entries)

    @classmethod
    def load(cls, path: str | Path, capacity: int | None = None) -> Cache:
        """Rehydrate a cache persisted with :meth:`save`.

        *capacity* overrides the persisted capacity; counters start at
        zero (a loaded cache has served nothing yet).  Excess entries (a
        file saved from a larger cache) are dropped oldest-first.
        """
        space = cls.space
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != space.file_format:
            raise ValueError(
                f"{path} is not a {space.file_format} cache file "
                f"(format={payload.get('format')!r})")
        cache = cls(capacity if capacity is not None
                    else payload.get("capacity", space.capacity))
        cache.install(space.read_entry(entry) for entry
                      in payload.get("entries", [])[-cache.capacity:])
        return cache
