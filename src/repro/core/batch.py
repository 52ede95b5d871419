"""Batch execution: many queries over one warmed data lake.

Throughput scenarios need three things the single-query engine does not give
us: amortization of the planning phase across repeated queries, amortization
of modality-model inference across repeated (object, question) pairs, and
aggregate statistics.  This module provides all three:

- :class:`PlanCache` — a thread-safe LRU cache of bound plans
  (:class:`~repro.core.plan.BoundPlan`: the logical plan plus the model's
  discovery and mapping replies from its last clean run) keyed on
  ``(query, lake fingerprint)``.  The fingerprint
  (:meth:`~repro.data.catalog.DataLake.fingerprint`) guarantees a cached
  plan is only reused against a structurally identical lake.  Because the
  plan IR is serializable, a cache can be persisted with :meth:`PlanCache.
  save` and rehydrated with :meth:`PlanCache.load`, so warm plans survive
  across runs (``--plan-cache-file`` in the CLI).
- :func:`execute_batch` — drains a workload through one or more
  :class:`~repro.core.engine.Engine` instances (serial loop for one engine,
  a worker-thread pool for several), all sharing the same two caches.
  Queries are independent (the sqlite bridge is per-call and lake tables
  are immutable by convention), so no cross-query coordination is needed.
  :meth:`repro.session.Session.batch` is the public entry point.

Batches produce a :class:`BatchReport` with per-stage wall-clock totals,
step counts, and cache hit-rates.  Two different clocks are reported:
``wall_seconds`` sums per-query totals (*serial-equivalent* seconds — what
one worker would have spent), while ``elapsed_seconds`` is the real
wall-clock of the whole batch; throughput is computed from the latter, so
it stays honest once queries run concurrently.

:class:`BatchRunner` and :class:`ParallelBatchRunner` are the pre-Session
entry points, kept as deprecated shims over the same internals.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.answer_cache import AnswerCache
from repro.core.engine import Engine, EngineConfig
from repro.core.persist import atomic_write_text
from repro.core.plan import BoundPlan, LogicalPlan, QueryResult
from repro.data.catalog import DataLake
from repro.llm.interface import LanguageModel
from repro.obs.trace import QueryTelemetry

_STAGES = ("discovery", "planning", "mapping", "execution")

DEFAULT_ANSWER_CACHE_SIZE = 65536

#: Format marker written into persisted plan-cache files.
PLAN_CACHE_FORMAT = "repro-plan-cache/v1"


class PlanCache:
    """A bounded LRU cache of bound plans.

    Thread safety: every operation — lookups, insertions, LRU bookkeeping,
    and the hit/miss/eviction counters — happens under one internal lock,
    so a single ``PlanCache`` may be shared by any number of concurrently
    running :class:`~repro.core.engine.Engine` instances (this is how
    :meth:`repro.session.Session.batch` shares one cache across its worker
    engines).  Entries are immutable (:class:`~repro.core.plan.BoundPlan`)
    and only ever replaced whole by :meth:`put`, so handing the same
    entry to several threads is safe and a plan's bound replies are
    evicted, dropped and persisted with it.
    """

    def __init__(self, capacity: int = 128):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got "
                             f"{capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], BoundPlan] = \
            OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple[str, str]) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: tuple[str, str]) -> BoundPlan | None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            return None

    def put(self, key: tuple[str, str],
            plan: BoundPlan | LogicalPlan) -> None:
        """Store *plan* under *key*, replacing any previous entry (a bare
        ``LogicalPlan`` is stored as an entry without bound replies)."""
        with self._lock:
            self._entries[key] = BoundPlan.of(plan)
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

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

    def items(self) -> list[tuple[tuple[str, str], BoundPlan]]:
        """A consistent snapshot of ``(key, entry)`` pairs in LRU order.

        Used by the process backend to ship warm plans to worker
        initializers; entries are immutable, so sharing the objects is
        safe.
        """
        with self._lock:
            return list(self._entries.items())

    def drop_fingerprint(self, fingerprint: str) -> int:
        """Drop every plan cached for *fingerprint*; returns the count.

        This is the invalidation primitive of the shared cache tier
        (:mod:`repro.cachenet`): a lake whose structure changed gets its
        namespace — exactly the plans keyed on its fingerprint — dropped,
        leaving every other lake's plans warm.
        """
        with self._lock:
            doomed = [key for key in self._entries if key[1] == fingerprint]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Persist every cached plan to *path* as JSON.

        Entries are written in LRU order (least-recent first), so a
        :meth:`load` restores both the plans and the eviction order.
        A plan's bound replies ride inside its ``"plan"`` dict under the
        additive ``"bindings"`` key, emitted only when present — files
        written before bindings existed load unchanged and re-save
        byte-identically.
        The write is atomic (temp file + ``os.replace``), so a save
        interrupted by SIGTERM — or racing another save to the same
        path — can never leave a torn file.  Returns the number of
        entries written.
        """
        with self._lock:
            entries = [
                {"query": query, "lake_fingerprint": fingerprint,
                 "plan": plan.to_dict()}
                for (query, fingerprint), plan in self._entries.items()
            ]
        payload = {"format": PLAN_CACHE_FORMAT, "capacity": self.capacity,
                   "entries": entries}
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
        return len(entries)

    @classmethod
    def load(cls, path: str | Path, capacity: int | None = None) -> "PlanCache":
        """Rehydrate a cache persisted with :meth:`save`.

        *capacity* overrides the persisted capacity; counters start at
        zero (a loaded cache has served nothing yet).  Excess entries (a
        file saved from a larger cache) are dropped oldest-first.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != PLAN_CACHE_FORMAT:
            raise ValueError(
                f"{path} is not a plan-cache file "
                f"(format={payload.get('format')!r})")
        cache = cls(capacity if capacity is not None
                    else payload.get("capacity", 128))
        entries = payload.get("entries", [])[-cache.capacity:]
        for entry in entries:
            key = (entry["query"], entry["lake_fingerprint"])
            cache._entries[key] = BoundPlan.from_dict(entry["plan"])
        return cache


@dataclass
class QueryStats:
    """Per-query line of a batch report.

    Timing and cache locality live in the telemetry-derived fields
    ``plan_cache_hit`` / ``total_seconds`` plus the token/cost columns;
    the pre-telemetry spellings ``cache_hit`` and ``seconds`` survive as
    deprecated read-only properties.
    """

    query: str
    kind: str
    ok: bool
    plan_cache_hit: bool
    steps: int
    total_seconds: float
    token_in: int = 0
    token_out: int = 0
    cost_usd: float = 0.0

    @property
    def cache_hit(self) -> bool:
        warnings.warn(
            "QueryStats.cache_hit is deprecated; use "
            "stat.plan_cache_hit", DeprecationWarning, stacklevel=2)
        return self.plan_cache_hit

    @property
    def seconds(self) -> float:
        warnings.warn(
            "QueryStats.seconds is deprecated; use "
            "stat.total_seconds", DeprecationWarning, stacklevel=2)
        return self.total_seconds

    def to_dict(self) -> dict:
        # Both spellings are written so pre-telemetry readers of archived
        # reports keep working; from_dict prefers the new keys.
        return {"query": self.query, "kind": self.kind, "ok": self.ok,
                "plan_cache_hit": self.plan_cache_hit,
                "cache_hit": self.plan_cache_hit,
                "steps": self.steps,
                "total_seconds": self.total_seconds,
                "seconds": self.total_seconds,
                "token_in": self.token_in, "token_out": self.token_out,
                "cost_usd": self.cost_usd}

    @classmethod
    def from_dict(cls, data: dict) -> "QueryStats":
        return cls(query=data["query"], kind=data["kind"], ok=data["ok"],
                   plan_cache_hit=data.get("plan_cache_hit",
                                           data.get("cache_hit", False)),
                   steps=data["steps"],
                   total_seconds=data.get("total_seconds",
                                          data.get("seconds", 0.0)),
                   token_in=data.get("token_in", 0),
                   token_out=data.get("token_out", 0),
                   cost_usd=data.get("cost_usd", 0.0))


@dataclass
class BatchReport:
    """Aggregate outcome of one batch run.

    ``wall_seconds`` is *serial-equivalent* time (the sum of per-query
    totals); ``elapsed_seconds`` is the real wall-clock of the batch.  With
    one worker the two coincide (up to scheduling overhead); with *N*
    workers their ratio is the realized speedup.
    """

    stats: list[QueryStats] = field(default_factory=list)
    results: list[QueryResult] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    answer_hits: int = 0
    answer_misses: int = 0
    answer_evictions: int = 0
    wall_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    workers: int = 1
    #: name of the execution backend that produced this report
    #: (see :mod:`repro.exec`).
    backend: str = "serial"

    @property
    def num_queries(self) -> int:
        return len(self.stats)

    @property
    def num_ok(self) -> int:
        return sum(1 for stat in self.stats if stat.ok)

    @property
    def num_errors(self) -> int:
        return self.num_queries - self.num_ok

    @property
    def total_steps(self) -> int:
        return sum(stat.steps for stat in self.stats)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def answer_hit_rate(self) -> float:
        lookups = self.answer_hits + self.answer_misses
        return self.answer_hits / lookups if lookups else 0.0

    @property
    def queries_per_second(self) -> float:
        elapsed = self.elapsed_seconds or self.wall_seconds
        return self.num_queries / elapsed if elapsed > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Serial-equivalent over elapsed seconds (realized parallelism)."""
        return (self.wall_seconds / self.elapsed_seconds
                if self.elapsed_seconds > 0 else 0.0)

    @property
    def telemetry(self) -> QueryTelemetry:
        """Batch-wide telemetry: every result's spans and summed counters."""
        merged = QueryTelemetry()
        for result in self.results:
            merged = merged.merged(result.telemetry)
        return merged

    @property
    def worker_failures(self) -> list:
        """Every worker-lane :class:`~repro.core.plan.ErrorEvent` in the
        batch (process backend crashes/timeouts), in submission order."""
        return [event for result in self.results
                if result.trace is not None
                for event in result.trace.errors if event.phase == "worker"]

    def to_dict(self, include_results: bool = False) -> dict:
        """JSON-ready encoding.

        The default is the compact metrics record consumed by the
        benchmark harness (rounded floats, no per-query payloads).  With
        ``include_results=True`` the record additionally carries exact
        clocks, per-query stats, and full :class:`~repro.core.plan.
        QueryResult` payloads, making :meth:`from_dict` a lossless
        inverse.
        """
        record = {
            "queries": self.num_queries,
            "ok": self.num_ok,
            "errors": self.num_errors,
            "workers": self.workers,
            "backend": self.backend,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "serial_seconds": round(self.wall_seconds, 6),
            "queries_per_second": round(self.queries_per_second, 3),
            "speedup": round(self.speedup, 3),
            "total_steps": self.total_steps,
            "stage_seconds": {stage: round(self.timings.get(stage, 0.0), 6)
                              for stage in _STAGES},
            "plan_cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
                "hit_rate": round(self.cache_hit_rate, 4),
            },
            "answer_cache": {
                "hits": self.answer_hits,
                "misses": self.answer_misses,
                "evictions": self.answer_evictions,
                "hit_rate": round(self.answer_hit_rate, 4),
            },
            "telemetry": self.telemetry.cost_summary(),
        }
        if include_results:
            record["exact"] = {
                "wall_seconds": self.wall_seconds,
                "elapsed_seconds": self.elapsed_seconds,
                "timings": dict(self.timings),
            }
            record["stats"] = [stat.to_dict() for stat in self.stats]
            record["results"] = [result.to_dict() for result in self.results]
        return record

    def canonical_results(self) -> list[dict]:
        """Result payloads normalized for cross-backend comparison.

        Serial, thread, and process backends must produce identical
        results for the same workload; the only legitimately divergent
        fields are wall-clock timings and cache locality (a thread race
        or a worker-local cache can turn a hit into a miss without
        changing the answer).  This returns each result's ``to_dict()``
        with timings blanked, the plan-cache flag cleared, and the
        telemetry payload normalized via :meth:`~repro.obs.QueryTelemetry.
        canonicalize`, so two reports agree iff ``json.dumps`` of their
        canonical results is byte-identical.
        """
        payloads = []
        for result in self.results:
            data = result.to_dict()
            trace = data.get("trace")
            if trace is not None:
                trace["timings"] = {}
                trace["plan_cache_hit"] = False
                trace["trace_id"] = None
                if "telemetry" in trace:
                    trace["telemetry"] = QueryTelemetry.canonicalize(
                        trace["telemetry"])
            payloads.append(data)
        return payloads

    @classmethod
    def from_dict(cls, data: dict) -> "BatchReport":
        """Inverse of ``to_dict(include_results=True)``."""
        if "exact" not in data:
            raise ValueError(
                "BatchReport.from_dict needs a record produced by "
                "to_dict(include_results=True); the compact metrics "
                "record is not lossless")
        exact = data["exact"]
        return cls(
            stats=[QueryStats.from_dict(s) for s in data.get("stats", [])],
            results=[QueryResult.from_dict(r)
                     for r in data.get("results", [])],
            timings=dict(exact.get("timings", {})),
            cache_hits=data["plan_cache"]["hits"],
            cache_misses=data["plan_cache"]["misses"],
            cache_evictions=data["plan_cache"]["evictions"],
            answer_hits=data["answer_cache"]["hits"],
            answer_misses=data["answer_cache"]["misses"],
            answer_evictions=data["answer_cache"]["evictions"],
            wall_seconds=exact["wall_seconds"],
            elapsed_seconds=exact["elapsed_seconds"],
            workers=data["workers"],
            backend=data.get("backend", "serial"))

    def render(self) -> str:
        """Plain-text report for the CLI."""
        economics = self.telemetry.cost_summary()
        lines = [
            f"batch: {self.num_queries} queries "
            f"({self.num_ok} ok, {self.num_errors} errors), "
            f"{self.total_steps} physical steps, {self.workers} worker(s), "
            f"{self.backend} backend",
            f"wall clock: {self.elapsed_seconds:.3f}s elapsed "
            f"({self.queries_per_second:.1f} queries/s), "
            f"{self.wall_seconds:.3f}s serial-equivalent "
            f"(speedup {self.speedup:.2f}x)",
            f"plan cache: {self.cache_hits} hits, {self.cache_misses} "
            f"misses, {self.cache_evictions} evictions "
            f"(hit rate {self.cache_hit_rate:.0%})",
            f"answer cache: {self.answer_hits} hits, {self.answer_misses} "
            f"misses, {self.answer_evictions} evictions "
            f"(hit rate {self.answer_hit_rate:.0%})",
            f"llm traffic: {economics['token_in']} tokens in, "
            f"{economics['token_out']} tokens out, "
            f"${economics['cost_usd']:.6f} estimated",
            "per-stage wall clock (serial-equivalent):",
        ]
        for stage in _STAGES:
            seconds = self.timings.get(stage, 0.0)
            share = (seconds / self.wall_seconds
                     if self.wall_seconds > 0 else 0.0)
            lines.append(f"  {stage:<10s} {seconds:8.3f}s  ({share:.0%})")
        failures = self.worker_failures
        if failures:
            lines.append("worker failures:")
            for event in failures:
                lane = ("?" if event.worker_id is None
                        else str(event.worker_id))
                state = ("recovered in parent" if event.recovered
                         else "unrecovered")
                lines.append(f"  [lane {lane}] {state}: {event.message}")
        lines.append("queries:")
        for stat in self.stats:
            marker = "ok " if stat.ok else "ERR"
            cached = "cached plan" if stat.plan_cache_hit else "fresh plan"
            lines.append(
                f"  [{marker}] {stat.kind:<5s} {stat.steps:2d} steps "
                f"{stat.total_seconds:7.3f}s  "
                f"{stat.token_in + stat.token_out:5d} tok  "
                f"{cached}  {stat.query}")
        return "\n".join(lines)


def _fold_result(report: BatchReport, query: str,
                 result: QueryResult) -> None:
    """Append one query outcome to *report* (stats, results, timings)."""
    trace = result.trace
    timings = trace.timings if trace is not None else {}
    for stage in _STAGES:
        report.timings[stage] = (report.timings.get(stage, 0.0)
                                 + timings.get(stage, 0.0))
    report.wall_seconds += timings.get("total", 0.0)
    telemetry = result.telemetry
    report.stats.append(QueryStats(
        query=query, kind=result.kind, ok=result.ok,
        plan_cache_hit=telemetry.plan_cache_hit,
        steps=len(trace.physical_steps) if trace else 0,
        total_seconds=timings.get("total", 0.0),
        token_in=telemetry.token_in, token_out=telemetry.token_out,
        cost_usd=telemetry.cost_usd))
    report.results.append(result)


def _fold_cache_deltas(report: BatchReport, plan_cache: PlanCache,
                       answer_cache: AnswerCache,
                       plan_before: tuple[int, int, int],
                       answer_before: tuple[int, int, int]) -> None:
    """Report cache activity of *this* run, not the runner's lifetime."""
    hits, misses, evictions = plan_cache.snapshot()
    report.cache_hits = hits - plan_before[0]
    report.cache_misses = misses - plan_before[1]
    report.cache_evictions = evictions - plan_before[2]
    hits, misses, evictions = answer_cache.snapshot()
    report.answer_hits = hits - answer_before[0]
    report.answer_misses = misses - answer_before[1]
    report.answer_evictions = evictions - answer_before[2]


def execute_batch(engines: Sequence[Engine],
                  queries: Sequence[str] | Iterable[str],
                  plan_cache: PlanCache,
                  answer_cache: AnswerCache) -> BatchReport:
    """Drain *queries* through *engines*, producing a :class:`BatchReport`.

    One engine runs the workload serially; several engines drain it through
    a worker-thread pool (one thread per engine — engines carry per-query
    mutable state such as the transcript, so an engine is never shared by
    two in-flight queries, while all engines share the two thread-safe
    caches).  Results and per-query stats are reported in submission order,
    so a parallel report is line-for-line comparable with a serial one.

    Cache accounting is the *delta* over this call, so warmth carried in
    by the caller (a previous batch over the same caches, or a cache
    rehydrated from disk) never inflates this run's numbers.
    """
    if not engines:
        raise ValueError("execute_batch needs at least one engine")
    workload = list(queries)
    report = BatchReport(workers=len(engines),
                         backend="serial" if len(engines) == 1 else "thread")
    plan_before = plan_cache.snapshot()
    answer_before = answer_cache.snapshot()

    started = time.perf_counter()
    if len(engines) == 1:
        results = [engines[0].query(query) for query in workload]
    else:
        idle: queue.SimpleQueue[Engine] = queue.SimpleQueue()
        for engine in engines:
            idle.put(engine)

        def answer(query: str) -> QueryResult:
            engine = idle.get()
            try:
                return engine.query(query)
            finally:
                idle.put(engine)

        with ThreadPoolExecutor(max_workers=len(engines)) as pool:
            results = list(pool.map(answer, workload))
    report.elapsed_seconds = time.perf_counter() - started

    for query, result in zip(workload, results):
        _fold_result(report, query, result)
    _fold_cache_deltas(report, plan_cache, answer_cache,
                       plan_before, answer_before)
    return report


class BatchRunner:
    """Deprecated pre-Session serial batch entry point.

    Construction emits one :class:`DeprecationWarning`; use
    :meth:`repro.session.Session.batch` instead.  The plan cache and
    answer cache live on the runner, so consecutive :meth:`run` calls
    share warmth; each :class:`BatchReport` still only accounts the cache
    activity of its own run.
    """

    def __init__(self, lake: DataLake, model: LanguageModel | None = None,
                 config: EngineConfig | None = None, cache_size: int = 128,
                 answer_cache_size: int = DEFAULT_ANSWER_CACHE_SIZE):
        warnings.warn(
            "BatchRunner is deprecated; use repro.session.Session "
            "(e.g. Session(lake).batch(queries))",
            DeprecationWarning, stacklevel=2)
        self.cache = PlanCache(cache_size)
        self.answer_cache = AnswerCache(answer_cache_size)
        self.engine = Engine(lake, model=model, config=config,
                             plan_cache=self.cache,
                             answer_cache=self.answer_cache)

    def run(self, queries: Sequence[str] | Iterable[str]) -> BatchReport:
        return execute_batch([self.engine], queries, self.cache,
                             self.answer_cache)


class ParallelBatchRunner:
    """Deprecated pre-Session parallel batch entry point.

    Construction emits one :class:`DeprecationWarning`; use
    :meth:`repro.session.Session.batch` with ``workers=N`` instead.

    When *model* is given, the single instance is shared by all workers and
    must be thread-safe (:class:`~repro.llm.brain.SimulatedBrain` is — it
    keeps no mutable state across calls).  When it is ``None``, each worker
    engine gets its own default brain.
    """

    def __init__(self, lake: DataLake, model: LanguageModel | None = None,
                 config: EngineConfig | None = None, cache_size: int = 128,
                 workers: int = 4,
                 answer_cache_size: int = DEFAULT_ANSWER_CACHE_SIZE):
        warnings.warn(
            "ParallelBatchRunner is deprecated; use repro.session.Session "
            "(e.g. Session(lake).batch(queries, workers=N))",
            DeprecationWarning, stacklevel=2)
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self.cache = PlanCache(cache_size)
        self.answer_cache = AnswerCache(answer_cache_size)
        self._engines = [
            Engine(lake, model=model, config=config,
                   plan_cache=self.cache, answer_cache=self.answer_cache)
            for _ in range(workers)
        ]

    def run(self, queries: Sequence[str] | Iterable[str]) -> BatchReport:
        return execute_batch(self._engines, queries, self.cache,
                             self.answer_cache)
