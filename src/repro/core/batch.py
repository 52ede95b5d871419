"""Batch execution: many queries over one warmed data lake.

Throughput scenarios need three things the single-query engine does not give
us: amortization of the planning phase across repeated queries, amortization
of modality-model inference across repeated (object, question) pairs, and
aggregate statistics.  This module provides all three:

- :class:`PlanCache` — a thread-safe LRU cache of bound plans
  (:class:`~repro.core.plan.BoundPlan`: the logical plan plus the model's
  planning, discovery and mapping replies from its last clean run) keyed
  on ``(query, lake name)``; each reply in an entry is reused only for a
  digest-identical prompt.  Because the plan IR
  is serializable, a cache can be persisted with :meth:`PlanCache.save`
  and rehydrated with :meth:`PlanCache.load`, so warm plans survive
  across runs (``--plan-cache-file`` in the CLI).
- :func:`timed_batch` — times one run of a workload and wraps its results
  in a report.  Where the queries run is
  the caller's choice: :meth:`repro.session.Session.batch` (the public
  entry point) answers a ``serial`` batch in the calling thread and a
  ``thread`` / ``process`` batch over worker lanes
  (:func:`repro.exec.lanes.run_batch`).

Batches produce a :class:`BatchReport`: the results, plus per-stage
wall-clock totals, step counts and cache hit-rates read off each
result's own trace and telemetry — the counters ``/metrics`` sums too,
so a batch counts cache activity once whichever process answered a
query.  Only evictions are taken from the session's caches, the one
figure no query owns.  Two different clocks are reported:
``wall_seconds`` sums per-query totals (*serial-equivalent* seconds — what
one worker would have spent), while ``elapsed_seconds`` is the real
wall-clock of the whole batch; throughput is computed from the latter, so
it stays honest once queries run concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.answer_cache import AnswerCache
from repro.core.cache import Cache, Space
from repro.core.plan import BoundPlan, QueryResult
from repro.obs.trace import QueryTelemetry

_STAGES = ("discovery", "planning", "mapping", "execution")

#: Where :meth:`repro.session.Session.batch` can run a workload: the
#: calling thread, or one of the worker-lane kinds of
#: :mod:`repro.exec.lanes`.
BACKENDS = ("serial", "thread", "process")

#: Format marker written into persisted plan-cache files.
PLAN_CACHE_FORMAT = "repro-plan-cache/v1"


#: The plan space: ``(query, lake name)`` → :class:`BoundPlan`.  On the
#: tier the lake name is the namespace (``ns``); values travel as
#: ``BoundPlan.to_dict()`` and re-enter through ``BoundPlan.from_dict``.
#: The file field keeps its name, ``lake_fingerprint``, from when plans
#: were keyed by the lake's shape; a ``Session`` re-keys such entries.
#:
#: Its capacity is the one default plan-cache size (``Session``, ``repro
#: batch``): an evicted plan costs a full round of model calls when its
#: query comes back, so the default holds a working set of queries.
#: Encoded entries measure 3.6 KB median, 9.1 KB at most
#: (``docs/caching.md``, "Capacity"), so a full cache stays within ~10 MB.
PLAN_SPACE = Space(
    name="plan", file_format=PLAN_CACHE_FORMAT, capacity=1024,
    key_fields=("query", "lake_fingerprint"), value_field="plan", miss=None,
    encode=BoundPlan.to_dict, decode=BoundPlan.from_dict,
    wire_item=lambda key: {"key": key[0], "ns": key[1]},
    wire_key=lambda item: (item["key"], item["ns"]))


class PlanCache(Cache):
    """A bounded LRU cache of bound plans (:class:`~repro.core.cache.
    Cache` over :data:`PLAN_SPACE`).

    ``get`` returns the :class:`~repro.core.plan.BoundPlan` or ``None``;
    ``put`` takes a ``BoundPlan``.  A plan's bound replies are evicted,
    dropped and persisted with it: in the file they ride inside its
    ``"plan"`` dict under the additive ``"bindings"`` key, emitted only
    when present, so files written before bindings existed load
    unchanged and re-save byte-identically.
    """

    space = PLAN_SPACE


@dataclass
class QueryStats:
    """Per-query line of a batch report, read off the result's trace and
    telemetry (:meth:`of`)."""

    query: str
    kind: str
    ok: bool
    plan_cache_hit: bool
    steps: int
    total_seconds: float
    token_in: int = 0
    token_out: int = 0
    cost_usd: float = 0.0

    @classmethod
    def of(cls, query: str, result: QueryResult) -> "QueryStats":
        trace = result.trace
        telemetry = result.telemetry
        return cls(query=query, kind=result.kind, ok=result.ok,
                   plan_cache_hit=telemetry.plan_cache_hit,
                   steps=len(trace.physical_steps) if trace else 0,
                   total_seconds=(trace.timings.get("total", 0.0)
                                  if trace else 0.0),
                   token_in=telemetry.token_in, token_out=telemetry.token_out,
                   cost_usd=telemetry.cost_usd)


@dataclass
class BatchReport:
    """Aggregate outcome of one batch run: its *results*, in workload
    order, and every figure derived from their traces and telemetry.

    Only the run's clock, its shape and the evictions are kept beside
    the results: evictions belong to the session's caches, not to any
    query.  ``wall_seconds`` is *serial-equivalent* time (the sum of
    per-query totals); ``elapsed_seconds`` is the real wall-clock of the
    batch.  With one worker the two coincide (up to scheduling
    overhead); with *N* workers their ratio is the realized speedup.
    """

    workload: list[str] = field(default_factory=list)
    results: list[QueryResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    workers: int = 1
    #: where the batch ran, one of :data:`BACKENDS`.
    backend: str = "serial"
    #: evictions from the session's plan / answer cache during the run.
    cache_evictions: int = 0
    answer_evictions: int = 0

    @property
    def stats(self) -> list[QueryStats]:
        return [QueryStats.of(query, result)
                for query, result in zip(self.workload, self.results)]

    @property
    def timings(self) -> dict[str, float]:
        """Per-stage seconds, summed over the results."""
        totals = dict.fromkeys(_STAGES, 0.0)
        for result in self.results:
            if result.trace is not None:
                for stage in _STAGES:
                    totals[stage] += result.trace.timings.get(stage, 0.0)
        return totals

    @property
    def wall_seconds(self) -> float:
        return sum(result.trace.timings.get("total", 0.0)
                   for result in self.results if result.trace is not None)

    def _count(self, counter: str) -> int:
        return sum(result.telemetry.counters.get(counter, 0)
                   for result in self.results)

    @property
    def cache_hits(self) -> int:
        """Planning attempts served from the plan cache (a replanned
        query counts each attempt, as ``/metrics`` does)."""
        return self._count("plan_cache_hits")

    @property
    def cache_misses(self) -> int:
        return self._count("plan_cache_misses")

    @property
    def answer_hits(self) -> int:
        return self._count("answer_cache_hits")

    @property
    def answer_misses(self) -> int:
        return self._count("answer_cache_misses")

    @property
    def num_queries(self) -> int:
        return len(self.results)

    @property
    def num_ok(self) -> int:
        return sum(1 for result in self.results if result.ok)

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
        batch (lane crashes/timeouts), in submission order."""
        return [event for result in self.results
                if result.trace is not None
                for event in result.trace.errors if event.phase == "worker"]

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
        timings, wall_seconds = self.timings, self.wall_seconds
        for stage in _STAGES:
            seconds = timings[stage]
            share = seconds / wall_seconds if wall_seconds > 0 else 0.0
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


def timed_batch(workload: list[str],
                answer_all: Callable[[], list[QueryResult]],
                plan_cache: PlanCache, answer_cache: AnswerCache,
                workers: int, backend: str) -> BatchReport:
    """The :class:`BatchReport` of one run of *answer_all*, which answers
    *workload* and returns its results in submission order.

    Evictions are the *delta* over this call, so churn from before the
    run (a previous batch over the same caches) never inflates it.
    """
    plan_before, answer_before = plan_cache.evictions, answer_cache.evictions
    started = time.perf_counter()
    results = answer_all()
    elapsed = time.perf_counter() - started
    return BatchReport(
        workload=workload, results=results,
        elapsed_seconds=elapsed, workers=workers, backend=backend,
        cache_evictions=plan_cache.evictions - plan_before,
        answer_evictions=answer_cache.evictions - answer_before)
