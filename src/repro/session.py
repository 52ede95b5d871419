"""The public entry point: one :class:`Session` owns lake + configuration.

A :class:`Session` packages everything needed to answer natural-language
queries over one :class:`~repro.data.catalog.DataLake` — the planner brain,
the engine configuration, and the two caches — behind three methods:

- :meth:`Session.query` answers one query;
- :meth:`Session.batch` drains a workload through an execution backend
  (serial, thread pool, or GIL-free process lanes — :mod:`repro.exec`)
  and returns a :class:`~repro.core.batch.BatchReport`;
- :meth:`Session.bench` runs the benchmark harness over this session's
  lake.

The CLI, the benchmark harness, and the test suite all drive the system
through this facade.  Both caches are shared by every query and batch of
the session, so repeated workloads run warm — a repeated query reuses its
plan *and* the model's discovery and mapping replies bound to it
(:class:`~repro.core.plan.BoundPlan`), so it makes no LLM call; plans
survive across runs via :meth:`save_plan_cache` / :meth:`load_plan_cache`
(the serializable plan IR makes the cache file portable).

Underneath, a session composes :class:`~repro.core.engine.Engine` instances
from pluggable :class:`~repro.core.interfaces.Planner` /
:class:`~repro.core.interfaces.Mapper` / :class:`~repro.core.interfaces.
Executor` parts; pass any of the three to swap a role (e.g. an executor
over a custom operator registry) while keeping the rest of the stack.

Example::

    from repro import Session

    session = Session("rotowire")
    result = session.query("How many players are taller than 200?")
    report = session.batch(["...", "..."], workers=4)
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.answer_cache import AnswerCache
from repro.core.batch import (DEFAULT_ANSWER_CACHE_SIZE, BatchReport,
                              PlanCache)
from repro.core.engine import Engine, EngineConfig
from repro.core.interfaces import Executor, Mapper, Planner
from repro.core.plan import QueryResult
from repro.data.catalog import DataLake
from repro.data.datatypes import encode_scalar
from repro.llm.brain import SimulatedBrain
from repro.llm.interface import LanguageModel, Transcript
from repro.obs import MetricsRegistry, TelemetryConfig


class Session:
    """One configured connection to a data lake.

    *lake* is a :class:`~repro.data.catalog.DataLake` or a dataset name
    (``"artwork"`` / ``"rotowire"``, loaded at default seed and scale via
    :func:`repro.datasets.load_lake`).

    *brain* is the :class:`~repro.llm.interface.LanguageModel` behind the
    default prompt-driven planner and mapper (default:
    :class:`~repro.llm.brain.SimulatedBrain`).  For multi-worker batches
    the single instance is shared by all workers and must be thread-safe
    (``SimulatedBrain`` is).  *planner*, *mapper*, and *executor* override
    the corresponding role outright; they too are shared across worker
    engines and must be stateless across calls.

    *plan_cache* / *answer_cache* default to fresh caches of
    *plan_cache_size* / *answer_cache_size*; pass existing instances to
    share warmth between sessions or to start from a cache rehydrated
    with :meth:`~repro.core.batch.PlanCache.load`.

    *telemetry* is a :class:`~repro.obs.TelemetryConfig` controlling span
    collection and cost accounting (default: enabled, cost model resolved
    from the brain).  Session-lifetime counters and latency histograms
    accumulate in :attr:`metrics_registry` regardless; :meth:`metrics`
    returns their deterministic snapshot.

    *cache_url* points the session at a shared cache tier
    (:mod:`repro.cachenet` — ``tcp://host:port`` or ``unix:///path``,
    served by ``repro cache-server``): the default caches become
    :class:`~repro.cachenet.RemotePlanCache` /
    :class:`~repro.cachenet.RemoteAnswerCache` — local LRU fronts over
    the tier — so this session warms from, and contributes to, the
    fleet-wide warm set.  A server that is down degrades the session to
    local-only operation (counted in ``cachenet_fallbacks``, never
    failing a query); a protocol-version mismatch raises
    :class:`~repro.cachenet.CacheProtocolError` here, at construction.
    Explicit *plan_cache* / *answer_cache* instances win over
    *cache_url*.
    """

    def __init__(self, lake: DataLake | str,
                 brain: LanguageModel | None = None,
                 config: EngineConfig | None = None,
                 plan_cache: PlanCache | None = None,
                 answer_cache: AnswerCache | None = None,
                 planner: Planner | None = None,
                 mapper: Mapper | None = None,
                 executor: Executor | None = None,
                 plan_cache_size: int = 128,
                 answer_cache_size: int = DEFAULT_ANSWER_CACHE_SIZE,
                 telemetry: TelemetryConfig | None = None,
                 cache_url: str | None = None):
        if isinstance(lake, str):
            from repro.datasets import load_lake
            lake = load_lake(lake)
        self.lake = lake
        self.config = config or EngineConfig()
        if brain is None and (planner is None or mapper is None):
            brain = SimulatedBrain()
        self.brain = brain
        self.planner = planner
        self.mapper = mapper
        self.executor = executor
        self.telemetry = telemetry or TelemetryConfig()
        #: session-lifetime :class:`~repro.obs.MetricsRegistry`; every
        #: engine (and, via shipped deltas, every process-backend worker
        #: lane) records into it.
        self.metrics_registry = MetricsRegistry()
        self.cache_url = cache_url
        self._cache_client = (self._connect_cache_tier(cache_url)
                              if cache_url is not None else None)
        if plan_cache is not None:
            self.plan_cache = plan_cache
        elif self._cache_client is not None:
            from repro.cachenet import RemotePlanCache
            self.plan_cache = RemotePlanCache(
                self._cache_client, plan_cache_size,
                metrics=self.metrics_registry)
        else:
            self.plan_cache = PlanCache(plan_cache_size)
        if answer_cache is not None:
            self.answer_cache = answer_cache
        elif self._cache_client is not None:
            from repro.cachenet import RemoteAnswerCache
            self.answer_cache = RemoteAnswerCache(
                self._cache_client, answer_cache_size,
                metrics=self.metrics_registry)
        else:
            self.answer_cache = AnswerCache(answer_cache_size)
        self._engines: list[Engine] = []
        self._pool_lock = threading.Lock()
        self._backends: dict[str, object] = {}

    def _connect_cache_tier(self, cache_url: str):
        """Build the tier client and probe it once.

        A down server is counted and tolerated (the client keeps trying
        with a cooldown, so a tier that comes up later still gets used);
        a protocol mismatch raises immediately — that is a deployment
        error, not a transient.
        """
        from repro.cachenet import CacheClient, CacheUnavailable
        client = CacheClient(cache_url, metrics=self.metrics_registry)
        try:
            client.ensure_connected()
        except CacheUnavailable:
            self.metrics_registry.increment("cachenet_fallbacks")
        return client

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def query(self, query: str,
              trace_context=None) -> QueryResult:
        """Answer one natural-language query with a full trace.

        *trace_context* is an optional :class:`~repro.obs.TraceContext`
        the query should run under (distributed tracing: a caller that
        already owns a trace — the serve layer — passes its context so
        this query's spans join it); ``None`` mints a fresh trace.
        """
        engine = self._pool(1)[0]
        engine.trace_context = trace_context
        try:
            return engine.query(query)
        finally:
            engine.trace_context = None

    def batch(self, queries: Sequence[str] | Iterable[str],
              workers: int = 1, backend: object | None = None) -> BatchReport:
        """Drain *queries* through an execution backend.

        *backend* selects the strategy (:mod:`repro.exec`): a registered
        name (``"serial"`` / ``"thread"`` / ``"process"``), an
        :class:`~repro.exec.ExecutionBackend` instance (the caller owns
        its lifecycle), or ``None`` for the default — serial at
        ``workers=1``, the thread pool above that.  All backends produce
        identical results for the same workload; they differ in where
        the worker engines live and therefore in throughput.

        Named backends are instantiated once per session and kept (a
        process backend's worker lanes stay warm across consecutive
        batches); :meth:`close` shuts them down.  Consecutive calls share
        cache warmth, but each report accounts only its own run.
        """
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        from repro.exec import ExecutionBackend
        if backend is None:
            backend = self._backend("serial" if workers == 1 else "thread")
        elif isinstance(backend, str):
            backend = self._backend(backend)
        elif not isinstance(backend, ExecutionBackend):
            raise TypeError(
                f"backend must be a registered name or an ExecutionBackend, "
                f"got {type(backend).__name__}")
        return backend.run(self, queries, workers)

    def bench(self, workers: Sequence[int] = (1, 2, 4), repeats: int = 3,
              backends: Sequence[str] = ("thread",),
              llm_latency_ms: float | None = None,
              output: str | None = None, quiet: bool = True) -> dict:
        """Run the benchmark harness over this session's lake and stack.

        Each ``(backend, workers)`` point gets a fresh child session —
        same lake, brain, config, and planner/mapper/executor overrides,
        but cold caches and a cold worker pool —
        and a cold + warm pass (see :mod:`repro.benchmarks.harness`); this
        session's own caches are not touched.  *llm_latency_ms* replaces
        the brain with a :class:`~repro.llm.brain.SimulatedBrain` at that
        simulated latency (``None`` benchmarks the session's own brain).
        Returns the benchmark record (and writes it to *output* when
        given).
        """
        from repro.benchmarks.harness import BenchConfig, run_benchmark
        if llm_latency_ms is None:
            brain = self.brain
        else:
            if self.planner is not None or self.mapper is not None:
                # A planner/mapper override takes precedence over any
                # brain, so the requested latency would never apply — and
                # the benchmark record would lie about it.
                raise ValueError(
                    "llm_latency_ms cannot override a custom planner/"
                    "mapper; pass llm_latency_ms=None to benchmark the "
                    "session's own stack")
            brain = SimulatedBrain(latency_seconds=llm_latency_ms / 1000.0)

        def child_session() -> "Session":
            return Session(self.lake, brain=brain, config=self.config,
                           planner=self.planner, mapper=self.mapper,
                           executor=self.executor,
                           telemetry=self.telemetry)

        config = BenchConfig(dataset=self.lake.name, workers=tuple(workers),
                             backends=tuple(backends),
                             repeats=repeats,
                             llm_latency_ms=llm_latency_ms,
                             output=output, quiet=quiet)
        return run_benchmark(config, lake=self.lake,
                             session_factory=child_session)

    # ------------------------------------------------------------------
    # Introspection & persistence
    # ------------------------------------------------------------------

    @property
    def last_transcript(self) -> Transcript:
        """Prompt/response transcript of the most recent :meth:`query`.

        Lists only the prompts actually sent to the model: a phase served
        from the plan cache's bound replies sends nothing, so a fully
        warm query leaves the transcript empty.
        """
        engines = self._pool(1)
        return engines[0].last_transcript

    def metrics(self) -> dict:
        """Deterministic snapshot of the session metrics registry.

        Counters (queries, cache locality, token/cost totals, worker
        failures, replans), per-phase latency histograms, and derived
        rates — see :meth:`repro.obs.MetricsRegistry.snapshot`.
        """
        return self.metrics_registry.snapshot()

    #: Socket-timeout budget (seconds) for one STATS round trip inside a
    #: metrics scrape; combined with ``retries=0`` it bounds how long a
    #: hung tier can delay :meth:`observability_snapshot`.
    CACHENET_STATS_TIMEOUT = 0.25

    def cachenet_stats(self, timeout: float | None = None) -> dict | None:
        """The shared cache tier's own STATS snapshot, or ``None``.

        ``None`` when the session has no *cache_url* or the tier is
        currently unreachable (degraded mode never raises here).
        *timeout* bounds the single attempt (socket timeout in seconds,
        no retries); ``None`` uses the client's default budget.
        """
        if self._cache_client is None:
            return None
        from repro.cachenet import CacheUnavailable
        try:
            if timeout is not None:
                return self._cache_client.stats(timeout=timeout, retries=0)
            return self._cache_client.stats()
        except CacheUnavailable:
            return None

    def observability_snapshot(self) -> dict:
        """The :meth:`metrics` snapshot plus the cache tier's STATS.

        The one record the service's ``GET /metrics`` endpoint and
        ``repro batch --metrics-file`` emit (rendered with
        :func:`repro.obs.render_snapshot`): session counters, latency
        histograms, derived rates, and — when a tier is connected — its
        server-side view under ``"cachenet_server"``, so tier hit ratios
        read straight off the same document.

        The STATS round trip runs under a small fixed budget
        (:data:`CACHENET_STATS_TIMEOUT`, single attempt), so a hung or
        wedged cache server degrades the snapshot to session-only data
        instead of stalling a ``/metrics`` scrape.
        """
        snapshot = self.metrics_registry.snapshot()
        stats = self.cachenet_stats(timeout=self.CACHENET_STATS_TIMEOUT)
        if stats is not None:
            snapshot["cachenet_server"] = stats
        return snapshot

    def save_plan_cache(self, path: str | Path) -> int:
        """Persist the plan cache; returns the number of entries written."""
        return self.plan_cache.save(path)

    def save_answer_cache(self, path: str | Path) -> int:
        """Persist the answer cache; returns the number of entries written.

        Together with :meth:`save_plan_cache` this makes a restart fully
        warm: plans *and* modality-model answers survive on disk
        (``--plan-cache-file`` / ``--answer-cache-file`` in the CLI).
        """
        return self.answer_cache.save(path)

    def load_answer_cache(self, path: str | Path,
                          capacity: int | None = None) -> int:
        """Replace the answer cache with one rehydrated from *path*.

        *capacity* overrides the capacity persisted in the file.  Returns
        the number of answers loaded.  Keys are content fingerprints, so
        loading a file saved against different objects is safe — it just
        never hits.

        With a *cache_url*, the loaded entries land in a fresh
        :class:`~repro.cachenet.RemoteAnswerCache` and are published to
        the tier (best-effort), so a file-warmed session also warms the
        fleet.
        """
        cache = AnswerCache.load(path, capacity=capacity)
        if self._cache_client is not None:
            from repro.cachenet import RemoteAnswerCache
            remote = RemoteAnswerCache(self._cache_client, cache.capacity,
                                       metrics=self.metrics_registry)
            entries = cache.items()
            remote.install(entries)
            self._publish("answer", [
                {"key": list(key), "value": encode_scalar(answer)}
                for key, answer in entries])
            cache = remote
        with self._pool_lock:
            self.answer_cache = cache
            for engine in self._engines:
                engine.answer_cache = cache
        return len(cache)

    def load_plan_cache(self, path: str | Path,
                        capacity: int | None = None) -> int:
        """Replace the plan cache with one rehydrated from *path*.

        *capacity* overrides the capacity persisted in the file.  Returns
        the number of plans loaded.  Cached plans are only served for
        matching ``(query, lake fingerprint)`` keys, so loading a file
        saved against a different lake is safe — it just never hits.

        With a *cache_url*, the loaded plans land in a fresh
        :class:`~repro.cachenet.RemotePlanCache` and are published to
        the tier (best-effort), so a file-warmed session also warms the
        fleet.
        """
        cache = PlanCache.load(path, capacity=capacity)
        if self._cache_client is not None:
            from repro.cachenet import RemotePlanCache
            remote = RemotePlanCache(self._cache_client, cache.capacity,
                                     metrics=self.metrics_registry)
            entries = cache.items()
            for key, plan in entries:
                remote._local_put(key, plan)
            self._publish("plan", [
                {"key": query, "ns": fingerprint, "value": plan.to_dict()}
                for (query, fingerprint), plan in entries])
            cache = remote
        with self._pool_lock:
            self.plan_cache = cache
            for engine in self._engines:
                engine.plan_cache = cache
        return len(cache)

    #: Upper bound on one published ``mput`` batch, well under the
    #: protocol's 32 MiB frame limit — a fully-loaded 65536-entry answer
    #: cache publishes as several frames instead of one oversized one.
    PUBLISH_BATCH_BYTES = 4 * 1024 * 1024

    def _publish(self, space: str, entries: list[dict]) -> None:
        """Best-effort bulk upload of loaded cache entries to the tier.

        Batched by serialized size so an arbitrarily large warm file
        never produces a frame over the protocol limit; one unreachable
        batch aborts the rest (the tier is down, not the data).
        """
        if not entries or self._cache_client is None:
            return
        import json

        from repro.cachenet import CacheUnavailable
        batch: list[dict] = []
        batch_bytes = 0
        try:
            for entry in entries:
                entry_bytes = len(json.dumps(entry, separators=(",", ":")))
                if batch and batch_bytes + entry_bytes > \
                        self.PUBLISH_BATCH_BYTES:
                    self._cache_client.mput(space, batch)
                    batch, batch_bytes = [], 0
                batch.append(entry)
                batch_bytes += entry_bytes
            if batch:
                self._cache_client.mput(space, batch)
        except CacheUnavailable:
            self.metrics_registry.increment("cachenet_fallbacks")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down backend resources (e.g. process-backend worker lanes).

        Idempotent; the session itself stays usable (a later batch simply
        recreates what it needs).  The cache-tier client, when any, is
        closed for good — further cache traffic degrades to local-only
        mode.  Use the session as a context manager to get this
        automatically.
        """
        with self._pool_lock:
            backends = list(self._backends.values())
            self._backends.clear()
        for backend in backends:
            backend.close()
        if self._cache_client is not None:
            self._cache_client.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def engine_pool(self, workers: int) -> list[Engine]:
        """The first *workers* engines (grown on demand) — backend hook.

        Execution backends that run engines in this process (serial,
        thread) draw them from here so engine reuse, shared caches, and
        role overrides stay consistent with :meth:`query`.
        """
        return self._pool(workers)

    def _backend(self, name: str):
        from repro.exec import create_backend
        with self._pool_lock:
            if name not in self._backends:
                self._backends[name] = create_backend(name)
            return self._backends[name]

    def make_engine(self) -> Engine:
        """A fresh engine wired to this session's full stack.

        Same lake, brain, configuration, role overrides, caches, and
        metrics registry as the pooled engines — but owned by the
        caller, not the pool.  The query service's worker lanes
        (:class:`repro.serve.jobs.JobManager`) build their engines here
        so a lane can discard a wedged engine (per-job timeout) and
        replace it without disturbing the shared pool.
        """
        return Engine(
            self.lake, model=self.brain, config=self.config,
            planner=self.planner, mapper=self.mapper,
            executor=self.executor, plan_cache=self.plan_cache,
            answer_cache=self.answer_cache,
            metrics=self.metrics_registry,
            telemetry=self.telemetry)

    def _pool(self, workers: int) -> list[Engine]:
        """The first *workers* engines, growing the pool as needed.

        Engines are created lazily and reused across calls (they carry
        per-query mutable state, so each in-flight query needs its own),
        all sharing the session's brain, caches, and role overrides.
        """
        with self._pool_lock:
            while len(self._engines) < workers:
                self._engines.append(self.make_engine())
            return self._engines[:workers]
