"""The public entry point: one :class:`Session` owns lake + configuration.

A :class:`Session` packages everything needed to answer natural-language
queries over one :class:`~repro.data.catalog.DataLake` — the planner brain,
the engine configuration, and the two caches — behind two methods:

- :meth:`Session.query` answers one query;
- :meth:`Session.batch` drains a workload in the calling thread
  (``serial``) or over the session's warm worker lanes (``thread`` or
  GIL-free ``process`` lanes — :mod:`repro.exec.lanes`) and returns a
  :class:`~repro.core.batch.BatchReport`.

The CLI, the query service, the benchmark and the test suite all drive
the system through this facade.  Both caches are shared by every query
and batch of the session, so repeated workloads run warm — a repeated
query reuses the model's planning, discovery and mapping replies
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
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.answer_cache import AnswerCache, RenderCache
from repro.core.batch import BACKENDS, BatchReport, PlanCache, timed_batch
from repro.core.cache import Cache, Space
from repro.core.engine import Engine, EngineConfig
from repro.core.interfaces import Executor, Mapper, Planner
from repro.core.plan import BoundPlan, QueryResult
from repro.data.catalog import DataLake
from repro.data.memo import memo_builds
from repro.llm.brain import SimulatedBrain
from repro.llm.interface import BoundReply, LanguageModel, Transcript
from repro.obs import MetricsRegistry, TelemetryConfig


class Session:
    """One configured connection to a data lake.

    *lake* is a :class:`~repro.data.catalog.DataLake` or a dataset name
    (``"artwork"`` / ``"rotowire"``, loaded at default seed and scale via
    :func:`repro.datasets.load_lake`).

    *brain* is the :class:`~repro.llm.interface.LanguageModel` behind the
    default prompt-driven planner and mapper (default:
    :class:`~repro.llm.brain.SimulatedBrain`).  For multi-worker batches
    the single instance is shared by all thread lanes and must be
    thread-safe (``SimulatedBrain`` is).  *planner*, *mapper*, and
    *executor* override the corresponding role outright; they too are
    shared across lane engines and must be stateless across calls.

    *plan_cache* / *answer_cache* default to fresh caches of
    *plan_cache_size* / *answer_cache_size* entries; ``None`` takes the
    space's own capacity (``PLAN_SPACE.capacity`` in
    :mod:`repro.core.batch`, ``ANSWER_SPACE.capacity`` in
    :mod:`repro.core.answer_cache`), the one place each default lives.
    Pass existing instances to share warmth between sessions or to start
    from a cache rehydrated with :meth:`~repro.core.batch.PlanCache.load`.

    *telemetry* is a :class:`~repro.obs.TelemetryConfig` controlling span
    collection and cost accounting (default: enabled, cost model resolved
    from the brain).  Session-lifetime counters and latency histograms
    accumulate in :attr:`metrics_registry` regardless; :meth:`metrics`
    returns their deterministic snapshot.

    *cache_url* points the session at a shared cache tier
    (:mod:`repro.cachenet` — ``tcp://host:port`` or ``unix:///path``,
    served by ``repro cache-server``): the default caches take its client
    as their ``tier`` and become local LRU fronts over it
    (:mod:`repro.core.cache`), so this session warms from, and
    contributes to, the fleet-wide warm set.  A :attr:`render_cache`
    over the tier then shares the raster digests of lazy lake images,
    so a fresh replica keys them without rendering.  A server that is down
    degrades the session to local-only operation (counted in
    ``cachenet_fallbacks``, never failing a query); a protocol-version
    mismatch raises :class:`~repro.cachenet.CacheProtocolError` here, at
    construction.
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
                 plan_cache_size: int | None = None,
                 answer_cache_size: int | None = None,
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
        #: engine (and, via shipped deltas, every process lane) records
        #: into it.
        self.metrics_registry = MetricsRegistry()
        self.cache_url = cache_url
        self._cache_client = (self._connect_cache_tier(cache_url)
                              if cache_url is not None else None)
        self.plan_cache = (self._adopt(plan_cache) if plan_cache is not None
                           else self._new_cache(PlanCache, plan_cache_size))
        self.answer_cache = (answer_cache if answer_cache is not None
                             else self._new_cache(AnswerCache,
                                                  answer_cache_size))
        #: raster digests of lazy images by scene key, shared with the
        #: tier; ``None`` without one (an image keyed here keeps its
        #: digest, so only another process has use for the map).
        self.render_cache = (self._new_cache(RenderCache, None)
                             if self._cache_client is not None else None)
        # The engine behind query(), built on first use.
        self._engine: Engine | None = None
        # Warm batch lanes by kind.
        self._lanes: dict[str, list] = {}
        self._lock = threading.Lock()

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

    def _new_cache(self, cache_cls: type[Cache],
                   capacity: int | None) -> Cache:
        """An empty *cache_cls*, fronting the tier when there is one."""
        return cache_cls(capacity, tier=self._cache_client,
                         metrics=self.metrics_registry)

    def _adopt(self, cache: Cache) -> Cache:
        """*cache*, its plans stored under this lake's shape fingerprint
        (as before plans were keyed by lake name) re-keyed to the lake's
        name, each plan an unbound planning reply (:attr:`BoundReply.
        UNBOUND`), served as such a plan was then."""
        if isinstance(cache, PlanCache):
            shape, name = self.lake.fingerprint(), self.lake.name

            def adopt(key: tuple, entry: BoundPlan) -> tuple:
                if key[1] != shape:
                    return key, entry
                return (key[0], name), replace(entry, planning=BoundReply(
                    BoundReply.UNBOUND, entry.plan.render()))

            cache.rewrite(adopt)
        return cache

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
        return self._query_engine().query(query, trace_context)

    def batch(self, queries: Sequence[str] | Iterable[str],
              workers: int = 1, backend: str | None = None,
              timeout: float | None = None) -> BatchReport:
        """Drain *queries* and report on the run.

        *backend* is one of :data:`~repro.core.batch.BACKENDS`, or
        ``None`` for serial at ``workers=1`` and thread lanes above
        that.  ``serial`` answers in the calling thread through
        :meth:`query`.  ``thread`` and ``process`` drain over *workers*
        lanes of that kind (:func:`repro.exec.lanes.run_batch`): a query
        sticks to the lane of its first occurrence, a query whose lane
        fails or exceeds *timeout* seconds re-runs in the parent, and
        results come back in submission order.  All three produce
        identical results for the same workload; they differ only in
        throughput.

        Lanes are built on first use and kept warm across batches until
        :meth:`close`; they always answer over the lake as it is now (a
        process lane restarts its worker when :attr:`DataLake.version`
        moves).  Consecutive calls share cache warmth, but each report
        accounts only its own run.
        """
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if backend is None:
            backend = "serial" if workers == 1 else "thread"
        workload = list(queries)
        if backend == "serial":
            return timed_batch(
                workload, lambda: [self.query(query) for query in workload],
                self.plan_cache, self.answer_cache, 1, backend)
        from repro.exec.lanes import run_batch
        return run_batch(self, workload, self._batch_lanes(backend, workers),
                         backend, timeout)

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
        return self._query_engine().last_transcript

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
        """The :meth:`metrics` snapshot plus the caches' own figures.

        The one record the service's ``GET /metrics`` endpoint and
        ``repro batch --metrics-file`` emit (rendered with
        :func:`repro.obs.render_snapshot`): session counters, latency
        histograms, derived rates, the session's own plan and answer
        caches (and the render cache, with a tier) under
        ``"local_caches"`` (``entries``, ``capacity``,
        ``hits``, ``misses`` and ``evictions`` per space, read at scrape
        time, so evictions that cause misses show without a trace), the
        process's memo builds per kind under ``"memo_builds"``
        (:data:`repro.data.memo.memo_builds`; a process lane's worker
        counts in its own process), and — when a tier is connected — its
        server-side view under ``"cachenet_server"``, so tier hit ratios
        read straight off the same document.

        The STATS round trip runs under a small fixed budget
        (:data:`CACHENET_STATS_TIMEOUT`, single attempt), so a hung or
        wedged cache server degrades the snapshot to session-only data
        instead of stalling a ``/metrics`` scrape.
        """
        snapshot = self.metrics_registry.snapshot()
        snapshot["local_caches"] = {
            cache.space.name: cache.stats()
            for cache in (self.plan_cache, self.answer_cache,
                          self.render_cache) if cache is not None}
        snapshot["memo_builds"] = dict(memo_builds)
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

        *capacity* sets the loaded cache's capacity; without it the cache
        keeps the larger of the file's capacity and the session's current
        one (see :meth:`load_plan_cache`).  Returns the number of answers
        loaded.  Keys are content fingerprints, so
        loading a file saved against different objects is safe — it just
        never hits.  With a *cache_url* the loaded answers are also
        published to the tier (see :meth:`load_plan_cache`).
        """
        return self._load_cache("answer_cache", AnswerCache, path, capacity)

    def load_plan_cache(self, path: str | Path,
                        capacity: int | None = None) -> int:
        """Replace the plan cache with one rehydrated from *path*.

        *capacity* sets the loaded cache's capacity.  Without it the
        cache keeps the larger of the capacity persisted in the file and
        the session's current one: a file saved by a smaller cache never
        shrinks the session's, and a larger file is never truncated.
        Returns the number of plans loaded.  A bound reply serves only a
        digest-identical prompt, so a file saved against another lake is
        safe; plans keyed by this lake's shape (older files) still serve.

        With a *cache_url*, the loaded plans land in a fresh tier-backed
        cache and are published to the tier (best-effort), so a
        file-warmed session also warms the fleet.
        """
        return self._load_cache("plan_cache", PlanCache, path, capacity)

    def _load_cache(self, attribute: str, cache_cls: type[Cache],
                    path: str | Path, capacity: int | None) -> int:
        """Swap in *path* rehydrated as this session's *attribute* cache,
        in front of the tier (and published to it) when there is one."""
        loaded = self._adopt(cache_cls.load(path, capacity=capacity))
        if capacity is None:
            capacity = max(loaded.capacity, getattr(self, attribute).capacity)
        cache = self._new_cache(cache_cls, capacity)
        entries = loaded.items()
        cache.install(entries)
        self._publish(cache.space, entries)
        with self._lock:
            setattr(self, attribute, cache)
            if self._engine is not None:
                setattr(self._engine, attribute, cache)
        # Lanes hold the old cache: the next batch builds fresh ones.
        self._close_lanes()
        return len(cache)

    #: Upper bound on one published ``mput`` batch, well under the
    #: protocol's 32 MiB frame limit — a fully-loaded 65536-entry answer
    #: cache publishes as several frames instead of one oversized one.
    PUBLISH_BATCH_BYTES = 4 * 1024 * 1024

    def _publish(self, space: Space, entries: list[tuple]) -> None:
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
            for key, value in entries:
                entry = space.wire_entry(key, value)
                entry_bytes = len(json.dumps(entry, separators=(",", ":")))
                if batch and batch_bytes + entry_bytes > \
                        self.PUBLISH_BATCH_BYTES:
                    self._cache_client.mput(space.name, batch)
                    batch, batch_bytes = [], 0
                batch.append(entry)
                batch_bytes += entry_bytes
            if batch:
                self._cache_client.mput(space.name, batch)
        except CacheUnavailable:
            self.metrics_registry.increment("cachenet_fallbacks")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the batch lanes (and their worker processes).

        Idempotent; the session itself stays usable (a later batch simply
        recreates what it needs).  The cache-tier client, when any, is
        closed for good — further cache traffic degrades to local-only
        mode.  Use the session as a context manager to get this
        automatically.
        """
        self._close_lanes()
        if self._cache_client is not None:
            self._cache_client.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _query_engine(self) -> Engine:
        """The engine behind :meth:`query`, built on first use."""
        with self._lock:
            if self._engine is None:
                self._engine = self.make_engine()
            return self._engine

    def _batch_lanes(self, kind: str, workers: int) -> list:
        """The first *workers* warm batch lanes of *kind*, growing them
        as needed."""
        from repro.exec.lanes import LANE_KINDS, BackendError
        if kind not in LANE_KINDS:
            raise BackendError(f"unknown execution backend {kind!r}; "
                               f"available: {', '.join(BACKENDS)}")
        with self._lock:
            lanes = self._lanes.setdefault(kind, [])
            while len(lanes) < workers:
                lanes.append(LANE_KINDS[kind](self, len(lanes)))
            return lanes[:workers]

    def _close_lanes(self) -> None:
        with self._lock:
            lanes = [lane for kind in self._lanes.values() for lane in kind]
            self._lanes = {}
        for lane in lanes:
            lane.close()

    def make_engine(self) -> Engine:
        """A fresh engine wired to this session's full stack.

        Same lake, brain, configuration, role overrides, caches, and
        metrics registry as the engine behind :meth:`query` — but owned
        by the caller.  Worker lanes (:mod:`repro.exec.lanes`) build
        their engines here, so a thread lane can discard a wedged engine
        and an in-parent re-run never borrows an engine another thread
        is using.
        """
        return Engine(
            self.lake, model=self.brain, config=self.config,
            planner=self.planner, mapper=self.mapper,
            executor=self.executor, plan_cache=self.plan_cache,
            answer_cache=self.answer_cache,
            render_cache=self.render_cache,
            metrics=self.metrics_registry,
            telemetry=self.telemetry)
