"""Worker-process side of a process lane.

Everything in this module runs inside a lane's worker process, whose
main loop is :func:`serve_lane`.  The contract with the parent
(:class:`repro.exec.lanes.ProcessLane`, whose ``_fold`` is the one
reader of these replies) is objects in and objects out: the
initialization payload carries the parent's lake and its warm caches'
``(key, value)`` pairs, which a forked worker inherits and a spawned one
unpickles, so a worker answers over exactly the lake the parent had when
the worker started — generated, hand-built or changed since it was
loaded.  A request is the query and its :class:`~repro.obs.TraceContext`;
a reply carries the result as ``QueryResult.to_dict()`` (the payload
``canonical_results()`` compares), the ``(key, value)`` pairs the query
put into the worker's caches, and the metrics it recorded
(:meth:`~repro.obs.MetricsRegistry.take`), all pickled by the pipe.

Each worker owns a full engine with *local* plan and answer caches
(shared-nothing: no cross-process locking, no cache coherence traffic).
Both caches are seeded at initialization from the parent's caches, and
whatever a worker learns — plans it synthesizes, modality answers it
infers — ships back with the query result, so the parent caches (and
``--plan-cache-file`` / ``--answer-cache-file`` persistence) stay warm
regardless of backend.  Shipping fresh entries is proportional to the
work actually performed, so warm queries add nothing to the pipe.
A query's plan- and answer-cache hits and misses cross inside its
result's telemetry like every other per-query counter; the evictions of
a worker's private caches are its own business and are not reported.
"""

from __future__ import annotations

import signal
import traceback
from typing import Iterable

from repro.core.answer_cache import ANSWER_SPACE, RenderCache
from repro.core.batch import PLAN_SPACE
from repro.core.cache import Cache, Space
from repro.core.engine import Engine
from repro.obs import MetricsRegistry, TraceContext

#: per-process engine state, populated by :func:`initialize_worker`.
_STATE: dict[str, object] = {}


class _JournalingCache(Cache):
    """A worker's cache of one *space*, journaling what it puts.

    The engine puts a plan after a run that produced or changed it, and
    operators put answers only after real model inference, so the journal
    of one query is exactly what the worker just learned — what gets
    shipped back to the parent's caches.  Seeding and tier fills go
    through ``install`` and are therefore *not* journaled (the parent has
    those already, or can fetch them from the tier itself).
    """

    def __init__(self, space: Space, capacity: int, tier: object,
                 metrics: MetricsRegistry):
        self.space = space
        super().__init__(capacity, tier=tier, metrics=metrics)
        self._journal: list[tuple[tuple, object]] = []

    def put_many(self, entries: Iterable[tuple[tuple, object]]) -> None:
        entries = list(entries)
        super().put_many(entries)
        self._journal.extend(entries)

    def take(self) -> list[tuple[tuple, object]]:
        """The journaled pairs, and an empty journal."""
        journal, self._journal = self._journal, []
        return journal


def serve_lane(conn, payload: dict) -> None:
    """Main loop of a lane's worker process.

    Initializes from *payload*, then answers one ``(query, context)``
    request per message on *conn* until ``None`` or end-of-file.  An
    initialization failure exits the process, which the lane sees as a
    lost worker.
    """
    # A forked worker inherits the parent's signal set-up; under
    # ``repro serve`` that is a SIGTERM handler that wakes the server's
    # event loop to drain.  A worker must simply die on SIGTERM.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    initialize_worker(payload)
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        if request is None:
            return
        conn.send(run_worker_query(*request))


def initialize_worker(payload: dict) -> None:
    """Worker initializer: stand up a local engine over the shipped lake.

    *payload* carries the parent's lake, brain / role overrides / engine
    config and telemetry config, local cache capacities, and the parent's
    warm plans and answers as ``(key, value)`` pairs.
    """
    # Worker-local registry: what a query recorded ships back with its
    # reply (run_worker_query) and the parent folds it into the session
    # registry, so session.metrics() stays complete under this backend —
    # including the lane's own cachenet counters when a tier is in play.
    metrics = MetricsRegistry()
    # Tier mode (a cache_url): the init payload ships no warm entries —
    # this lane pulls exactly what its queries touch from the shared
    # tier, and degrades to local-only if the tier goes away mid-batch.
    cache_url = payload["cache_url"]
    tier = None
    if cache_url is not None:
        from repro.cachenet import CacheClient
        tier = CacheClient(cache_url, metrics=metrics)
    plan_cache = _JournalingCache(PLAN_SPACE, payload["plan_cache_capacity"],
                                  tier, metrics)
    answer_cache = _JournalingCache(ANSWER_SPACE,
                                    payload["answer_cache_capacity"], tier,
                                    metrics)
    plan_cache.install(payload["plans"])
    answer_cache.install(payload["answers"])
    # Digests a worker computes go to the tier, not back to the parent:
    # the parent's own lake images are keyed by whoever asks there.
    render_cache = (RenderCache(tier=tier, metrics=metrics)
                    if tier is not None else None)
    engine = Engine(payload["lake"], model=payload["brain"],
                    config=payload["config"], planner=payload["planner"],
                    mapper=payload["mapper"], executor=payload["executor"],
                    plan_cache=plan_cache, answer_cache=answer_cache,
                    render_cache=render_cache, metrics=metrics,
                    telemetry=payload["telemetry"])
    _STATE.update(engine=engine, plan_cache=plan_cache,
                  answer_cache=answer_cache, metrics=metrics)


def run_worker_query(query: str,
                     context: TraceContext | None = None) -> dict:
    """Answer one query on the worker's local engine.

    *context* is the parent's :class:`~repro.obs.TraceContext` (the
    distributed-tracing hop across the pipe): the query runs under it,
    so the result's ``trace_id`` — and any ``cachenet:*`` spans this lane
    records against the shared tier — belong to the parent's trace.

    Returns ``{"ok": True, "result": <QueryResult dict>, "plans": [...],
    "answers": [...], "metrics": ...}`` on any engine outcome (including
    engine-level error results), where ``plans`` and ``answers`` are the
    ``(key, value)`` pairs this query put into the worker's caches and
    ``metrics`` is the worker registry's :meth:`~repro.obs.
    MetricsRegistry.take`; or ``{"ok": False, "error": ..., "traceback":
    ..., "metrics": ...}`` when the engine itself crashed with a
    non-Repro exception, whose puts are discarded.  Crashes are caught
    here so a poisoned query never kills the worker process — the parent
    records a worker :class:`~repro.core.plan.ErrorEvent` and falls back
    to in-parent execution.
    """
    engine: Engine = _STATE["engine"]
    plan_cache: _JournalingCache = _STATE["plan_cache"]
    answer_cache: _JournalingCache = _STATE["answer_cache"]
    metrics: MetricsRegistry = _STATE["metrics"]
    try:
        result = engine.query(query, context)
    except Exception as exc:  # noqa: BLE001 - crash containment boundary
        plan_cache.take()
        answer_cache.take()
        return {"ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=8),
                "metrics": metrics.take()}
    return {"ok": True, "result": result.to_dict(),
            "plans": plan_cache.take(), "answers": answer_cache.take(),
            "metrics": metrics.take()}
