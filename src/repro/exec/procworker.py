"""Worker-process side of a process lane.

Everything in this module runs inside a lane's worker process, whose
main loop is :func:`serve_lane`.  The contract with the parent
(:class:`repro.exec.lanes.ProcessLane`, whose ``_fold`` is the one
reader of these replies) is JSON-shaped on the hot path: cache entries
cross it encoded by their space's codecs (:mod:`repro.core.cache`) and
results as ``QueryResult.to_dict()`` payloads.  The lake itself crosses
once, in the initialization payload: a forked worker inherits the
parent's lake object, a spawned one unpickles it, so a worker answers
over exactly the lake the parent had when the lane started — generated,
hand-built or changed since it was loaded.

Each worker owns a full engine with *local* plan and answer caches
(shared-nothing: no cross-process locking, no cache coherence traffic).
Both caches are seeded at initialization from the parent's caches, and
whatever a worker learns — plans it synthesizes, modality answers it
infers — ships back with the query result, so the parent caches (and
``--plan-cache-file`` / ``--answer-cache-file`` persistence) stay warm
regardless of backend.  Shipping fresh answers is proportional to the
inference actually performed, so warm queries add nothing to the pipe.
A query's plan- and answer-cache hits and misses cross inside its
result's telemetry like every other per-query counter; the evictions of
a worker's private caches are its own business and are not reported.
"""

from __future__ import annotations

import signal
import traceback
from typing import Iterable

from repro.core.answer_cache import AnswerCache, AnswerKey
from repro.core.batch import PLAN_SPACE, PlanCache
from repro.core.engine import Engine
from repro.obs import MetricsRegistry, TraceContext, TraceContextError

#: per-process engine state, populated by :func:`initialize_worker`.
_STATE: dict[str, object] = {}


class _JournalingAnswerCache(AnswerCache):
    """A worker's answer cache, journaling what it puts.

    Operators only put after real model inference, so the journal of
    one query is exactly the set of answers the worker just learned —
    what gets shipped back to the parent cache.  Seeding and tier fills
    go through ``install`` and are therefore *not* journaled (the parent
    has those already, or can fetch them from the tier itself).
    """

    def __init__(self, *args: object, **kwargs: object):
        super().__init__(*args, **kwargs)
        self.journal: list[tuple[AnswerKey, object]] = []

    def put_many(self,
                 entries: Iterable[tuple[AnswerKey, object]]) -> None:
        entries = list(entries)
        super().put_many(entries)
        self.journal.extend(entries)

    def drain(self) -> list[dict]:
        """The journaled entries, encoded by the answer space, and an
        empty journal."""
        entries = [self.space.entry(key, answer)
                   for key, answer in self.journal]
        self.journal = []
        return entries


def serve_lane(conn, payload: dict) -> None:
    """Main loop of a lane's worker process.

    Initializes from *payload*, then answers one ``(query, trace)``
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

    *payload* carries the parent's lake, the (pickled) brain / role
    overrides / engine config, local cache capacities, and the parent's
    warm plans and answers as cache-file entries
    (:meth:`~repro.core.cache.Space.entry`).
    """
    # Worker-local registry: per-query deltas ship back over the pipe
    # (run_worker_query) and the parent folds them into the session
    # registry, so session.metrics() stays complete under this backend —
    # including the lane's own cachenet counters when a tier is in play.
    metrics = MetricsRegistry()
    # Tier mode (a cache_url): the init payload ships no warm entries —
    # this lane pulls exactly what its queries touch from the shared
    # tier, and degrades to local-only if the tier goes away mid-batch.
    cache_url = payload.get("cache_url")
    tier = None
    if cache_url is not None:
        from repro.cachenet import CacheClient
        tier = CacheClient(cache_url, metrics=metrics)
    plan_cache = PlanCache(payload["plan_cache_capacity"], tier=tier,
                           metrics=metrics)
    answer_cache = _JournalingAnswerCache(payload["answer_cache_capacity"],
                                          tier=tier, metrics=metrics)
    plan_cache.install(map(plan_cache.space.read_entry, payload["plans"]))
    answer_cache.install(
        map(answer_cache.space.read_entry, payload["answers"]))
    engine = Engine(payload["lake"], model=payload["brain"],
                    config=payload["config"], planner=payload["planner"],
                    mapper=payload["mapper"], executor=payload["executor"],
                    plan_cache=plan_cache, answer_cache=answer_cache,
                    metrics=metrics, telemetry=payload.get("telemetry"))
    _STATE.update(engine=engine, answer_cache=answer_cache, metrics=metrics)


def run_worker_query(query: str, trace: dict | None = None) -> dict:
    """Answer one query on the worker's local engine.

    *trace* is the parent's :class:`~repro.obs.TraceContext` as a dict
    (the distributed-tracing hop across the pipe): installed on the
    worker engine so the result's ``trace_id`` — and any ``cachenet:*``
    spans this lane records against the shared tier — belong to the
    parent's trace.  A malformed dict is ignored (the query still runs,
    under a locally minted context).

    Returns a JSON-shaped payload: ``{"ok": True, "result": <QueryResult
    dict>, "fresh_plan": <the ``BoundPlan`` dict this query wrote to the
    lane's plan cache, or None>, "fresh_answers": [...],
    "metrics_delta": ...}`` on any engine outcome (including engine-level
    error results), or ``{"ok": False, "error": ..., "traceback": ...}``
    when the engine itself crashed with a non-Repro exception.  Crashes
    are caught here so a poisoned query never kills the worker
    process — the parent records a worker
    :class:`~repro.core.plan.ErrorEvent` and falls back to in-parent
    execution.
    """
    engine: Engine = _STATE["engine"]
    answer_cache: _JournalingAnswerCache = _STATE["answer_cache"]
    metrics: MetricsRegistry = _STATE["metrics"]
    answer_cache.journal = []
    before_metrics = metrics.raw_state()
    if trace is not None:
        try:
            engine.trace_context = TraceContext.from_dict(trace)
        except TraceContextError:
            engine.trace_context = None
    try:
        result = engine.query(query)
    except Exception as exc:  # noqa: BLE001 - crash containment boundary
        return {"ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=8),
                "metrics_delta": metrics.delta_since(before_metrics)}
    finally:
        engine.trace_context = None
    fresh_plan = engine.last_put
    return {"ok": True, "result": result.to_dict(),
            "fresh_plan": (PLAN_SPACE.encode(fresh_plan)
                           if fresh_plan is not None else None),
            "fresh_answers": answer_cache.drain(),
            "metrics_delta": metrics.delta_since(before_metrics)}
