"""Worker-process side of the process backend.

Everything in this module runs inside a pool worker process.  The
contract with the parent (:mod:`repro.exec.process`) is JSON-shaped on
the hot path: the parent ships ``BoundPlan.to_dict()`` payloads in and
receives ``QueryResult.to_dict()`` payloads back, so big objects (tables,
rendered images) never cross the pipe — the worker rebuilds its own lake
deterministically from the :class:`~repro.datasets.LakeSpec` generation
parameters in the per-process initializer and verifies the fingerprint
matches the parent's before serving anything.

Each worker owns a full engine with *local* plan and answer caches
(shared-nothing: no cross-process locking, no cache coherence traffic).
Both caches are seeded at initialization from the parent's caches, and
whatever a worker learns — plans it synthesizes, modality answers it
infers — ships back with the query result, so the parent caches (and
``--plan-cache-file`` / ``--answer-cache-file`` persistence) stay warm
regardless of backend.  Shipping fresh answers is proportional to the
inference actually performed, so warm queries add nothing to the pipe.
"""

from __future__ import annotations

import traceback
from typing import Iterable

from repro.cachenet import RemoteAnswerCache
from repro.core.answer_cache import AnswerCache, AnswerKey
from repro.core.batch import PlanCache
from repro.core.engine import Engine
from repro.core.plan import BoundPlan
from repro.data.datatypes import decode_scalar, encode_scalar
from repro.datasets import LakeSpec
from repro.obs import MetricsRegistry, TraceContext, TraceContextError

#: per-process engine state, populated by :func:`initialize_worker`.
_STATE: dict[str, object] = {}


class _JournalMixin:
    """Journals fresh puts on top of any answer cache.

    Operators only put after real model inference, so the journal of
    one query is exactly the set of answers the worker just learned —
    what gets shipped back to the parent cache.  Tier fills on the
    remote variant go through ``install`` and are therefore *not*
    journaled (the parent can fetch those from the tier itself).
    """

    def __init__(self, *args: object, **kwargs: object):
        super().__init__(*args, **kwargs)
        self.journal: list[tuple[AnswerKey, object]] = []

    def put_many(self,
                 entries: Iterable[tuple[AnswerKey, object]]) -> None:
        entries = list(entries)
        super().put_many(entries)
        self.journal.extend(entries)

    def drain(self) -> list[list[object]]:
        """The journaled entries, JSON-encoded, and an empty journal."""
        entries = [[key[0], key[1], key[2], encode_scalar(answer)]
                   for key, answer in self.journal]
        self.journal = []
        return entries


class _JournalingAnswerCache(_JournalMixin, AnswerCache):
    """The classic shared-nothing worker cache (no tier)."""


class _JournalingRemoteAnswerCache(_JournalMixin, RemoteAnswerCache):
    """Tier-backed worker cache that still journals fresh inference."""


def initialize_worker(payload: dict) -> None:
    """Pool initializer: rebuild the lake and stand up a local engine.

    *payload* carries the lake spec + the parent's *content* fingerprint
    (cell-level, not just shape — see :meth:`~repro.data.catalog.
    DataLake.content_fingerprint`), the (pickled) brain / role overrides
    / engine config, local cache capacities, and the parent's warm plans
    as ``BoundPlan.to_dict()`` payloads.  A fingerprint mismatch means
    ``(dataset, seed, scale)`` generation is not deterministic on this
    host — that must fail loudly, not serve answers about a silently
    different lake.
    """
    spec = LakeSpec.from_dict(payload["lake_spec"])
    lake = spec.build()
    fingerprint = lake.content_fingerprint()
    expected = payload["content_fingerprint"]
    if fingerprint != expected:
        raise RuntimeError(
            f"worker lake content fingerprint {fingerprint} does not match "
            f"the parent's {expected} for spec {spec!r}; lake generation "
            "is not deterministic across processes")
    # Plan-cache keys use the shape fingerprint (plans transfer between
    # same-shaped lakes by design); content equality above guarantees the
    # shapes agree with the parent too.
    plan_key_fingerprint = lake.fingerprint()
    # Worker-local registry: per-query deltas ship back over the pipe
    # (run_worker_query) and the parent folds them into the session
    # registry, so session.metrics() stays complete under this backend —
    # including the lane's own cachenet counters when a tier is in play.
    metrics = MetricsRegistry()
    cache_url = payload.get("cache_url")
    if cache_url is not None:
        # Tier mode: the init payload ships no warm entries — this lane
        # pulls exactly what its queries touch from the shared tier, and
        # degrades to local-only if the tier goes away mid-batch.
        from repro.cachenet import CacheClient, RemotePlanCache
        client = CacheClient(cache_url, metrics=metrics)
        plan_cache = RemotePlanCache(
            client, payload["plan_cache_capacity"], metrics=metrics)
        answer_cache = _JournalingRemoteAnswerCache(
            client, payload["answer_cache_capacity"], metrics=metrics)
    else:
        plan_cache = PlanCache(payload["plan_cache_capacity"])
        answer_cache = _JournalingAnswerCache(
            payload["answer_cache_capacity"])
    for entry in payload["plans"]:
        plan_cache.put((entry["query"], plan_key_fingerprint),
                       BoundPlan.from_dict(entry["plan"]))
    answer_cache.put_many(
        ((fingerprint_, question, answer_type), decode_scalar(answer))
        for fingerprint_, question, answer_type, answer in payload["answers"])
    answer_cache.journal = []  # seeding is not fresh inference
    engine = Engine(lake, model=payload["brain"], config=payload["config"],
                    planner=payload["planner"], mapper=payload["mapper"],
                    executor=payload["executor"], plan_cache=plan_cache,
                    answer_cache=answer_cache, metrics=metrics,
                    telemetry=payload.get("telemetry"))
    _STATE.update(engine=engine, plan_cache=plan_cache,
                  answer_cache=answer_cache, metrics=metrics,
                  fingerprint=expected)


def _cache_deltas(before_plan: tuple[int, int, int],
                  before_answer: tuple[int, int, int]) -> dict:
    plan_after = _STATE["plan_cache"].snapshot()
    answer_after = _STATE["answer_cache"].snapshot()
    return {
        "plan_delta": [a - b for a, b in zip(plan_after, before_plan)],
        "answer_delta": [a - b for a, b in zip(answer_after, before_answer)],
    }


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
    ...cache deltas}`` on any engine outcome (including engine-level
    error results), or ``{"ok": False, "error": ..., "traceback": ...}``
    when the engine itself crashed with a non-Repro exception.  Crashes
    are caught here so a poisoned query never kills the worker process
    or its pool — the parent records a worker
    :class:`~repro.core.plan.ErrorEvent` and falls back to in-parent
    execution.
    """
    engine: Engine = _STATE["engine"]
    answer_cache: _JournalingAnswerCache = _STATE["answer_cache"]
    metrics: MetricsRegistry = _STATE["metrics"]
    answer_cache.journal = []
    before_plan = _STATE["plan_cache"].snapshot()
    before_answer = answer_cache.snapshot()
    before_metrics = metrics.raw_state()
    if trace is not None:
        try:
            engine.trace_context = TraceContext.from_dict(trace)
        except TraceContextError:
            engine.trace_context = None
    try:
        result = engine.query(query)
    except Exception as exc:  # noqa: BLE001 - crash containment boundary
        payload = {"ok": False,
                   "error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc(limit=8),
                   "metrics_delta": metrics.delta_since(before_metrics)}
        payload.update(_cache_deltas(before_plan, before_answer))
        return payload
    finally:
        engine.trace_context = None
    fresh_plan = engine.last_put
    payload = {"ok": True, "result": result.to_dict(),
               "fresh_plan": (fresh_plan.to_dict()
                              if fresh_plan is not None else None),
               "fresh_answers": answer_cache.drain(),
               "metrics_delta": metrics.delta_since(before_metrics)}
    payload.update(_cache_deltas(before_plan, before_answer))
    return payload
