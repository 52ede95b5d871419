"""The process backend: worker lanes that break the GIL wall.

Thread workers collapse to ~1.3x at 4 workers on 10k-row lakes because
the pure-Python table layer holds the GIL; this backend moves each
worker into its own process.  Design decisions, in the order they
matter:

**Shared-nothing workers.**  Each worker process rebuilds the lake from
the session's :class:`~repro.datasets.LakeSpec` in a per-process
initializer (fingerprint-checked against the parent) and owns a full
engine with *local* plan and answer caches.  Nothing heavier than JSON
payloads crosses the pipe: warm plans and answers go in at lane
creation, results come back as ``QueryResult.to_dict()`` plus cache-stat
deltas — and whatever the worker just learned (a synthesized plan, the
answers of fresh modality inference) — which the parent merges into one
:class:`~repro.core.batch.BatchReport` and its own caches, keeping
``--plan-cache-file`` / ``--answer-cache-file`` persistence complete
under every backend.

**Deterministic query→lane affinity.**  Workers are independent
single-process pools ("lanes"), and a query is pinned to the lane chosen
by its first-occurrence index in the workload.  Repeats of a query — the
whole point of warm benchmarking — always land on the lane that already
planned it and cached its modality answers, so per-lane caches behave
like the serial shared cache and warm passes stay warm.  Affinity is
also what makes process traces match serial traces (same hit pattern),
keeping reports line-for-line comparable.

**Per-query crash/timeout recovery.**  Engine-level failures come back
as ordinary error results.  A worker *crash* (non-Repro exception, a
worker killed mid-query, an initializer failure breaking the pool) or a
per-query *timeout* records a ``phase="worker"``
:class:`~repro.core.plan.ErrorEvent` and falls back to executing that
query in the parent process; the lane is torn down and lazily rebuilt,
and every other query still completes in submission order.

The pool start method defaults to ``fork`` where available (Linux —
instant, inherits imported modules) and ``spawn`` elsewhere; the
spec-based initializer makes both equivalent.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.batch import (BatchReport, _fold_cache_deltas, _fold_result)
from repro.core.plan import BoundPlan, ErrorEvent, PlanTrace, QueryResult
from repro.data.datatypes import decode_scalar, encode_scalar
from repro.exec.base import BackendError, ExecutionBackend, register_backend
from repro.exec.procworker import initialize_worker, run_worker_query
from repro.obs import TraceContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session import Session


def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def build_init_payload(session: "Session", spec: object,
                       content_fingerprint: str,
                       plan_fingerprint: str) -> dict:
    """What a fresh worker needs: spec, brain/roles, and warm caches.

    Plans and answers both ship as JSON-shaped payloads; answer keys
    are content fingerprints, so every lane can safely take the whole
    parent answer cache (e.g. one rehydrated from
    ``--answer-cache-file``).

    With a session *cache_url*, the warm payloads ship **empty** and
    the lane consults the shared tier lazily instead — the
    parent→worker pipe no longer scales with cache size, and a lane
    only pulls the entries its queries actually touch.

    Module-level because two lane owners share it: this backend and the
    serve layer's process-lane mode
    (:class:`repro.serve.jobs.JobManager`).
    """
    cache_url = getattr(session, "cache_url", None)
    if cache_url is not None:
        plans: list = []
        answers: list = []
    else:
        plans = []
        for (query, fp), plan in session.plan_cache.items():
            if fp == plan_fingerprint:
                plans.append({"query": query, "plan": plan.to_dict()})
        answers = [[key[0], key[1], key[2], encode_scalar(answer)]
                   for key, answer in session.answer_cache.items()]
    return {
        "cache_url": cache_url,
        "lake_spec": spec.to_dict(),
        "content_fingerprint": content_fingerprint,
        "brain": session.brain,
        "config": session.config,
        "planner": session.planner,
        "mapper": session.mapper,
        "executor": session.executor,
        "plan_cache_capacity": session.plan_cache.capacity,
        "answer_cache_capacity": session.answer_cache.capacity,
        "plans": plans,
        "answers": answers,
        "telemetry": session.telemetry,
    }


class _Lane:
    """One single-process executor with a deterministic query affinity.

    A lane is created lazily from its init payload and can be killed and
    rebuilt after a crash or timeout without touching the other lanes.
    """

    def __init__(self, index: int, start_method: str):
        self.index = index
        self._start_method = start_method
        self._executor: ProcessPoolExecutor | None = None

    @property
    def live(self) -> bool:
        return self._executor is not None

    def ensure(self, init_payload: dict) -> None:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context(self._start_method),
                initializer=initialize_worker,
                initargs=(init_payload,))

    def submit(self, query: str, trace: dict | None = None):
        assert self._executor is not None
        return self._executor.submit(run_worker_query, query, trace)

    def kill(self) -> None:
        """Tear the lane down hard (terminates a stuck worker)."""
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        # Terminate first: shutdown() alone joins, which would hang on a
        # worker stuck in a timed-out query.  _processes is stable across
        # the supported CPython versions; fall back to a plain shutdown
        # if it ever disappears.
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


@dataclass
class _Task:
    """One submitted query: its workload position, lane, and future."""

    index: int
    query: str
    lane: _Lane
    #: the parent-minted :class:`~repro.obs.TraceContext` this query runs
    #: under — shipped across the pipe so the worker's spans join it, and
    #: reused by the in-parent fallback so a recovered query keeps its id.
    context: TraceContext | None = None
    future: object = field(default=None, repr=False)


class ProcessBackend(ExecutionBackend):
    """Drain the workload through single-process worker lanes.

    *start_method* overrides the multiprocessing start method;
    *timeout* bounds each query's wall-clock seconds in a worker (``None``
    = unbounded) — on expiry the lane is killed and the query re-runs in
    the parent.  Lanes persist across :meth:`run` calls of one session,
    so consecutive batches (a cold and a warm benchmark pass) reuse warm
    worker caches; they are rebuilt when the session's lake changes.
    """

    name = "process"

    def __init__(self, start_method: str | None = None,
                 timeout: float | None = None):
        self._start_method = start_method or default_start_method()
        self.timeout = timeout
        self._lanes: list[_Lane] = []
        self._lake_fingerprint: str | None = None   # content fingerprint
        self._plan_fingerprint: str | None = None   # shape fingerprint

    # ------------------------------------------------------------------
    # ExecutionBackend
    # ------------------------------------------------------------------

    def run(self, session: "Session", queries: Sequence[str],
            workers: int) -> BatchReport:
        spec = getattr(session.lake, "spec", None)
        if spec is None:
            raise BackendError(
                "the process backend needs a lake that knows its generation "
                "parameters (lake.spec is None); build the lake with "
                "repro.datasets.load_lake / LakeSpec.build, or use the "
                "thread backend for ad-hoc lakes")
        workload = list(queries)
        # Lane identity is the *content* fingerprint: two seeds of one
        # dataset share a shape fingerprint (by design — plans transfer)
        # but must never share warm worker lanes.
        content = session.lake.content_fingerprint()
        self._plan_fingerprint = session.lake.fingerprint()
        if self._lake_fingerprint not in (None, content):
            self.close()  # lake changed under the backend: rebuild lanes
        self._lake_fingerprint = content

        while len(self._lanes) < workers:
            self._lanes.append(_Lane(len(self._lanes), self._start_method))
        lanes = self._lanes[:workers]
        if any(not lane.live for lane in lanes):
            # Serializing both caches is only worth it when some lane
            # will actually consume the payload; warm lanes keep theirs.
            init_payload = self._init_payload(session, spec, content)
            for lane in lanes:
                if not lane.live:
                    lane.ensure(init_payload)

        report = BatchReport(workers=len(lanes), backend=self.name)
        plan_before = session.plan_cache.snapshot()
        answer_before = session.answer_cache.snapshot()
        worker_plan_delta = [0, 0, 0]
        worker_answer_delta = [0, 0, 0]

        started = time.perf_counter()
        # Deterministic affinity: a query's lane is fixed by the position
        # of its first occurrence in the workload, so repeats (and warm
        # re-runs of the same workload) always hit the same worker cache.
        first_seen: dict[str, int] = {}
        for query in workload:
            first_seen.setdefault(query, len(first_seen))
        tasks = []
        for index, query in enumerate(workload):
            lane = lanes[first_seen[query] % len(lanes)]
            # One distributed trace per query, minted in the parent and
            # shipped across the pipe with the submission.
            context = TraceContext.new()
            tasks.append(_Task(index=index, query=query, lane=lane,
                               context=context,
                               future=lane.submit(query,
                                                  context.to_dict())))

        results: list[QueryResult] = []
        for task in tasks:  # submission order == collection order
            result = self._collect(session, task, worker_plan_delta,
                                   worker_answer_delta)
            results.append(result)
        report.elapsed_seconds = time.perf_counter() - started

        for task, result in zip(tasks, results):
            _fold_result(report, task.query, result)
        # Cache accounting: the parent caches only move on fallbacks and
        # fresh-plan imports; per-worker deltas are summed on top so the
        # report reflects total cache activity across all processes.
        _fold_cache_deltas(report, session.plan_cache, session.answer_cache,
                           plan_before, answer_before)
        report.cache_hits += worker_plan_delta[0]
        report.cache_misses += worker_plan_delta[1]
        report.cache_evictions += worker_plan_delta[2]
        report.answer_hits += worker_answer_delta[0]
        report.answer_misses += worker_answer_delta[1]
        report.answer_evictions += worker_answer_delta[2]
        return report

    def close(self) -> None:
        for lane in self._lanes:
            lane.close()
        self._lanes = []
        self._lake_fingerprint = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _init_payload(self, session: "Session", spec: object,
                      content_fingerprint: str) -> dict:
        return build_init_payload(session, spec, content_fingerprint,
                                  self._plan_fingerprint)

    def _collect(self, session: "Session", task: _Task,
                 worker_plan_delta: list[int],
                 worker_answer_delta: list[int]) -> QueryResult:
        """Resolve one task into a QueryResult, recovering from failures."""
        try:
            payload = task.future.result(timeout=self.timeout)
        except FutureTimeoutError:
            task.lane.kill()
            event = ErrorEvent.worker_failure(
                f"worker query timed out after {self.timeout:g}s "
                f"(lane {task.lane.index}); lane killed",
                worker_id=task.lane.index)
            return self._fallback(session, task.query, event, task.context)
        except Exception as exc:  # noqa: BLE001 - BrokenProcessPool et al.
            # A broken pool also poisons every later future on the lane;
            # each one lands here and falls back individually.
            task.lane.kill()
            event = ErrorEvent.worker_failure(
                f"worker crashed (lane {task.lane.index}): "
                f"{type(exc).__name__}: {exc}",
                worker_id=task.lane.index)
            return self._fallback(session, task.query, event, task.context)

        for target, delta in ((worker_plan_delta, payload["plan_delta"]),
                              (worker_answer_delta,
                               payload["answer_delta"])):
            for i, value in enumerate(delta):
                target[i] += value
        session.metrics_registry.merge_delta(payload.get("metrics_delta"))
        if not payload["ok"]:
            # The engine crashed inside the worker but the process (and
            # pool) survived; re-run in the parent for a full trace.
            event = ErrorEvent.worker_failure(
                f"worker query crashed (lane {task.lane.index}): "
                f"{payload['error']}",
                worker_id=task.lane.index)
            return self._fallback(session, task.query, event, task.context)

        result = QueryResult.from_dict(payload["result"])
        fresh_plan = payload.get("fresh_plan")
        if fresh_plan is not None:
            # Ship what the worker wrote to its plan cache (a fresh plan,
            # or refreshed bound replies) back into the parent cache so
            # plan persistence (--plan-cache-file) and later thread/serial
            # batches stay warm; put() does not touch hit/miss counters.
            session.plan_cache.put(
                (task.query, self._plan_fingerprint),
                BoundPlan.from_dict(fresh_plan))
        for fingerprint, question, answer_type, answer in payload.get(
                "fresh_answers", []):
            # Same for freshly inferred modality answers: the traffic is
            # proportional to inference actually performed, so warm
            # queries ship nothing.
            session.answer_cache.put((fingerprint, question, answer_type),
                                     decode_scalar(answer))
        return result

    def _fallback(self, session: "Session", query: str, event: ErrorEvent,
                  context: TraceContext | None = None) -> QueryResult:
        """Re-run *query* in the parent, guarding against a second crash.

        The recovered run keeps the query's original trace context, so
        one trace id covers the failed lane attempt and the fallback.
        """
        session.metrics_registry.increment("worker_failures_total")
        engine = session.engine_pool(1)[0]
        engine.trace_context = context
        try:
            result = engine.query(query)
        except Exception as exc:  # noqa: BLE001 - the query is poisoned
            trace = PlanTrace(
                query=query,
                trace_id=context.trace_id if context else None)
            trace.errors.append(event)
            trace.errors.append(ErrorEvent(
                "execution", None,
                f"in-parent fallback crashed: {type(exc).__name__}: {exc}"))
            return QueryResult(kind="error", trace=trace,
                               error=f"worker and in-parent fallback both "
                                     f"failed: {exc}")
        finally:
            engine.trace_context = None
        event.recovered = True
        if result.trace is not None:
            result.trace.errors.insert(0, event)
        return result


register_backend(ProcessBackend.name, ProcessBackend)
