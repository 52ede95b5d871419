"""The process backend: worker lanes that break the GIL wall.

Thread workers collapse to ~1.3x at 4 workers on 10k-row lakes because
the pure-Python table layer holds the GIL; this backend runs each worker
as a :class:`~repro.exec.lanes.ProcessLane`, a shared-nothing worker
process that rebuilds the lake from the session's
:class:`~repro.datasets.LakeSpec`.

**Deterministic query→lane affinity.**  A query is pinned to the lane
chosen by its first-occurrence index in the workload.  Repeats of a
query — the whole point of warm benchmarking — always land on the lane
that already planned it and cached its modality answers, so per-lane
caches behave like the serial shared cache and warm passes stay warm.
Affinity is also what makes process traces match serial traces (same
hit pattern), keeping reports line-for-line comparable.  Each lane's
queries run in workload order on one thread of its own, and results come
back in submission order.

A query whose lane timed out or lost its worker re-runs in the parent
(:func:`~repro.exec.lanes.run_in_parent`) and counts in
``worker_failures_total``.  Workers start with ``fork`` where available
(Linux — instant, inherits imported modules) and ``spawn`` elsewhere;
the spec-based initializer makes both equivalent.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Sequence

from repro.core.batch import BatchReport, _fold_cache_deltas, _fold_result
from repro.core.plan import QueryResult
from repro.exec.base import ExecutionBackend, register_backend
from repro.exec.lanes import LaneFailure, ProcessLane, run_in_parent
from repro.obs import TraceContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session import Session

#: :class:`BatchReport` fields fed by :attr:`ProcessLane.worker_cache`,
#: in its order.
_WORKER_CACHE_FIELDS = ("cache_hits", "cache_misses", "cache_evictions",
                        "answer_hits", "answer_misses", "answer_evictions")


class ProcessBackend(ExecutionBackend):
    """Drain the workload through single-process worker lanes.

    *start_method* overrides the multiprocessing start method;
    *timeout* bounds each query's wall-clock seconds in a worker (``None``
    = unbounded) — on expiry the lane is replaced and the query re-runs in
    the parent.  Lanes persist across :meth:`run` calls of one session,
    so consecutive batches (a cold and a warm benchmark pass) reuse warm
    worker caches; they are rebuilt when the session or its lake changes.
    """

    name = "process"

    def __init__(self, start_method: str | None = None,
                 timeout: float | None = None):
        self._start_method = start_method
        self.timeout = timeout
        self._lanes: list[ProcessLane] = []
        # What the lanes were built for: the session and its lake's
        # *content* fingerprint — two seeds of one dataset share a shape
        # fingerprint (plans transfer) but must never share warm lanes.
        self._owner: tuple | None = None

    def run(self, session: "Session", queries: Sequence[str],
            workers: int) -> BatchReport:
        workload = list(queries)
        owner = (session, session.lake.content_fingerprint())
        if self._owner != owner:
            self.close()
        while len(self._lanes) < workers:
            self._lanes.append(ProcessLane(session, len(self._lanes),
                                           start_method=self._start_method))
        self._owner = owner
        lanes = self._lanes[:workers]
        for lane in lanes:
            lane.start()

        # Deterministic affinity: a query's lane is fixed by the position
        # of its first occurrence in the workload.
        first_seen: dict[str, int] = {}
        assigned: list[list[int]] = [[] for _ in lanes]
        for index, query in enumerate(workload):
            position = first_seen.setdefault(query, len(first_seen))
            assigned[position % len(lanes)].append(index)
        results: list[QueryResult | None] = [None] * len(workload)

        def drain(lane: ProcessLane, indices: list[int]) -> None:
            for index in indices:
                results[index] = self._answer(session, lane, workload[index])

        report = BatchReport(workers=len(lanes), backend=self.name)
        plan_before = session.plan_cache.snapshot()
        answer_before = session.answer_cache.snapshot()
        worker_before = _worker_cache(lanes)
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(lanes)) as pool:
            list(pool.map(drain, lanes, assigned))
        report.elapsed_seconds = time.perf_counter() - started

        for query, result in zip(workload, results):
            _fold_result(report, query, result)
        # Cache accounting: the parent caches only move on fallbacks and
        # fresh-plan imports; the workers' own deltas are added on top so
        # the report reflects cache activity across all processes.
        _fold_cache_deltas(report, session.plan_cache, session.answer_cache,
                           plan_before, answer_before)
        for field, before, after in zip(_WORKER_CACHE_FIELDS, worker_before,
                                        _worker_cache(lanes)):
            setattr(report, field, getattr(report, field) + after - before)
        return report

    def close(self) -> None:
        for lane in self._lanes:
            lane.close()
        self._lanes = []
        self._owner = None

    def _answer(self, session: "Session", lane: ProcessLane,
                query: str) -> QueryResult:
        # One distributed trace per query, minted in the parent, shipped
        # across the pipe and kept by an in-parent re-run.
        context = TraceContext.new()
        try:
            return lane.run(query, context, self.timeout)
        except LaneFailure as failure:
            session.metrics_registry.increment("worker_failures_total")
            return run_in_parent(session, query, context, failure.event)


def _worker_cache(lanes: list[ProcessLane]) -> list[int]:
    """The lanes' :attr:`~ProcessLane.worker_cache` counts, summed."""
    return [sum(counts) for counts in zip(*(lane.worker_cache
                                            for lane in lanes))]


register_backend(ProcessBackend.name, ProcessBackend)
