"""Worker lanes: one query at a time, off the calling thread.

A :class:`Lane` owns the runtime one query runs on and is driven by one
caller thread through :meth:`Lane.run`.  :meth:`Session.batch` (through
:func:`run_batch`) and the query service (:mod:`repro.serve.jobs`) are
the two callers.  Two kinds share that interface:

- ``thread`` (:class:`EngineLane`) — an engine from
  :meth:`Session.make_engine` behind a one-thread inner executor, so a
  per-query timeout can abandon a stuck engine; spans reach the caller
  live, as they are recorded.
- ``process`` (:class:`ProcessLane`) — a worker process, talked to over
  one pipe, that runs a full engine over the parent's lake with
  shared-nothing local caches (:mod:`repro.exec.procworker`).  The lake
  and the warm caches' ``(key, value)`` pairs ship in when the worker
  starts, and the lane restarts its worker before a query whenever
  :attr:`~repro.data.catalog.DataLake.version` has moved since, so batch
  and serve lanes alike answer over the lake as it is now.  Every reply
  ships back the result, the metrics the worker recorded, and the pairs
  it just put (a synthesized plan, freshly inferred modality answers),
  which :meth:`ProcessLane._fold` puts into the session's caches so
  ``--plan-cache-file`` / ``--answer-cache-file`` persistence stays
  complete.  Spans and the query's cache counters cross the pipe inside
  the result, whose telemetry is all a batch report counts; spans are
  replayed to the caller after the fact.

**Failure policy.**  A timeout, or a lost worker — an engine crash on a
thread lane, a dead worker process on a process lane —
replaces the lane's runtime and raises one :class:`LaneFailure`
carrying a ``phase="worker"`` :class:`~repro.core.plan.ErrorEvent`.
What becomes of the query is the caller's policy: a batch re-runs it in
the parent (:func:`run_in_parent`), the query service resolves the job
as a worker error.  The next :meth:`Lane.run` starts on the
replacement, so one failure never spills onto later queries.  A
process-lane engine crash the worker survives (an ``ok: false`` reply)
is not a lost lane: the lane re-runs that query in the parent itself.

**Batches.**  :func:`run_batch` drains a workload over a session's warm
lanes with deterministic query→lane affinity: a query is pinned to the
lane chosen by its first-occurrence index in the workload, so repeats
land on the lane that already planned it and cached its modality
answers, and per-lane caches behave like the serial shared cache.
Each lane's queries run in workload order on one thread of its own, and
results come back in submission order.  Workers start with ``fork``
where available (Linux — instant, inherits the lake, the warm caches
and imported modules) and ``spawn`` elsewhere, which pickles them into
the worker.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Callable

from repro.core.batch import BatchReport, timed_batch
from repro.core.plan import ErrorEvent, PlanTrace, QueryResult
from repro.exec.procworker import serve_lane
from repro.obs import StageTrace, TraceContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session import Session


class BackendError(ValueError):
    """A batch names an execution backend that does not exist."""


#: Held while a worker process starts, until the parent has closed its
#: copy of the child's pipe end.  Lanes start workers from their callers'
#: threads; a fork inside another start's window would hand the second
#: child the first child's pipe end, and the first child's death would
#: then never reach the parent as end-of-file.
_FORK_LOCK = threading.Lock()


def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class LaneFailure(Exception):
    """A lane lost its query and replaced its runtime.

    *event* is the ``phase="worker"`` event to record (not yet
    recovered); *timed_out* tells a timeout from a lost worker.
    """

    def __init__(self, event: ErrorEvent, timed_out: bool):
        super().__init__(event.message)
        self.event = event
        self.timed_out = timed_out


def run_in_parent(session: "Session", query: str,
                  context: TraceContext | None,
                  event: ErrorEvent) -> QueryResult:
    """Re-run *query* in this process after a worker failure.

    The run gets a fresh engine — never the one :meth:`Session.query`
    or another lane may be using — and
    keeps the query's trace context, so one trace id covers the failed
    lane attempt and the re-run.  *event* is prepended to the trace as
    recovered; when the re-run crashes too, the result is an error
    carrying *event* and the parent's crash.
    """
    try:
        result = session.make_engine().query(query, context)
    except Exception as exc:  # noqa: BLE001 - the query is poisoned
        trace = PlanTrace(query=query,
                          trace_id=context.trace_id if context else None)
        trace.errors.append(event)
        trace.errors.append(ErrorEvent(
            "execution", None,
            f"in-parent fallback crashed: {type(exc).__name__}: {exc}"))
        return QueryResult(kind="error", trace=trace,
                           error=f"worker and in-parent fallback both "
                                 f"failed: {exc}")
    event.recovered = True
    if result.trace is not None:
        result.trace.errors.insert(0, event)
    return result


class Lane(ABC):
    """One worker lane of a session (see the module docstring).

    *failure_counter* names the session counter a failure the lane
    recovers from itself increments (a process lane's ``ok: false``
    reply); a :class:`LaneFailure` is counted by the caller.
    """

    def __init__(self, session: "Session", index: int,
                 failure_counter: str = "worker_failures_total"):
        self.session = session
        self.index = index
        self.failure_counter = failure_counter

    def start(self) -> None:
        """Start the lane's runtime if it is not running."""

    def run(self, query: str, context: TraceContext | None = None,
            timeout: float | None = None,
            on_span: Callable[[StageTrace], None] | None = None
            ) -> QueryResult:
        """Answer *query* under *context* within *timeout* seconds
        (``None`` = unbounded), passing each span to *on_span*.

        Raises :class:`LaneFailure` after a timeout or a lost worker,
        with the runtime already replaced.
        """
        try:
            outcome = self._call(query, context, on_span, timeout)
        except Exception as exc:  # noqa: BLE001 - the runtime is lost
            self._replace()
            timed_out = isinstance(exc, FutureTimeoutError)
            message = (f"worker query timed out after {timeout:g}s "
                       f"(lane {self.index}); lane replaced" if timed_out
                       else f"worker crashed (lane {self.index}): "
                            f"{type(exc).__name__}: {exc}")
            raise LaneFailure(
                ErrorEvent.worker_failure(message, worker_id=self.index),
                timed_out) from exc
        return self._finish(query, context, outcome, on_span)

    def close(self) -> None:
        """Release the lane's runtime."""

    @abstractmethod
    def _call(self, query, context, on_span, timeout):
        """Run *query* on the runtime and return its raw outcome; raises
        ``concurrent.futures.TimeoutError`` after *timeout* seconds."""

    @abstractmethod
    def _replace(self) -> None:
        """Discard the runtime after a failure; the next run gets a new one."""

    @abstractmethod
    def _finish(self, query, context, outcome, on_span) -> QueryResult:
        """The query's result from the runtime's *outcome*."""


class EngineLane(Lane):
    """An in-process engine lane (kind ``thread``)."""

    def __init__(self, session: "Session", index: int,
                 failure_counter: str = "worker_failures_total"):
        super().__init__(session, index, failure_counter)
        self._start()

    def _start(self) -> None:
        self._engine = self.session.make_engine()
        self._inner = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-lane-{self.index}")

    def _call(self, query, context, on_span, timeout):
        self._engine.span_listener = on_span
        return self._inner.submit(self._engine.query, query,
                                  context).result(timeout)

    def _replace(self) -> None:
        # The inner thread may still be running the stuck query: abandon
        # it (and its engine) rather than join it.
        self._inner.shutdown(wait=False)
        self._start()

    def _finish(self, query, context, result, on_span) -> QueryResult:
        self._engine.span_listener = None
        return result

    def close(self) -> None:
        self._inner.shutdown(wait=False)


class ProcessLane(Lane):
    """A worker-process lane (kind ``process``).

    *start_method* overrides the multiprocessing start method
    (:func:`default_start_method`).
    """

    def __init__(self, session: "Session", index: int,
                 failure_counter: str = "worker_failures_total",
                 start_method: str | None = None):
        super().__init__(session, index, failure_counter)
        self._start_method = start_method or default_start_method()
        # The worker process, the parent's end of its pipe, and the lake
        # version the worker was started over.
        self._process = None
        self._conn = None
        self._version = None

    def start(self) -> None:
        """Start the worker process if it is not running, seeded with the
        session's lake and caches as they are now (warm lanes keep
        theirs).  A worker started over an older lake version is closed
        first: no lane answers over a lake that changed since."""
        version = self.session.lake.version
        if self._process is not None:
            if version == self._version:
                return
            self.close()
        self._version = version
        context = multiprocessing.get_context(self._start_method)
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=serve_lane, args=(child, self._init_payload()),
            name=f"repro-lane-{self.index}", daemon=True)
        with _FORK_LOCK:
            self._process.start()
            child.close()

    def close(self) -> None:
        if self._process is not None:
            with contextlib.suppress(OSError):
                self._conn.send(None)  # ends the worker's loop
            self._process.join(timeout=5.0)
        self._replace()

    def _call(self, query, context, on_span, timeout):
        self.start()
        self._conn.send((query, context))
        ready = wait([self._conn, self._process.sentinel], timeout)
        if not ready:
            raise FutureTimeoutError()
        if self._conn in ready:
            with contextlib.suppress(EOFError):
                return self._conn.recv()
        raise ChildProcessError(
            f"worker process exited with code {self._process.exitcode}")

    def _replace(self) -> None:
        # SIGKILL: a stuck worker must die whatever it is running.
        process, self._process = self._process, None
        if process is not None:
            process.kill()
            process.join()
            self._conn.close()

    def _finish(self, query, context, reply, on_span) -> QueryResult:
        result = self._fold(query, context, reply)
        if on_span is not None:
            for span in result.telemetry.spans:
                on_span(span)
        return result

    def _fold(self, query: str, context: TraceContext | None,
              reply: dict) -> QueryResult:
        """Fold one worker reply into the session: the worker's metrics,
        the plans and answers it just learned, and — for an ``ok: false``
        reply — an in-parent re-run of the query."""
        session = self.session
        session.metrics_registry.merge(reply["metrics"])
        if not reply["ok"]:
            # The engine crashed inside the worker but the process
            # survived; re-run in the parent for a full trace.
            session.metrics_registry.increment(self.failure_counter)
            event = ErrorEvent.worker_failure(
                f"worker query crashed (lane {self.index}): "
                f"{reply['error']}", worker_id=self.index)
            return run_in_parent(session, query, context, event)
        # Puts do not touch hit/miss counters; each costs at most one
        # tier RPC, however many entries the worker put.
        session.plan_cache.put_many(reply["plans"])
        session.answer_cache.put_many(reply["answers"])
        return QueryResult.from_dict(reply["result"])

    def _init_payload(self) -> dict:
        """What a fresh worker needs: lake, brain / roles, warm caches.

        The caches ship whole as ``(key, value)`` pairs: a bound reply
        serves only a digest-identical prompt and answer keys are content
        fingerprints, so every entry is safe to take.  With a session
        *cache_url* they ship **empty** and the worker consults the
        shared tier lazily instead, so the payload does not scale with
        cache size.
        """
        session = self.session
        plans: list = []
        answers: list = []
        if session.cache_url is None:
            plans = session.plan_cache.items()
            answers = session.answer_cache.items()
        return {
            "cache_url": session.cache_url,
            "lake": session.lake,
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


#: lane kind name → lane class; ``repro serve --lane-backend`` choices.
LANE_KINDS: dict[str, type[Lane]] = {"thread": EngineLane,
                                     "process": ProcessLane}


def run_batch(session: "Session", workload: list[str], lanes: list[Lane],
              backend: str, timeout: float | None) -> BatchReport:
    """Drain *workload* over *lanes* (see the module docstring).

    *timeout* bounds each query's wall-clock seconds on its lane
    (``None`` = unbounded).  A query whose lane timed out or lost its
    worker re-runs in the parent (:func:`run_in_parent`) and counts in
    ``worker_failures_total``.
    """
    for lane in lanes:
        lane.start()
    # Deterministic affinity: a query's lane is fixed by the position of
    # its first occurrence in the workload.
    first_seen: dict[str, int] = {}
    assigned: list[list[int]] = [[] for _ in lanes]
    for index, query in enumerate(workload):
        position = first_seen.setdefault(query, len(first_seen))
        assigned[position % len(lanes)].append(index)
    results: list[QueryResult | None] = [None] * len(workload)

    def drain(lane: Lane, indices: list[int]) -> None:
        for index in indices:
            results[index] = _answer(session, lane, workload[index], timeout)

    def answer_all() -> list[QueryResult]:
        with ThreadPoolExecutor(max_workers=len(lanes)) as pool:
            list(pool.map(drain, lanes, assigned))
        return results

    return timed_batch(workload, answer_all, session.plan_cache,
                       session.answer_cache, len(lanes), backend)


def _answer(session: "Session", lane: Lane, query: str,
            timeout: float | None) -> QueryResult:
    # One distributed trace per query, minted here, shipped across a
    # process lane's pipe and kept by an in-parent re-run.
    context = TraceContext.new()
    try:
        return lane.run(query, context, timeout)
    except LaneFailure as failure:
        session.metrics_registry.increment("worker_failures_total")
        return run_in_parent(session, query, context, failure.event)

