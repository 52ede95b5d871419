"""The background job queue behind the query service.

A :class:`JobManager` turns one long-lived
:class:`~repro.session.Session` into a concurrent query executor: submits
go through the :class:`~repro.serve.admission.AdmissionController` into a
FIFO queue, a fixed pool of worker threads drains it — each worker
driving one :class:`~repro.exec.lanes.Lane` (``thread``: an in-process
engine; ``process``: a worker process, so served queries break the GIL
wall too) — and every job exposes its lifecycle as a poll-able status
plus an append-only event log (one entry per
:class:`~repro.obs.StageTrace` span as execution progresses, which the
``GET /queries/{id}/events`` endpoint streams as NDJSON).

A finished job is *frozen*: its poll bodies are encoded once, when the
worker resolves it, and every later poll is served from those bytes; the
live :class:`~repro.core.plan.QueryResult` graph is released.  Its
event log is joined and deflated into one ``bytes`` too, and its
done-event is swapped for one shared, already-set event.  A job a client
may still poll thus costs its encoded answer, its deflated trace and its
deflated event lines — not a tree of Python objects re-serialised per
poll.

Failure semantics are the lanes' (:mod:`repro.exec.lanes`): a per-job
timeout or a lost worker replaces the lane's engine or process, and the
job resolves with the lane's ``phase="worker"``
:class:`~repro.core.plan.ErrorEvent` in the polled result, so a hung
modality model can never wedge a worker.  A process lane re-runs a
worker-side engine crash in the parent, so that job still answers.

Everything here is plain threads — no asyncio — so the manager is usable
(and tested) without an HTTP server in front of it; the async app layer
only ever touches thread-safe state.
"""

from __future__ import annotations

import itertools
import json
import queue
import secrets
import threading
import time
import zlib
from typing import TYPE_CHECKING

from repro.core.plan import PlanTrace, QueryResult
from repro.exec import LANE_KINDS, LaneFailure
from repro.obs import StageTrace, TraceContext, build_trace_record
from repro.serve.admission import AdmissionController, AdmissionError
from repro.serve.schemas import job_links

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session import Session

__all__ = ["Job", "JobManager", "AdmissionError"]

#: Job lifecycle states.  ``done`` covers success *and* error results
#: (the result's ``kind`` tells them apart); ``cancelled`` jobs never
#: reached a worker.
JOB_STATUSES = ("queued", "running", "done", "cancelled")

_STOP = object()

#: The done-event of every resolved job: set once, shared, so a finished
#: job does not keep an :class:`threading.Event` of its own.
_RESOLVED = threading.Event()
_RESOLVED.set()


def encode_json(payload: object) -> bytes:
    """One JSON document as a newline-terminated line — the encoding of
    every job response body and every event-log entry."""
    return (json.dumps(payload) + "\n").encode("utf-8")


class Job:
    """One submitted query and everything that happened to it."""

    def __init__(self, job_id: str, query: str, client: str,
                 timeout_s: float | None,
                 context: TraceContext | None = None,
                 remote_parent: str | None = None):
        self.id = job_id
        self.query = query
        self.client = client
        self.timeout_s = timeout_s
        #: this job's :class:`~repro.obs.TraceContext` — minted fresh on
        #: submit, or derived (same trace id, new span id) from a
        #: client-supplied ``traceparent`` header.
        self.context = context or TraceContext.new()
        #: the client's own span id when the trace came in over HTTP,
        #: recorded in the exported trace so the caller's tracing system
        #: can stitch the trees together.
        self.remote_parent = remote_parent
        self.status = "queued"
        self.worker_id: int | None = None
        self.submitted = time.perf_counter()
        self.queue_wait_s: float | None = None
        self.run_s: float | None = None
        self._lock = threading.Lock()
        #: the event log, one encoded NDJSON line per event; deflated
        #: into one ``bytes`` of the joined lines once the job resolves.
        self._events: list[bytes] | bytes = []
        self._finished = threading.Event()
        #: frozen at :meth:`finish`: the poll body (answer, no trace) as
        #: encoded JSON, and the result's ``PlanTrace`` payload as
        #: deflated JSON — the trace is most of a result's bytes and is
        #: read only by ``?trace=1``.
        self._body: bytes | None = None
        self._trace: bytes | None = None
        self.emit({"event": "queued", "job_id": self.id,
                   "query": self.query,
                   "trace_id": self.context.trace_id})

    # ------------------------------------------------------------------
    # Event log (consumed by the streaming endpoint)
    # ------------------------------------------------------------------

    def emit(self, event: dict) -> None:
        line = encode_json(event)
        with self._lock:
            if self._finished.is_set():
                # A span from an abandoned (timed-out) engine arriving
                # after resolution would confuse stream consumers.
                return
            self._events.append(line)  # type: ignore[union-attr]

    def emit_span(self, span: StageTrace) -> None:
        self.emit({"event": "span", "span": span.to_dict()})

    def events_since(self, index: int) -> tuple[list[bytes], bool]:
        """Event lines (encoded NDJSON) appended at or after *index*,
        plus the finished flag.  A resolved job's lines are inflated
        from its packed log."""
        with self._lock:
            events = self._events
            if not isinstance(events, bytes):
                return events[index:], self._finished.is_set()
        return zlib.decompress(events).splitlines(True)[index:], True

    # ------------------------------------------------------------------
    # Lifecycle transitions (job-manager internal)
    # ------------------------------------------------------------------

    def take_for_run(self, worker_id: int) -> bool:
        """Atomically move queued → running; False if already cancelled."""
        with self._lock:
            if self.status != "queued":
                return False
            self.status = "running"
            self.worker_id = worker_id
            self.queue_wait_s = time.perf_counter() - self.submitted
        self.emit({"event": "started", "worker_id": worker_id,
                   "queue_wait_ms": round(self.queue_wait_s * 1000, 3)})
        return True

    def finish(self, result: QueryResult) -> None:
        """Resolve the job and freeze it: the response bodies are encoded
        here, once, and *result* itself is not kept."""
        self.emit({"event": "done", "status": "done",
                   "kind": result.kind, "ok": result.ok})
        run_s = None
        if self.queue_wait_s is not None:
            run_s = (time.perf_counter() - self.submitted
                     - self.queue_wait_s)
        # Encoded outside the lock (a running job has one writer, this
        # worker), so a large table never stalls a concurrent poll.
        answer = result.to_dict()
        trace = zlib.compress(encode_json(answer["trace"]), 1)
        answer["trace"] = None
        payload = self._header()
        payload["status"] = "done"
        if run_s is not None:
            payload["run_ms"] = round(run_s * 1000, 3)
        payload["ok"] = result.ok
        payload["result"] = answer
        body = encode_json(payload)
        with self._lock:
            self.status = "done"
            self.run_s = run_s
            self._body = body
            self._trace = trace
            self._resolve()

    def cancel(self) -> bool:
        """Queued → cancelled; False if the job already left the queue."""
        with self._lock:
            if self.status != "queued":
                return False
            self.status = "cancelled"
        self.emit({"event": "done", "status": "cancelled"})
        with self._lock:
            self._resolve()
        return True

    def _resolve(self) -> None:
        """Pack the event log, wake the waiters and drop this job's own
        done-event (the caller holds the lock): later emits are dropped,
        later waits return at once."""
        self._events = zlib.compress(
            b"".join(self._events), 1)  # type: ignore[arg-type]
        self._finished.set()
        self._finished = _RESOLVED

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._finished.wait(timeout)

    @property
    def result(self) -> QueryResult | None:
        """The finished job's result (trace included), decoded from the
        frozen bodies on each access; ``None`` until the job is done."""
        if self._body is None:
            return None
        return QueryResult.from_dict(self.to_dict(trace=True)["result"])

    def _header(self) -> dict:
        """The status fields of the poll payload."""
        payload = {
            "id": self.id,
            "status": self.status,
            "query": self.query,
            "client": self.client,
            "trace_id": self.context.trace_id,
            "links": job_links(self.id, trace_id=self.context.trace_id),
        }
        if self.queue_wait_s is not None:
            payload["queue_wait_ms"] = round(self.queue_wait_s * 1000, 3)
        return payload

    def to_dict(self, trace: bool = False) -> dict:
        """The ``GET /queries/{id}`` payload.

        Once done it carries ``ok`` and ``result`` — the answer
        (``QueryResult.to_dict()`` with ``trace: null``); *trace* fills
        ``result.trace`` with the full ``PlanTrace`` payload
        (``?trace=1``).
        """
        with self._lock:
            if self._body is None:
                return self._header()
        payload = json.loads(self._body)
        if trace:
            payload["result"]["trace"] = json.loads(
                zlib.decompress(self._trace))
        return payload

    def encoded(self, trace: bool = False) -> bytes:
        """:meth:`to_dict` as an encoded response body — for a finished
        job without *trace*, the frozen bytes themselves."""
        body = self._body
        if body is not None and not trace:
            return body
        return encode_json(self.to_dict(trace))


class JobManager:
    """Bounded job queue + worker pool over one session."""

    def __init__(self, session: "Session", workers: int = 2,
                 queue_depth: int = 32, per_client_limit: int = 8,
                 default_timeout_s: float | None = 60.0,
                 retry_after_s: float = 1.0,
                 max_jobs_kept: int = 4096,
                 lane_backend: str = "thread",
                 trace_pipeline=None):
        if workers <= 0:
            raise ValueError(f"workers must be positive: {workers}")
        if lane_backend not in LANE_KINDS:
            raise ValueError(f"lane_backend must be one of "
                             f"{tuple(LANE_KINDS)}, got {lane_backend!r}")
        self.session = session
        self.workers = workers
        self.default_timeout_s = default_timeout_s
        self.lane_backend = lane_backend
        #: optional :class:`~repro.obs.TracePipeline`; every finished job
        #: is assembled into a trace record and fanned to its sinks.
        self.trace_pipeline = trace_pipeline
        self._lanes = [
            LANE_KINDS[lane_backend](
                session, index, failure_counter="serve_worker_failures_total")
            for index in range(workers)]
        self.metrics = session.metrics_registry
        self.admission = AdmissionController(
            queue_depth=queue_depth, per_client_limit=per_client_limit,
            retry_after_s=retry_after_s, metrics=self.metrics)
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._max_jobs_kept = max_jobs_kept
        self._counter = itertools.count(1)
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker, args=(index,),
                             name=f"repro-serve-worker-{index}", daemon=True)
            for index in range(workers)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Public surface (what the HTTP layer calls)
    # ------------------------------------------------------------------

    def submit(self, query: str, client: str,
               timeout_s: float | None = None,
               trace_context: TraceContext | None = None) -> Job:
        """Admit and enqueue one query; raises AdmissionError when full.

        The effective timeout is the requested one capped by the server
        default, so a client can tighten but never loosen the budget.

        *trace_context* is the caller's context from a ``traceparent``
        header: the job joins that trace (same trace id, its own fresh
        span id, the caller's span recorded as the remote parent);
        ``None`` mints a new trace.
        """
        self.admission.admit(client)
        effective = self.default_timeout_s
        if timeout_s is not None:
            effective = (min(timeout_s, effective)
                         if effective is not None else timeout_s)
        if trace_context is not None:
            context = trace_context.child()
            remote_parent = trace_context.span_id
        else:
            context = TraceContext.new()
            remote_parent = None
        job = Job(self._next_id(), query, client, effective,
                  context=context, remote_parent=remote_parent)
        with self._jobs_lock:
            self._jobs[job.id] = job
            self._evict_finished()
        self.metrics.increment("serve_jobs_submitted_total")
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> Job | None:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> str:
        """Cancel a queued job; returns the outcome for status mapping.

        ``"cancelled"`` on success, ``"running"``/``"finished"`` when the
        job already left the queue (HTTP 409), ``"missing"`` for an
        unknown id (404).
        """
        job = self.get(job_id)
        if job is None:
            return "missing"
        if job.cancel():
            self.admission.release_queued(job.client)
            self.metrics.increment("serve_jobs_cancelled_total")
            return "cancelled"
        return "finished" if job.finished else "running"

    def drain(self, grace_s: float | None = None) -> bool:
        """Stop admitting, wait for in-flight jobs, stop the workers.

        Returns True when every accepted job resolved within *grace_s*
        (``None`` waits indefinitely).  Idempotent: later calls just
        re-wait.
        """
        self.admission.start_draining()
        deadline = (None if grace_s is None
                    else time.perf_counter() + grace_s)
        completed = True
        for job in self.jobs():
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.perf_counter())
            if not job.wait(remaining):
                completed = False
        self.close()
        return completed

    def close(self) -> None:
        """Stop the worker threads (queued jobs are NOT waited for)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=5.0)

    def jobs(self) -> list[Job]:
        with self._jobs_lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _next_id(self) -> str:
        return f"q{next(self._counter):06d}-{secrets.token_hex(3)}"

    def _evict_finished(self) -> None:
        # Bound the job map: oldest finished jobs go first (an unfinished
        # job is never evicted, so accepted work is never dropped).
        while len(self._jobs) > self._max_jobs_kept:
            for job_id, job in self._jobs.items():
                if job.finished:
                    del self._jobs[job_id]
                    break
            else:
                return

    def _take(self, index: int) -> Job | None:
        """The next job for lane *index*, moved to ``running``; ``None``
        when the lane should stop."""
        while True:
            item = self._queue.get()
            if item is _STOP:
                return None
            job: Job = item
            if job.take_for_run(index):
                self.admission.mark_started()
                self.metrics.observe("serve_queue_wait", job.queue_wait_s)
                return job
            # cancelled while queued; admission already released

    def _worker(self, index: int) -> None:
        lane = self._lanes[index]
        while (job := self._take(index)) is not None:
            try:
                result = lane.run(job.query, job.context, job.timeout_s,
                                  job.emit_span)
            except LaneFailure as failure:
                result = self._worker_error(job, failure)
            self._finish(job, index, result)
        lane.close()

    def _finish(self, job: Job, index: int, result: QueryResult) -> None:
        duration_s = time.perf_counter() - job.submitted
        # Record before resolving: a poll that sees the job done must
        # also find its trace in the ring and the export spool.
        self._record_trace(job, index, result, duration_s)
        job.finish(result)
        self.admission.release_running(job.client)
        self.metrics.increment("serve_jobs_completed_total")
        self.metrics.observe("serve_job_latency", duration_s)

    def _record_trace(self, job: Job, index: int, result: QueryResult,
                      duration_s: float) -> None:
        """Assemble and record the finished job's exportable trace."""
        pipeline = self.trace_pipeline
        if pipeline is None:
            return
        extra_spans = []
        if job.queue_wait_s is not None:
            extra_spans.append({
                "name": "queue.wait",
                "duration_ms": round(job.queue_wait_s * 1000.0, 3)})
        attributes = {"job_id": job.id, "client": job.client,
                      "worker_id": index, "kind": result.kind,
                      "lane_backend": self.lane_backend}
        try:
            pipeline.record(build_trace_record(
                job.context, job.query, result.telemetry,
                status="ok" if result.ok else "error",
                duration_ms=duration_s * 1000.0,
                root_name="serve.request",
                parent_span_id=job.remote_parent,
                attributes=attributes,
                extra_spans=extra_spans))
        except Exception:  # noqa: BLE001 - tracing must never fail a job
            self.metrics.increment("trace_record_errors_total")

    def _worker_error(self, job: Job, failure: LaneFailure) -> QueryResult:
        """Resolve a job whose lane timed out or lost its worker."""
        self.metrics.increment("serve_job_timeouts_total" if failure.timed_out
                               else "serve_worker_failures_total")
        trace = PlanTrace(query=job.query, trace_id=job.context.trace_id)
        trace.errors.append(failure.event)
        return QueryResult(kind="error", error=f"job {job.id}: {failure}",
                           trace=trace)
