"""The async HTTP layer of the query service (``repro serve``).

Stdlib-first on purpose: the server is a plain :func:`asyncio.start_server`
loop with a ~100-line HTTP/1.1 reader/writer instead of a web framework,
so the serving layer adds zero dependencies.  The handler layer is a thin
router over the thread-based :class:`~repro.serve.jobs.JobManager` — all
query execution happens on its worker threads; the event loop only
parses requests, polls thread-safe job state, and writes responses, so a
slow query can never stall another client's poll.

Endpoints::

    POST   /queries              submit → 202 {"id": ..., "status": "queued"}
    GET    /queries/{id}         poll; carries the answer once done
                                 (``?trace=1`` adds the full PlanTrace)
    DELETE /queries/{id}         cancel a still-queued job
    GET    /queries/{id}/events  NDJSON stream of lifecycle + span events
    GET    /healthz              liveness + queue occupancy
    GET    /metrics              session metrics snapshot (render_snapshot);
                                 ``?format=prometheus`` for text exposition
    GET    /traces               recent completed traces (``?min_duration_ms=``
                                 ``&status=``, ``&slow=1``, ``&limit=``)
    GET    /traces/{id}          one trace's full span tree

A ``POST /queries`` carrying a W3C-style ``traceparent`` header joins
the caller's distributed trace: the job runs under the same trace id
(with its own span ids) and the exported record links back to the
caller's span.  A malformed header is a 400, not a silently fresh
trace.

Admission control (queue depth, per-client concurrency keyed on the
API-token header) answers 429 with a ``Retry-After`` hint; a draining
server answers 503.  ``SIGTERM``/``SIGINT`` trigger a graceful drain:
stop admitting, let in-flight jobs finish (bounded by
``--drain-grace-s``), flush the plan/answer caches to their persistence
files, then exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import signal
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from urllib.parse import parse_qs

from repro.obs import (SlowQueryLog, TraceBuffer, TraceContext,
                       TraceContextError, TraceExporter, TracePipeline,
                       render_prometheus, render_snapshot)
from repro.serve.admission import AdmissionError
from repro.serve.jobs import LANE_BACKENDS, JobManager, encode_json
from repro.serve.schemas import error_body, parse_submit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session import Session

#: HTTP reason phrases for the statuses the service emits.
_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}

_JOB_PATH = re.compile(r"^/queries/(?P<id>[A-Za-z0-9_-]+)$")
_EVENTS_PATH = re.compile(r"^/queries/(?P<id>[A-Za-z0-9_-]+)/events$")
_TRACE_PATH = re.compile(r"^/traces/(?P<id>[0-9a-f]{1,32})$")

_MAX_BODY_BYTES = 1_000_000
_MAX_HEADER_LINES = 100

#: How often the event stream re-checks a job for fresh spans; spans
#: arrive from worker threads, so streaming latency is bounded by this.
EVENT_POLL_SECONDS = 0.02


@dataclass
class ServeConfig:
    """Tunables of one server instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (the bound port is on ``QueryServer.port``).
    port: int = 8080
    workers: int = 2
    queue_depth: int = 32
    per_client_limit: int = 8
    #: default + cap for per-job timeouts; ``None`` disables.
    job_timeout_s: float | None = 60.0
    retry_after_s: float = 1.0
    #: how long a drain waits for in-flight jobs before giving up.
    drain_grace_s: float | None = 30.0
    #: header carrying the client's API token (per-client limits key);
    #: absent header → the "anonymous" bucket.
    client_header: str = "x-api-token"
    #: cache persistence files flushed on graceful drain.
    plan_cache_file: str | None = None
    answer_cache_file: str | None = None
    #: shared cache tier the served session connects to
    #: (:mod:`repro.cachenet`); ``None`` = local caches only.
    cache_url: str | None = None
    #: JSONL spool every finished job's trace record is appended to;
    #: ``None`` keeps traces in memory only.
    trace_export_file: str | None = None
    #: capacity of the in-memory ring behind ``GET /traces``.
    trace_buffer: int = 256
    #: jobs at/above this wall-clock duration are flagged slow and land
    #: in the slow-query log; ``None`` disables the threshold.
    slow_query_ms: float | None = None
    #: where job queries execute: ``thread`` (in-process engines) or
    #: ``process`` (one worker-lane process per serve worker).
    lane_backend: str = "thread"


class _BadRequest(Exception):
    """Malformed HTTP from the client; connection is answered 400+closed."""


@dataclass
class _Request:
    method: str
    path: str
    headers: dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    """Parse one HTTP/1.1 request; None on a cleanly closed connection."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest("malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest("malformed header line")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _BadRequest("too many headers")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise _BadRequest("malformed Content-Length") from None
        if length > _MAX_BODY_BYTES:
            raise _BadRequest("request body too large")
        body = await reader.readexactly(length) if length else b""
    return _Request(method=method, path=path, headers=headers, body=body)


def _truthy(params: dict[str, list[str]], name: str) -> bool:
    """Whether query-string flag *name* is switched on."""
    return params.get(name, ["0"])[-1] in ("1", "true", "yes")


def _encode_response(status: int, payload: dict | bytes,
                     extra_headers: tuple[tuple[str, str], ...] = (),
                     keep_alive: bool = True) -> bytes:
    """One JSON response; *payload* may be an already encoded body (a
    finished job's frozen bytes), which is sent as is."""
    body = payload if isinstance(payload, bytes) else encode_json(payload)
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             "Content-Type: application/json",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class QueryServer:
    """One long-lived session behind an asyncio HTTP front."""

    def __init__(self, session: "Session", config: ServeConfig | None = None):
        self.session = session
        self.config = config or ServeConfig()
        self.traces = TracePipeline(
            buffer=TraceBuffer(self.config.trace_buffer),
            exporter=(TraceExporter(self.config.trace_export_file)
                      if self.config.trace_export_file else None),
            slow_log=(SlowQueryLog(self.config.slow_query_ms)
                      if self.config.slow_query_ms is not None else None),
            metrics=session.metrics_registry)
        self.jobs = JobManager(
            session, workers=self.config.workers,
            queue_depth=self.config.queue_depth,
            per_client_limit=self.config.per_client_limit,
            default_timeout_s=self.config.job_timeout_s,
            retry_after_s=self.config.retry_after_s,
            lane_backend=self.config.lane_backend,
            trace_pipeline=self.traces)
        self._server: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()
        self._drain_started = False
        self._drain_lock = threading.Lock()
        # The flush once-guard gets its own lock: _flush_caches runs on
        # executor threads while a racing drain_and_stop may be holding
        # _drain_lock across an await, and sharing one non-reentrant
        # lock between those two paths deadlocks the shutdown.
        self._flush_lock = threading.Lock()
        self._caches_flushed = False
        self._connections: set[asyncio.Task] = set()
        self.port: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    def install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum,
                lambda: asyncio.ensure_future(self.drain_and_stop()))

    async def drain_and_stop(self) -> bool:
        """Graceful shutdown: drain jobs, flush caches, stop accepting.

        Returns True when every accepted job resolved within the grace
        period.  Idempotent — signals and explicit calls may race.
        """
        with self._drain_lock:
            already_draining = self._drain_started
            self._drain_started = True
        if already_draining:
            # Await outside the with-block: holding the lock here would
            # block the event loop for any later claimant and starve the
            # first drain of the loop it needs to finish.
            await self._stopped.wait()
            return True
        loop = asyncio.get_running_loop()
        completed = await loop.run_in_executor(
            None, self.jobs.drain, self.config.drain_grace_s)
        await loop.run_in_executor(None, self._flush_caches)
        self.session.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections would outlive the loop otherwise.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        self._stopped.set()
        return completed

    def _flush_caches(self) -> None:
        """Persist the session caches exactly once per server lifetime.

        Every shutdown path converges here — the signal handlers (both
        SIGTERM and SIGINT may fire), an explicit
        :meth:`ServerHandle.drain`, and their races — so the flush
        itself carries the once-guard rather than trusting every caller,
        and entry counts are logged at flush time so an operator can see
        from the drain log exactly what survived to disk.
        """
        with self._flush_lock:
            if self._caches_flushed:
                return
            self._caches_flushed = True
        if self.config.plan_cache_file:
            count = self.session.save_plan_cache(self.config.plan_cache_file)
            print(f"flushed {count} plan-cache entries -> "
                  f"{self.config.plan_cache_file}", flush=True)
        if self.config.answer_cache_file:
            count = self.session.save_answer_cache(
                self.config.answer_cache_file)
            print(f"flushed {count} answer-cache entries -> "
                  f"{self.config.answer_cache_file}", flush=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except (_BadRequest, asyncio.IncompleteReadError):
                    writer.write(_encode_response(
                        400, error_body("bad_request", "malformed HTTP"),
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: _Request,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection."""
        self.session.metrics_registry.increment("serve_requests_total")
        keep = request.keep_alive
        path, _, query_string = request.path.partition("?")
        method = request.method

        if path == "/healthz" and method == "GET":
            writer.write(_encode_response(200, self._healthz(), keep_alive=keep))
            return keep
        if path == "/metrics" and method == "GET":
            return self._respond_metrics(writer, keep, query_string)
        if path == "/queries" and method == "POST":
            return self._respond_submit(request, writer, keep)
        if path == "/traces" and method == "GET":
            return self._respond_traces(writer, keep, query_string)
        match = _TRACE_PATH.match(path)
        if match and method == "GET":
            return self._respond_trace(match.group("id"), writer, keep)
        match = _JOB_PATH.match(path)
        if match:
            if method == "GET":
                return self._respond_job(match.group("id"), writer, keep,
                                         query_string)
            if method == "DELETE":
                return self._respond_cancel(match.group("id"), writer, keep)
            writer.write(_encode_response(
                405, error_body("method_not_allowed", f"{method} {path}"),
                keep_alive=keep))
            return keep
        match = _EVENTS_PATH.match(path)
        if match and method == "GET":
            await self._stream_events(match.group("id"), writer)
            return False  # close-delimited stream
        writer.write(_encode_response(
            404, error_body("not_found", f"no route for {method} {path}"),
            keep_alive=keep))
        return keep

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _healthz(self) -> dict:
        occupancy = self.jobs.admission.occupancy()
        status = "draining" if occupancy["draining"] else "ok"
        return {"status": status, "workers": self.config.workers,
                "lake": self.session.lake.name, **occupancy}

    def _respond_metrics(self, writer: asyncio.StreamWriter, keep: bool,
                         query_string: str = "") -> bool:
        # observability_snapshot = session metrics + the cache tier's own
        # STATS (when connected), so tier hit ratios ride the same body.
        snapshot = self.session.observability_snapshot()
        wanted = parse_qs(query_string).get("format", ["json"])[-1]
        if wanted == "prometheus":
            body = render_prometheus(snapshot).encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif wanted == "json":
            body = render_snapshot(snapshot).encode("utf-8")
            content_type = "application/json"
        else:
            writer.write(_encode_response(
                400, error_body("bad_request",
                                f"unknown metrics format {wanted!r} "
                                f"(expected 'json' or 'prometheus')"),
                keep_alive=keep))
            return keep
        head = (f"HTTP/1.1 200 OK\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep else 'close'}\r\n"
                f"\r\n").encode("latin-1")
        writer.write(head + body)
        return keep

    def _respond_traces(self, writer: asyncio.StreamWriter, keep: bool,
                        query_string: str = "") -> bool:
        params = parse_qs(query_string)
        try:
            limit = int(params.get("limit", ["50"])[-1])
            min_duration_ms = float(
                params.get("min_duration_ms", ["0"])[-1])
        except ValueError:
            writer.write(_encode_response(
                400, error_body("bad_request",
                                "'limit' and 'min_duration_ms' must be "
                                "numbers"), keep_alive=keep))
            return keep
        status = params.get("status", [None])[-1]
        slow_only = _truthy(params, "slow")
        traces = self.traces.buffer.recent(
            limit=max(1, min(limit, 500)),
            min_duration_ms=min_duration_ms,
            status=status, slow_only=slow_only)
        writer.write(_encode_response(
            200, {"traces": traces, "count": len(traces)},
            keep_alive=keep))
        return keep

    def _respond_trace(self, trace_id: str, writer: asyncio.StreamWriter,
                       keep: bool) -> bool:
        record = self.traces.buffer.get(trace_id)
        if record is None:
            writer.write(_encode_response(
                404, error_body("not_found", f"no trace {trace_id!r} in "
                                f"the recent-trace buffer"),
                keep_alive=keep))
            return keep
        writer.write(_encode_response(200, record, keep_alive=keep))
        return keep

    def _client_of(self, request: _Request) -> str:
        return request.headers.get(self.config.client_header, "anonymous")

    def _respond_submit(self, request: _Request,
                        writer: asyncio.StreamWriter, keep: bool) -> bool:
        try:
            payload = json.loads(request.body.decode("utf-8") or "null")
            submit = parse_submit(payload)
        except (ValueError, UnicodeDecodeError) as exc:
            writer.write(_encode_response(
                400, error_body("bad_request", str(exc)), keep_alive=keep))
            return keep
        trace_context = None
        header = request.headers.get("traceparent")
        if header is not None:
            try:
                trace_context = TraceContext.parse_traceparent(header)
            except TraceContextError as exc:
                writer.write(_encode_response(
                    400, error_body("bad_traceparent", str(exc)),
                    keep_alive=keep))
                return keep
        try:
            job = self.jobs.submit(submit.query, self._client_of(request),
                                   timeout_s=submit.timeout_s,
                                   trace_context=trace_context)
        except AdmissionError as exc:
            headers = ()
            if exc.retry_after_s is not None:
                headers = (("Retry-After",
                            f"{max(1, round(exc.retry_after_s))}"),)
            writer.write(_encode_response(
                exc.status,
                error_body(exc.reason, exc.detail,
                           retry_after_s=exc.retry_after_s),
                extra_headers=headers, keep_alive=keep))
            return keep
        writer.write(_encode_response(202, job.to_dict(), keep_alive=keep))
        return keep

    def _respond_job(self, job_id: str, writer: asyncio.StreamWriter,
                     keep: bool, query_string: str = "") -> bool:
        job = self.jobs.get(job_id)
        if job is None:
            writer.write(_encode_response(
                404, error_body("not_found", f"no job {job_id!r}"),
                keep_alive=keep))
            return keep
        want_trace = _truthy(parse_qs(query_string), "trace")
        writer.write(_encode_response(200, job.encoded(trace=want_trace),
                                      keep_alive=keep))
        return keep

    def _respond_cancel(self, job_id: str, writer: asyncio.StreamWriter,
                        keep: bool) -> bool:
        outcome = self.jobs.cancel(job_id)
        if outcome == "missing":
            writer.write(_encode_response(
                404, error_body("not_found", f"no job {job_id!r}"),
                keep_alive=keep))
        elif outcome == "cancelled":
            writer.write(_encode_response(
                200, {"id": job_id, "status": "cancelled"}, keep_alive=keep))
        else:
            writer.write(_encode_response(
                409, error_body("not_cancellable",
                                f"job {job_id} is already {outcome}"),
                keep_alive=keep))
        return keep

    async def _stream_events(self, job_id: str,
                             writer: asyncio.StreamWriter) -> None:
        """NDJSON event stream; body is close-delimited (Connection: close).

        Replays the job's full event log from the start, then follows it
        until the terminal ``done`` event — so a client attaching late
        still sees every span.
        """
        job = self.jobs.get(job_id)
        if job is None:
            writer.write(_encode_response(
                404, error_body("not_found", f"no job {job_id!r}"),
                keep_alive=False))
            return
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        cursor = 0
        while True:
            events, finished = job.events_since(cursor)
            writer.writelines(events)
            cursor += len(events)
            await writer.drain()
            if finished and not events:
                return
            if not finished:
                await asyncio.sleep(EVENT_POLL_SECONDS)


class ServerHandle:
    """A server running on a dedicated thread + event loop.

    The loop-in-a-thread shape lets synchronous callers (the load-test
    harness, the test suite) boot a real server, talk to it over real
    sockets, and drain it — without themselves being async.
    """

    def __init__(self, session: "Session", config: ServeConfig | None = None):
        self._session = session
        self._config = config or ServeConfig(port=0)
        self.server: QueryServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self.server = QueryServer(self._session, self._config)
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surface to starter
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        self._loop.run_until_complete(self.server.wait_stopped())
        self._loop.close()

    def start(self) -> "ServerHandle":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") \
                from self._startup_error
        if self.server is None or self.server.port is None:
            raise RuntimeError("server did not come up within 30s")
        return self

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self._config.host}:{self.port}"

    def drain(self, timeout: float | None = None) -> bool:
        """Gracefully drain and stop from any thread; True if clean."""
        assert self._loop is not None and self.server is not None
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain_and_stop(), self._loop)
        completed = future.result(timeout)
        self._thread.join(timeout=10)
        return completed


# ----------------------------------------------------------------------
# CLI (``repro serve``)
# ----------------------------------------------------------------------

def build_arg_parser() -> argparse.ArgumentParser:
    from repro.cliargs import positive_float, positive_int
    from repro.datasets import DATASET_NAMES
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a long-lived query session over async HTTP "
                    "(submit/poll/stream, admission control, graceful "
                    "drain on SIGTERM).")
    parser.add_argument("--dataset", required=True, choices=DATASET_NAMES,
                        help="which synthetic dataset to load")
    parser.add_argument("--seed", type=int, default=None,
                        help="dataset generation seed")
    parser.add_argument("--scale", type=positive_float, default=1.0,
                        help="lake scale factor (default: 1.0)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080,
                        help="bind port; 0 picks an ephemeral port "
                             "(default: 8080)")
    parser.add_argument("--workers", type=positive_int, default=2,
                        help="query worker lanes (default: 2)")
    parser.add_argument("--queue-depth", type=positive_int, default=32,
                        help="max waiting jobs before submits get 429 "
                             "(default: 32)")
    parser.add_argument("--per-client-limit", type=positive_int, default=8,
                        help="max in-flight jobs per API token "
                             "(default: 8)")
    parser.add_argument("--job-timeout-s", type=positive_float, default=60.0,
                        help="per-job timeout ceiling in seconds "
                             "(default: 60)")
    parser.add_argument("--drain-grace-s", type=positive_float, default=30.0,
                        help="seconds a SIGTERM drain waits for in-flight "
                             "jobs (default: 30)")
    parser.add_argument("--llm-latency-ms", type=positive_float, default=None,
                        help="simulate remote-planner latency per model "
                             "call (default: the instant simulated brain)")
    parser.add_argument("--plan-cache-file", metavar="PATH", default=None,
                        help="plan-cache JSON loaded at boot (if present) "
                             "and flushed on graceful drain")
    parser.add_argument("--answer-cache-file", metavar="PATH", default=None,
                        help="answer-cache JSON loaded at boot (if "
                             "present) and flushed on graceful drain")
    parser.add_argument("--cache-url", metavar="URL", default=None,
                        help="shared cache tier to warm from and feed "
                             "(tcp://host:port or unix:///path.sock, see "
                             "'repro cache-server'); a down tier degrades "
                             "to local caches")
    parser.add_argument("--lane-backend", choices=LANE_BACKENDS,
                        default="thread",
                        help="where jobs execute: in-process engines "
                             "('thread', default) or dedicated worker-"
                             "lane processes ('process')")
    parser.add_argument("--trace-export-file", metavar="PATH", default=None,
                        help="JSONL spool appended with one trace record "
                             "per finished job (read by 'repro trace')")
    parser.add_argument("--trace-buffer", type=positive_int, default=256,
                        help="recent traces kept in memory for GET "
                             "/traces (default: 256)")
    parser.add_argument("--slow-query-ms", type=positive_float, default=None,
                        help="flag jobs at/above this duration as slow "
                             "(default: slow-query log disabled)")
    return parser


def build_session(args: argparse.Namespace) -> "Session":
    """A served session from CLI args (shared with the load tester)."""
    from pathlib import Path

    from repro.datasets import load_lake
    from repro.llm.brain import SimulatedBrain
    from repro.session import Session
    lake = load_lake(args.dataset, seed=args.seed, scale=args.scale)
    latency_ms = getattr(args, "llm_latency_ms", None)
    brain = (SimulatedBrain(latency_seconds=latency_ms / 1000.0)
             if latency_ms else None)
    session = Session(lake, brain=brain,
                      cache_url=getattr(args, "cache_url", None))
    plan_file = getattr(args, "plan_cache_file", None)
    if plan_file and Path(plan_file).exists():
        session.load_plan_cache(plan_file)
    answer_file = getattr(args, "answer_cache_file", None)
    if answer_file and Path(answer_file).exists():
        session.load_answer_cache(answer_file)
    return session


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth,
        per_client_limit=args.per_client_limit,
        job_timeout_s=args.job_timeout_s,
        drain_grace_s=args.drain_grace_s,
        plan_cache_file=args.plan_cache_file,
        answer_cache_file=args.answer_cache_file,
        cache_url=args.cache_url,
        lane_backend=args.lane_backend,
        trace_export_file=args.trace_export_file,
        trace_buffer=args.trace_buffer,
        slow_query_ms=args.slow_query_ms)
    session = build_session(args)

    async def _serve() -> bool:
        server = QueryServer(session, config)
        await server.start()
        server.install_signal_handlers(asyncio.get_running_loop())
        print(f"serving {args.dataset} lake (scale {args.scale:g}) on "
              f"http://{config.host}:{server.port} "
              f"[workers={config.workers} queue_depth={config.queue_depth} "
              f"per_client={config.per_client_limit}]", flush=True)
        await server.wait_stopped()
        print("drained; all accepted jobs resolved, caches flushed",
              flush=True)
        return True

    asyncio.run(_serve())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
