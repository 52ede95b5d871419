"""Trace export: completed span trees, kept in a ring and spooled to disk.

One *trace record* is the OTLP-ish JSON object assembled by
:func:`build_trace_record` when a query finishes: the root span (the
serve request, or the bare query for direct sessions), every engine
:class:`~repro.obs.trace.StageTrace` as a child span with its token/cost
figures, the telemetry counters, and whatever boundary attributes the
caller supplies (job id, client, queue wait).  Child span ids are
*derived* (sha256 of ``trace_id/seq``) rather than random so the same
telemetry always renders the same tree — useful for tests and for
diffing exports.

Two sinks share one :class:`TracePipeline` entry point, which also
flags a record ``slow`` against an optional threshold:

- :class:`TraceBuffer` — bounded in-memory ring of recent records,
  queryable by id and filterable by duration/status (the ``/traces``
  endpoints read it);
- :class:`TraceExporter` — JSONL spool with single-``write`` appends
  (one record is one line, written in one append-mode ``write`` call so
  concurrent writers never interleave) and size-based rotation to a
  ``.1`` sibling.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict

from repro.obs.context import TraceContext
from repro.obs.trace import QueryTelemetry, span_tree_lines

__all__ = [
    "TraceBuffer",
    "TraceExporter",
    "TracePipeline",
    "build_trace_record",
    "child_span_id",
    "render_trace_record",
    "summarize_trace_record",
]


def child_span_id(trace_id: str, seq: int) -> str:
    """Deterministic 16-hex child span id: position *seq* in *trace_id*."""
    digest = hashlib.sha256(f"{trace_id}/{seq}".encode("utf-8"))
    return digest.hexdigest()[:16]


def build_trace_record(context: TraceContext, query: str,
                       telemetry: QueryTelemetry | None, *,
                       status: str, duration_ms: float,
                       root_name: str = "query",
                       parent_span_id: str | None = None,
                       attributes: dict | None = None,
                       extra_spans: list[dict] | None = None) -> dict:
    """Assemble one exportable trace record from a finished query.

    *context* is the query's own context (its ``span_id`` becomes the
    root span); *parent_span_id* links to a remote caller's span when the
    query arrived with a ``traceparent`` header.  *extra_spans* are
    boundary spans the caller measured itself (queue wait, request
    handling) and are placed directly under the root, before the engine
    stages.
    """
    telemetry = telemetry or QueryTelemetry()
    root = {"span_id": context.span_id, "parent_span_id": parent_span_id,
            "name": root_name, "duration_ms": round(duration_ms, 3),
            "step_index": None,
            "token_in": telemetry.token_in,
            "token_out": telemetry.token_out,
            "cost_usd": telemetry.cost_usd, "notes": {}}
    spans = [root]
    seq = 0
    for extra in extra_spans or []:
        span = dict(extra)
        span.setdefault("span_id", child_span_id(context.trace_id, seq))
        span.setdefault("parent_span_id", context.span_id)
        span.setdefault("step_index", None)
        span.setdefault("token_in", 0)
        span.setdefault("token_out", 0)
        span.setdefault("cost_usd", 0.0)
        span.setdefault("notes", {})
        spans.append(span)
        seq += 1
    for stage in telemetry.spans:
        spans.append({"span_id": child_span_id(context.trace_id, seq),
                      "parent_span_id": context.span_id,
                      "name": stage.stage,
                      "duration_ms": round(stage.duration_ms, 3),
                      "step_index": stage.step_index,
                      "token_in": stage.token_in,
                      "token_out": stage.token_out,
                      "cost_usd": stage.cost_usd,
                      "notes": dict(stage.notes)})
        seq += 1
    return {"trace_id": context.trace_id,
            "root_span_id": context.span_id,
            "query": query, "status": status,
            "duration_ms": round(duration_ms, 3),
            "token_in": telemetry.token_in,
            "token_out": telemetry.token_out,
            "cost_usd": telemetry.cost_usd,
            "counters": dict(telemetry.counters),
            "attributes": dict(attributes or {}),
            "spans": spans}


def summarize_trace_record(record: dict) -> dict:
    """The one-line form ``GET /traces`` (and ``repro trace tail``) lists."""
    return {"trace_id": record.get("trace_id"),
            "query": record.get("query"),
            "status": record.get("status"),
            "duration_ms": record.get("duration_ms"),
            "cost_usd": record.get("cost_usd"),
            "spans": len(record.get("spans", [])),
            "slow": bool(record.get("slow")),
            "attributes": dict(record.get("attributes", {}))}


def render_trace_record(record: dict) -> str:
    """Human-readable span tree of one exported record (``repro trace
    show``); children indent under the root, step-scoped spans group
    under their logical step like
    :meth:`~repro.obs.trace.QueryTelemetry.render_tree`.
    """
    lines = [f"trace {record.get('trace_id')}  "
             f"status={record.get('status')}  "
             f"{record.get('duration_ms', 0.0):.2f}ms  "
             f"${record.get('cost_usd', 0.0):.6f}",
             f"query: {record.get('query')!r}"]
    attributes = record.get("attributes") or {}
    if attributes:
        keys = ", ".join(f"{k}={v}" for k, v in sorted(attributes.items()))
        lines.append(f"attributes: {keys}")
    lines += span_tree_lines(record.get("spans", []),
                             record.get("counters") or {},
                             record.get("root_span_id"))
    return "\n".join(lines)


class TraceBuffer:
    """Bounded ring of recent trace records, indexed by trace id.

    Thread-safe; the serve worker threads add while the asyncio loop
    reads.  A re-recorded trace id (never expected in practice) replaces
    the earlier record rather than duplicating it.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("TraceBuffer capacity must be >= 1")
        self.capacity = capacity
        self._records: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()

    def add(self, record: dict) -> None:
        trace_id = record.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            self._records.pop(trace_id, None)
            self._records[trace_id] = record
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)

    def get(self, trace_id: str) -> dict | None:
        with self._lock:
            return self._records.get(trace_id)

    def recent(self, limit: int = 50, min_duration_ms: float = 0.0,
               status: str | None = None,
               slow_only: bool = False) -> list[dict]:
        """Newest-first summaries matching the filters."""
        with self._lock:
            records = list(self._records.values())
        out = []
        for record in reversed(records):
            if record.get("duration_ms", 0.0) < min_duration_ms:
                continue
            if status is not None and record.get("status") != status:
                continue
            if slow_only and not record.get("slow"):
                continue
            out.append(summarize_trace_record(record))
            if len(out) >= limit:
                break
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class TraceExporter:
    """JSONL spool: one record per line, size-rotated.

    Appends are single ``write`` calls on an append-mode handle, so
    lines from concurrent exporters (serve workers, a second process)
    never interleave on POSIX.  When the file would exceed *max_bytes*
    it is rotated to ``<path>.1`` (one generation kept) before the
    write, so the live file always starts at a record boundary.
    """

    def __init__(self, path: str, max_bytes: int = 16 * 1024 * 1024):
        if max_bytes < 4096:
            raise ValueError("TraceExporter max_bytes must be >= 4096")
        self.path = str(path)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()

    def export(self, record: dict) -> None:
        line = (json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n").encode("utf-8")
        with self._lock:
            try:
                size = os.path.getsize(self.path)
            except OSError:
                size = 0
            if size and size + len(line) > self.max_bytes:
                os.replace(self.path, self.path + ".1")
            with open(self.path, "ab") as handle:
                handle.write(line)

    @staticmethod
    def read(path: str) -> list[dict]:
        """Every record in one spool file (skipping any torn last line)."""
        records = []
        try:
            with open(path, "rb") as handle:
                for raw in handle:
                    try:
                        records.append(json.loads(raw.decode("utf-8")))
                    except (UnicodeDecodeError, json.JSONDecodeError):
                        continue
        except OSError:
            return []
        return records


class TracePipeline:
    """One ``record()`` call fans a finished trace to every sink.

    With *slow_query_ms* set, marks the record ``slow`` (at or above the
    threshold) *before* buffering/exporting so the flag is queryable
    everywhere, and counts ``traces_recorded_total`` /
    ``slow_queries_total`` into the session metrics when given one.
    """

    def __init__(self, buffer: TraceBuffer | None = None,
                 exporter: TraceExporter | None = None,
                 slow_query_ms: float | None = None,
                 metrics=None):
        self.buffer = buffer if buffer is not None else TraceBuffer()
        self.exporter = exporter
        self.slow_query_ms = slow_query_ms
        self.metrics = metrics

    def record(self, record: dict) -> dict:
        if self.slow_query_ms is not None:
            record["slow"] = (record.get("duration_ms", 0.0)
                              >= self.slow_query_ms)
        self.buffer.add(record)
        if self.exporter is not None:
            self.exporter.export(record)
        if self.metrics is not None:
            self.metrics.increment("traces_recorded_total")
            if record.get("slow"):
                self.metrics.increment("slow_queries_total")
        return record
