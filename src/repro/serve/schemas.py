"""Request/response schemas of the query service (:mod:`repro.serve`).

The wire format is plain JSON riding the lossless plan IR: a submitted
query comes in as ``{"query": ...}``, a finished job goes out carrying
``QueryResult.to_dict()`` (the answer; its ``trace`` is filled in only
for ``?trace=1``), and the event stream is one JSON object per line
(NDJSON).  This module owns the validation of inbound
payloads and the shaping of outbound ones, so the HTTP layer
(:mod:`repro.serve.app`) stays a thin router.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Hard cap on an inbound query string; anything longer is a client bug,
#: not a workload.
MAX_QUERY_CHARS = 10_000


class SchemaError(ValueError):
    """An inbound payload failed validation (HTTP 400)."""


@dataclass(frozen=True)
class SubmitRequest:
    """One validated ``POST /queries`` body."""

    query: str
    #: per-job timeout override in seconds; ``None`` defers to the
    #: server's configured default (and the server's default always caps
    #: the effective value).
    timeout_s: float | None = None


def parse_submit(payload: object) -> SubmitRequest:
    """Validate a decoded ``POST /queries`` body into a request."""
    if not isinstance(payload, dict):
        raise SchemaError("request body must be a JSON object")
    unknown = sorted(set(payload) - {"query", "timeout_s"})
    if unknown:
        raise SchemaError(f"unknown fields: {', '.join(unknown)}")
    query = payload.get("query")
    if not isinstance(query, str) or not query.strip():
        raise SchemaError("'query' must be a non-empty string")
    if len(query) > MAX_QUERY_CHARS:
        raise SchemaError(
            f"'query' exceeds {MAX_QUERY_CHARS} characters")
    timeout_s = payload.get("timeout_s")
    if timeout_s is not None:
        if not isinstance(timeout_s, (int, float)) \
                or isinstance(timeout_s, bool) or timeout_s <= 0:
            raise SchemaError("'timeout_s' must be a positive number")
        timeout_s = float(timeout_s)
    return SubmitRequest(query=query.strip(), timeout_s=timeout_s)


def job_links(job_id: str, trace_id: str | None = None) -> dict:
    """The navigation links attached to every job payload."""
    links = {"self": f"/queries/{job_id}",
             "events": f"/queries/{job_id}/events"}
    if trace_id is not None:
        links["trace"] = f"/traces/{trace_id}"
    return links


def error_body(reason: str, detail: str,
               retry_after_s: float | None = None) -> dict:
    """The uniform error payload (4xx/5xx responses)."""
    body = {"error": reason, "detail": detail}
    if retry_after_s is not None:
        body["retry_after_s"] = retry_after_s
    return body
