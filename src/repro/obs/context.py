"""Distributed trace context: one id that follows a query everywhere.

A :class:`TraceContext` is the W3C ``traceparent``-shaped pair of a
32-hex-digit ``trace_id`` (one per end-to-end query, minted once at the
outermost ingress) and a 16-hex-digit ``span_id`` (the caller's span at
each boundary).  It crosses every process boundary the system has:

- HTTP: clients hand ``repro serve`` a ``traceparent`` header
  (``00-<trace_id>-<span_id>-<flags>``); the serve layer derives a child
  context per job (:func:`TraceContext.child` — same trace, fresh span).
- Process lanes: the context crosses a lane's pipe with the query, so
  worker-lane spans land in the parent's trace.
- cachenet: every RPC carries the context as an optional ``trace``
  request field, so the cache server's handling shows up as
  ``cachenet:<op>`` child spans in the caller's tree.

The module also keeps a per-thread *active trace* stack
(:func:`push_trace` / :func:`pop_trace` / :func:`current_trace`): the
engine activates the running query's context + telemetry around
``_answer``, and deep components that have no reference to the engine
(the :class:`~repro.cachenet.client.CacheClient`) read it to attach the
trace to outgoing RPCs and record their spans into the right telemetry.
"""

from __future__ import annotations

import re
import secrets
import threading
from dataclasses import dataclass

__all__ = [
    "TraceContext",
    "TraceContextError",
    "current_trace",
    "pop_trace",
    "push_trace",
]

#: ``traceparent`` header shape we accept: version 00, 32 lowercase hex
#: digits of trace id, 16 of parent span id, 2 of flags.  All-zero ids
#: are invalid per the W3C spec and rejected separately.
_TRACEPARENT = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")


class TraceContextError(ValueError):
    """A ``traceparent`` header is malformed."""


@dataclass(frozen=True)
class TraceContext:
    """An immutable (trace_id, span_id) pair.

    ``trace_id`` identifies the whole end-to-end query; ``span_id`` is
    the span *owning* this context — a child derived at a boundary uses
    it as its parent span id.
    """

    trace_id: str
    span_id: str

    # ------------------------------------------------------------------
    # Minting
    # ------------------------------------------------------------------

    @classmethod
    def new(cls) -> "TraceContext":
        """A fresh root context (random trace id, random root span id)."""
        return cls(trace_id=secrets.token_hex(16),
                   span_id=secrets.token_hex(8))

    def child(self) -> "TraceContext":
        """Same trace, fresh span id — the context handed across one hop."""
        return TraceContext(trace_id=self.trace_id,
                            span_id=secrets.token_hex(8))

    # ------------------------------------------------------------------
    # traceparent header (HTTP ingress/egress)
    # ------------------------------------------------------------------

    def to_traceparent(self) -> str:
        """The W3C-shaped header value (flags always ``01`` = sampled)."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def parse_traceparent(cls, header: str) -> "TraceContext":
        """Parse a ``traceparent`` header; :class:`TraceContextError` on
        any malformation (wrong version, bad lengths, non-hex, zero ids).
        """
        match = _TRACEPARENT.match(header.strip().lower())
        if match is None:
            raise TraceContextError(
                f"malformed traceparent {header!r}: expected "
                f"00-<32 hex>-<16 hex>-<2 hex>")
        trace_id, span_id, _flags = match.groups()
        if set(trace_id) == {"0"} or set(span_id) == {"0"}:
            raise TraceContextError(
                f"traceparent {header!r} carries an all-zero id")
        return cls(trace_id=trace_id, span_id=span_id)

    # ------------------------------------------------------------------
    # Dict form (the cachenet request field)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}


# ----------------------------------------------------------------------
# Per-thread active trace
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ActiveTrace:
    """What :func:`current_trace` hands back: the running query's context
    plus the telemetry container its spans belong in."""

    context: TraceContext
    telemetry: object  # QueryTelemetry; untyped to avoid an import cycle


_active = threading.local()


def push_trace(context: TraceContext, telemetry) -> None:
    """Activate *context* on this thread (engine entry)."""
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = _active.stack = []
    stack.append(ActiveTrace(context=context, telemetry=telemetry))


def pop_trace() -> None:
    """Deactivate the innermost trace (engine exit; always paired with
    :func:`push_trace` in a try/finally)."""
    stack = getattr(_active, "stack", None)
    if stack:
        stack.pop()


def current_trace() -> ActiveTrace | None:
    """The innermost active trace on this thread, or ``None``."""
    stack = getattr(_active, "stack", None)
    return stack[-1] if stack else None
