"""Observability: trace spans, metrics, and cost accounting.

The three pieces the ROADMAP's "observability + real-LLM cost
accounting" item names, built as one subsystem:

- :class:`StageTrace` / :class:`QueryTelemetry`
  (:mod:`repro.obs.trace`) — per-query spans with durations, token
  traffic, and dollar cost, stored on the plan IR so they ride every
  serde path (cache files, process lanes, result archives);
- :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — session-level
  counters and latency histograms with a deterministic snapshot API
  (``session.metrics()``) and a delta protocol for process-lane merging;
- :class:`CostModel` (:mod:`repro.obs.cost`) — deterministic token
  estimation and pricing, attached to language models via their
  ``cost_model`` attribute and overridable per session through
  :class:`TelemetryConfig`.
"""

from repro.obs.config import TelemetryConfig
from repro.obs.context import (TraceContext, TraceContextError,
                               current_trace, pop_trace, push_trace)
from repro.obs.cost import (DEFAULT_COST_MODEL, CostModel,
                            resolve_cost_model)
from repro.obs.export import (TraceBuffer, TraceExporter, TracePipeline,
                              build_trace_record, render_trace_record)
from repro.obs.metrics import (LATENCY_BUCKETS, MetricsRegistry,
                               render_prometheus, render_snapshot)
from repro.obs.trace import (LOCALITY_COUNTERS, QueryTelemetry,
                             StageTrace)

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "LATENCY_BUCKETS",
    "LOCALITY_COUNTERS",
    "MetricsRegistry",
    "QueryTelemetry",
    "StageTrace",
    "TelemetryConfig",
    "TraceBuffer",
    "TraceContext",
    "TraceContextError",
    "TraceExporter",
    "TracePipeline",
    "build_trace_record",
    "current_trace",
    "pop_trace",
    "push_trace",
    "render_prometheus",
    "render_snapshot",
    "render_trace_record",
    "resolve_cost_model",
]
