"""Logical and physical plan representations.

A *logical plan* is a sequence of natural-language step descriptions with
declared inputs/outputs (the Planning Phase output, Figure 2).  A *physical
plan* binds each step to a concrete operator and its arguments (the Mapping
Phase output).  Because mapping is interleaved with execution, the physical
plan is materialized incrementally.

Every type in this module is a serializable IR node: ``to_dict()`` produces
a JSON-safe dict and ``from_dict()`` reconstructs an equal object, so plans,
traces, and results can cross process and disk boundaries (plan-cache
persistence, process workers, result archives).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.data.datatypes import decode_scalar, encode_scalar
from repro.data.table import Table
from repro.llm.interface import BoundReply
from repro.obs.trace import QueryTelemetry
from repro.plotting.spec import PlotSpec


def encode_params(params: dict) -> dict:
    """JSON-safe encoding of a step-params dict.

    Scalars go through :func:`~repro.data.datatypes.encode_scalar` (dates
    become tagged ``{"$date": iso}`` dicts), lists and dicts recurse — the
    same tagged-scalar serde the rest of the plan IR uses.
    """
    return {key: _encode_param(value) for key, value in params.items()}


def _encode_param(value: object) -> object:
    if isinstance(value, dict):
        return {key: _encode_param(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_param(item) for item in value]
    return encode_scalar(value)


def decode_params(data: dict) -> dict:
    """Inverse of :func:`encode_params` (tagged dates become ``date``)."""
    return {key: _decode_param(value) for key, value in data.items()}


def _decode_param(value: object) -> object:
    if isinstance(value, dict):
        decoded = decode_scalar(value)
        if decoded is not value:          # a tagged scalar
            return decoded
        return {key: _decode_param(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_param(item) for item in value]
    return value


@dataclass
class LogicalStep:
    """One step of the logical plan.

    *params* is an optional structured sidecar for steps whose semantics
    have machine-readable parts (join keys, aggregate measure lists, typed
    date-range bounds).  The natural-language *description* stays the
    canonical form the mapping phase binds operators from; params ride the
    IR so caches, process workers, and tooling can consume the step
    without re-parsing prose.  They round-trip through both
    ``to_dict``/``from_dict`` and the rendered plan text (a ``Params:``
    line, emitted only when non-empty, so pre-existing plans and cache
    files stay valid).
    """

    index: int                      # 1-based, as written in the plan text
    description: str
    inputs: list[str] = field(default_factory=list)
    output: str = ""
    new_columns: list[str] = field(default_factory=list)
    #: structured step parameters; JSON-safe after :func:`encode_params`
    #: (date scalars are tagged), empty for steps that need none.
    params: dict = field(default_factory=dict)

    def render(self) -> str:
        """The step as plan text and mapping prompts show it.

        Memoised: a step is not changed once built — the plan cache
        already shares one step between queries and threads — and every
        mapping prompt of a warm query shows it again.
        """
        text = self.__dict__.get("_text")
        if text is None:
            lines = [f"Step {self.index}: {self.description}"]
            lines.append(f"Input: {self.inputs!r}")
            lines.append(f"Output: {self.output}")
            lines.append(f"New Columns: {self.new_columns!r}")
            if self.params:
                lines.append("Params: " + json.dumps(
                    encode_params(self.params), sort_keys=True))
            text = self.__dict__["_text"] = "\n".join(lines)
        return text

    def to_dict(self) -> dict:
        return {"index": self.index, "description": self.description,
                "inputs": list(self.inputs), "output": self.output,
                "new_columns": list(self.new_columns),
                "params": encode_params(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "LogicalStep":
        return cls(index=data["index"], description=data["description"],
                   inputs=list(data.get("inputs", [])),
                   output=data.get("output", ""),
                   new_columns=list(data.get("new_columns", [])),
                   params=decode_params(data.get("params", {})))


@dataclass
class LogicalPlan:
    """The Planning Phase result: ordered steps plus the model's thought."""

    steps: list[LogicalStep] = field(default_factory=list)
    thought: str = ""

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def render(self) -> str:
        parts = []
        if self.thought:
            parts.append(f"Thought: {self.thought}")
        parts.extend(step.render() for step in self.steps)
        parts.append(f"Step {len(self.steps) + 1}: Plan completed.")
        return "\n".join(parts)

    def to_dict(self) -> dict:
        return {"steps": [step.to_dict() for step in self.steps],
                "thought": self.thought}

    @classmethod
    def from_dict(cls, data: dict) -> "LogicalPlan":
        return cls(steps=[LogicalStep.from_dict(s)
                          for s in data.get("steps", [])],
                   thought=data.get("thought", ""))


@dataclass(frozen=True)
class BoundPlan:
    """What the plan cache stores under ``(query, lake name)``: a logical
    plan plus what the model answered while that plan last ran cleanly.

    *planning* is the reply the plan was parsed from, *discovery* the
    discovery reply, and *mappings* one mapping reply per logical step,
    in plan order; a reply that was not asked through the transcript, or
    led to an error, is absent (``None`` / empty).  The engine reuses
    each reply only when the prompt it is about to send digests to the
    stored value.

    Instances are immutable: a refreshed binding is a new ``BoundPlan``
    that replaces the old one through ``PlanCache.put``, so concurrent
    engines never see a half-updated entry.  The bindings ride
    :meth:`to_dict` under the additive ``"bindings"`` key (emitted only
    when present) — the plan-cache file, the cachenet wire and the
    process-lane warm payload all carry this one dict — and never enter
    ``LogicalPlan.to_dict()`` or a ``PlanTrace``.
    """

    plan: LogicalPlan
    discovery: BoundReply | None = None
    mappings: tuple[BoundReply, ...] = ()
    planning: BoundReply | None = None

    def to_dict(self) -> dict:
        data = self.plan.to_dict()
        if self.planning or self.discovery or self.mappings:
            data["bindings"] = {
                "planning": self.planning and self.planning.to_dict(),
                "discovery": self.discovery and self.discovery.to_dict(),
                "mappings": [reply.to_dict() for reply in self.mappings]}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BoundPlan":
        bindings = data.get("bindings") or {}
        return cls(plan=LogicalPlan.from_dict(data),
                   discovery=_reply(bindings.get("discovery")),
                   mappings=tuple(BoundReply.from_dict(reply)
                                  for reply in bindings.get("mappings", [])),
                   planning=_reply(bindings.get("planning")))


def _reply(data: dict | None) -> BoundReply | None:
    return BoundReply.from_dict(data) if data is not None else None


@dataclass
class PhysicalStep:
    """A logical step bound to an operator with concrete arguments."""

    logical: LogicalStep
    operator: str
    arguments: list[str]
    reasoning: str = ""

    def render(self) -> str:
        return (f"Step {self.logical.index}: {self.logical.description}\n"
                f"Reasoning: {self.reasoning}\n"
                f"Operator: {self.operator}\n"
                f"Arguments: ({'; '.join(self.arguments)})")

    def to_dict(self) -> dict:
        return {"logical": self.logical.to_dict(), "operator": self.operator,
                "arguments": list(self.arguments),
                "reasoning": self.reasoning}

    @classmethod
    def from_dict(cls, data: dict) -> "PhysicalStep":
        return cls(logical=LogicalStep.from_dict(data["logical"]),
                   operator=data["operator"],
                   arguments=list(data["arguments"]),
                   reasoning=data.get("reasoning", ""))


@dataclass
class Observation:
    """Feedback from executing one physical step (fed to the next prompt)."""

    step_index: int
    text: str

    def to_dict(self) -> dict:
        return {"step_index": self.step_index, "text": self.text}

    @classmethod
    def from_dict(cls, data: dict) -> "Observation":
        return cls(step_index=data["step_index"], text=data["text"])


#: Phases an :class:`ErrorEvent` can record.  The first three are the
#: engine's own loop phases; ``"worker"`` events are recorded by worker
#: lanes (:mod:`repro.exec.lanes`) when a worker crashes or dies, or a
#: query times out — ``recovered`` then means the query was successfully
#: re-run in the parent process.
ERROR_PHASES = ("planning", "mapping", "execution", "worker")


@dataclass
class ErrorEvent:
    """One error encountered while answering a query (see ERROR_PHASES)."""

    phase: str          # one of ERROR_PHASES
    step_index: int | None
    message: str
    recovered: bool = False
    #: for ``phase="worker"`` events: the index of the worker lane the
    #: failure originated on (``None`` for engine-phase events).
    worker_id: int | None = None

    @classmethod
    def worker_failure(cls, message: str, recovered: bool = False,
                       worker_id: int | None = None) -> "ErrorEvent":
        """A worker-crash/timeout event (worker-lane trace entry)."""
        return cls(phase="worker", step_index=None, message=message,
                   recovered=recovered, worker_id=worker_id)

    def to_dict(self) -> dict:
        return {"phase": self.phase, "step_index": self.step_index,
                "message": self.message, "recovered": self.recovered,
                "worker_id": self.worker_id}

    @classmethod
    def from_dict(cls, data: dict) -> "ErrorEvent":
        return cls(phase=data["phase"], step_index=data.get("step_index"),
                   message=data["message"],
                   recovered=data.get("recovered", False),
                   worker_id=data.get("worker_id"))


@dataclass
class PlanTrace:
    """Everything that happened while answering one query."""

    query: str
    logical_plan: LogicalPlan | None = None
    physical_steps: list[PhysicalStep] = field(default_factory=list)
    observations: list[Observation] = field(default_factory=list)
    errors: list[ErrorEvent] = field(default_factory=list)
    replans: int = 0
    #: wall-clock seconds per phase ("discovery" / "planning" / "mapping" /
    #: "execution" / "total"), filled in by the engine.
    timings: dict[str, float] = field(default_factory=dict)
    #: per-query spans and counters (:mod:`repro.obs`): one span per
    #: stage and per executed operator, plus cache-locality counters —
    #: the canonical home of what used to be scattered ad-hoc fields.
    telemetry: QueryTelemetry = field(default_factory=QueryTelemetry)
    #: distributed trace id (32 hex digits) this query ran under — set by
    #: the engine from its :class:`~repro.obs.TraceContext`, carried
    #: across the process-lane wire so a worker's result joins the
    #: parent's trace.  ``None`` on pre-tracing payloads.
    trace_id: str | None = None

    @property
    def crashed(self) -> bool:
        return any(not e.recovered for e in self.errors)

    def operators_used(self) -> list[str]:
        return [step.operator for step in self.physical_steps]

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "logical_plan": (self.logical_plan.to_dict()
                             if self.logical_plan is not None else None),
            "physical_steps": [s.to_dict() for s in self.physical_steps],
            "observations": [o.to_dict() for o in self.observations],
            "errors": [e.to_dict() for e in self.errors],
            "replans": self.replans,
            "timings": dict(self.timings),
            # kept for pre-telemetry consumers of the trace payload; the
            # canonical encoding is telemetry.counters["plan_from_cache"].
            "plan_cache_hit": self.telemetry.plan_cache_hit,
            "telemetry": self.telemetry.to_dict(),
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanTrace":
        plan = data.get("logical_plan")
        telemetry_data = data.get("telemetry")
        if telemetry_data is not None:
            telemetry = QueryTelemetry.from_dict(telemetry_data)
        else:
            # Pre-telemetry payload (old cache/result files): rebuild the
            # counters the old scalar field encoded.
            telemetry = QueryTelemetry()
            if data.get("plan_cache_hit", False):
                telemetry.counters["plan_from_cache"] = 1
        return cls(
            query=data["query"],
            logical_plan=(LogicalPlan.from_dict(plan)
                          if plan is not None else None),
            physical_steps=[PhysicalStep.from_dict(s)
                            for s in data.get("physical_steps", [])],
            observations=[Observation.from_dict(o)
                          for o in data.get("observations", [])],
            errors=[ErrorEvent.from_dict(e) for e in data.get("errors", [])],
            replans=data.get("replans", 0),
            timings=dict(data.get("timings", {})),
            telemetry=telemetry,
            trace_id=data.get("trace_id"))


@dataclass
class QueryResult:
    """The final answer CAESURA returns for a query."""

    kind: str                      # "value" | "table" | "plot" | "error"
    value: object = None
    table: Table | None = None
    plot: PlotSpec | None = None
    trace: PlanTrace | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.kind != "error"

    @property
    def telemetry(self) -> QueryTelemetry:
        """Spans, counters, and cost of answering this query.

        The one accessor for what used to be scattered across
        ``trace.timings`` and ad-hoc flags; an empty container when the
        result carries no trace (e.g. a synthetic error result).
        """
        if self.trace is None:
            return QueryTelemetry()
        return self.trace.telemetry

    def describe(self) -> str:
        if self.kind == "value":
            return f"value: {self.value!r}"
        if self.kind == "table" and self.table is not None:
            return f"table with {self.table.num_rows} rows"
        if self.kind == "plot" and self.plot is not None:
            return (f"{self.plot.kind} plot of {self.plot.y_label} over "
                    f"{self.plot.x_label}")
        return f"error: {self.error}"

    def to_dict(self) -> dict:
        """Lossless JSON-safe encoding of the full result (incl. trace)."""
        return {
            "kind": self.kind,
            "value": encode_scalar(self.value),
            "table": self.table.to_dict() if self.table is not None else None,
            "plot": self.plot.to_dict() if self.plot is not None else None,
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryResult":
        table = data.get("table")
        plot = data.get("plot")
        trace = data.get("trace")
        return cls(
            kind=data["kind"],
            value=decode_scalar(data.get("value")),
            table=Table.from_dict(table) if table is not None else None,
            plot=PlotSpec.from_dict(plot) if plot is not None else None,
            trace=PlanTrace.from_dict(trace) if trace is not None else None,
            error=data.get("error", ""))
