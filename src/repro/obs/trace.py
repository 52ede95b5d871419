"""Per-query trace spans: what each stage did, how long it took, what it
cost.

A :class:`StageTrace` is one span of the plan→map→execute loop — the
discovery prompt, one planning attempt, one mapping attempt, or one
operator execution — carrying wall-clock duration, estimated token
traffic, and its dollar cost.  The :class:`QueryTelemetry` container
collects every span of one query plus a small integer counter map (cache
locality, replans, per-operator activity) and is stored on the
:class:`~repro.core.plan.PlanTrace`, so telemetry rides the existing
lossless IR: ``to_dict``/``from_dict`` round trips, plan/answer cache
files, and the process backend's JSON pipe all carry it unchanged.

Cross-backend parity needs a *canonical* form: wall-clock durations are
never reproducible, and any counter that reflects cache locality (a
thread race or a worker-local cache can turn a hit into a miss without
changing the answer) may legitimately diverge, as may the token traffic
of a discovery, planning or mapping attempt that was or was not served
from the plan cache (and the ``memo`` note saying which).
:meth:`QueryTelemetry.canonicalize` blanks exactly those fields, so
serial, thread, and process reports agree byte-for-byte on everything
else — see :meth:`repro.core.batch.BatchReport.canonical_results`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Why a discovery or mapping prompt went to the model although the
#: plan cache was consulted: no reply is bound to the plan (``absent``),
#: the bound reply answered a different prompt (``digest_changed``), or
#: the attempt carries error feedback and is never served from the cache
#: (``retry``).
MEMO_MISS_REASONS = ("absent", "digest_changed", "retry")

#: Counters that reflect cache locality rather than query semantics;
#: blanked by :meth:`QueryTelemetry.canonicalize` because a thread race
#: or a worker-local cache can legitimately flip them between backends.
LOCALITY_COUNTERS = frozenset({
    "plan_from_cache", "plan_cache_hits", "plan_cache_misses",
    "answer_cache_hits", "answer_cache_misses",
    "vision_inferences", "text_inferences",
    "binding_memo_hits", *(f"binding_memo_misses_{reason}"
                           for reason in MEMO_MISS_REASONS),
})

#: Stage names whose token/cost figures depend on cache locality (a
#: cached plan skips the planner call entirely, a bound reply skips the
#: discovery or mapping call), zeroed in canonical form.
_LOCALITY_STAGES = ("discovery", "planning", "mapping")

#: Span note recording whether a bound reply served the stage (``"hit"``)
#: or why not; locality, so dropped from the canonical form.
MEMO_NOTE = "memo"

#: Span-name prefixes that exist only when a remote cache tier is
#: attached *and* the local front cache missed — pure locality, so the
#: whole span is dropped from the canonical form rather than zeroed.
_LOCALITY_SPAN_PREFIXES = ("cachenet:",)


@dataclass
class StageTrace:
    """One span of the query loop (shape after SNIPPETS exemplar #1)."""

    stage: str                    # "discovery" | "planning" | "mapping" |
    #                             # "execution" | "operator:<Name>"
    duration_ms: float = 0.0
    token_in: int = 0
    token_out: int = 0
    cost_usd: float = 0.0
    #: 1-based logical-step index for mapping/operator spans, ``None``
    #: for query-level spans (discovery, planning).
    step_index: int | None = None
    #: small JSON-safe annotations (e.g. the error text of a failed
    #: attempt); values must be deterministic across backends.
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"stage": self.stage, "duration_ms": self.duration_ms,
                "token_in": self.token_in, "token_out": self.token_out,
                "cost_usd": self.cost_usd, "step_index": self.step_index,
                "notes": dict(self.notes)}

    @classmethod
    def from_dict(cls, data: dict) -> "StageTrace":
        return cls(stage=data["stage"],
                   duration_ms=data.get("duration_ms", 0.0),
                   token_in=data.get("token_in", 0),
                   token_out=data.get("token_out", 0),
                   cost_usd=data.get("cost_usd", 0.0),
                   step_index=data.get("step_index"),
                   notes=dict(data.get("notes", {})))


@dataclass
class QueryTelemetry:
    """Every span and counter of one answered query."""

    spans: list[StageTrace] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def add_span(self, span: StageTrace) -> None:
        self.spans.append(span)

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def mark_plan_cache(self, hit: bool) -> None:
        """Record one planning attempt's cache outcome.

        ``plan_from_cache`` holds the *last* attempt (whether the plan
        that actually ran came from the cache — what
        :attr:`plan_cache_hit` reports); the hit/miss counters accumulate
        across replan attempts.
        """
        self.counters["plan_from_cache"] = 1 if hit else 0
        self.count("plan_cache_hits" if hit else "plan_cache_misses")

    def mark_memo(self, outcome: str) -> None:
        """Record one bound-reply lookup: ``"hit"``, or the reason
        (:data:`MEMO_MISS_REASONS`) the prompt went to the model."""
        self.count("binding_memo_hits" if outcome == "hit"
                   else f"binding_memo_misses_{outcome}")

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def plan_cache_hit(self) -> bool:
        """Whether the executed plan was served from the plan cache."""
        return bool(self.counters.get("plan_from_cache", 0))

    @property
    def token_in(self) -> int:
        return sum(span.token_in for span in self.spans)

    @property
    def token_out(self) -> int:
        return sum(span.token_out for span in self.spans)

    @property
    def cost_usd(self) -> float:
        return round(sum(span.cost_usd for span in self.spans), 8)

    def cost_summary(self) -> dict:
        """The compact economics record (harness columns, CLI footer)."""
        return {"token_in": self.token_in, "token_out": self.token_out,
                "cost_usd": self.cost_usd}

    def merged(self, other: "QueryTelemetry") -> "QueryTelemetry":
        """A new container holding both sides' spans and summed counters.

        Aggregation helper for :attr:`repro.core.batch.BatchReport.
        telemetry`; neither operand is mutated.
        """
        combined = QueryTelemetry(spans=[*self.spans, *other.spans],
                                  counters=dict(self.counters))
        for name, value in other.counters.items():
            combined.counters[name] = combined.counters.get(name, 0) + value
        return combined

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render_tree(self) -> str:
        """Human-readable span tree (``repro query --trace``).

        Query-level spans (discovery, planning) sit at the root; mapping
        and operator spans are grouped under their logical step.
        """
        def line(prefix: str, span: StageTrace) -> str:
            text = (f"{prefix}{span.stage:<24s} {span.duration_ms:9.2f}ms  "
                    f"{span.token_in:5d} in / {span.token_out:4d} out  "
                    f"${span.cost_usd:.6f}")
            if span.notes:
                keys = ", ".join(f"{k}={v!r}" for k, v in
                                 sorted(span.notes.items()))
                text += f"  [{keys}]"
            return text

        lines = [f"spans: {len(self.spans)}, tokens: {self.token_in} in / "
                 f"{self.token_out} out, cost: ${self.cost_usd:.6f}"]
        steps: dict[int, list[StageTrace]] = {}
        for span in self.spans:
            if span.step_index is None:
                lines.append(line("├─ ", span))
            else:
                steps.setdefault(span.step_index, []).append(span)
        for index in sorted(steps):
            lines.append(f"├─ step {index}")
            for span in steps[index]:
                lines.append(line("│  ├─ ", span))
        if self.counters:
            counts = ", ".join(f"{name}={value}" for name, value in
                               sorted(self.counters.items()))
            lines.append(f"└─ counters: {counts}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serde
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"spans": [span.to_dict() for span in self.spans],
                "counters": dict(self.counters)}

    @classmethod
    def from_dict(cls, data: dict) -> "QueryTelemetry":
        return cls(spans=[StageTrace.from_dict(s)
                          for s in data.get("spans", [])],
                   counters=dict(data.get("counters", {})))

    @staticmethod
    def canonicalize(data: dict) -> dict:
        """Normalize a ``to_dict()`` payload for cross-backend comparison.

        Zeroes wall-clock durations everywhere, zeroes token/cost figures
        and drops the ``memo`` note of locality-dependent stages
        (:data:`_LOCALITY_STAGES`), drops
        spans that only exist on a cache miss against a remote tier
        (:data:`_LOCALITY_SPAN_PREFIXES`), and drops
        :data:`LOCALITY_COUNTERS`; everything else must be byte-identical
        across serial, thread, and process backends.
        """
        spans = []
        for span in data.get("spans", []):
            stage = span.get("stage", "")
            if stage.startswith(_LOCALITY_SPAN_PREFIXES):
                continue
            span = dict(span)
            span["duration_ms"] = 0.0
            if span.get("stage") in _LOCALITY_STAGES:
                span["token_in"] = 0
                span["token_out"] = 0
                span["cost_usd"] = 0.0
                span["notes"] = {key: value for key, value
                                 in span.get("notes", {}).items()
                                 if key != MEMO_NOTE}
            spans.append(span)
        counters = {name: value
                    for name, value in data.get("counters", {}).items()
                    if name not in LOCALITY_COUNTERS}
        return {"spans": spans, "counters": counters}
