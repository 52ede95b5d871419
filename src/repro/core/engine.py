"""The CAESURA driver: the interleaved plan → map → execute loop (Figure 2).

:class:`Engine` answers one natural-language query against a
:class:`~repro.data.catalog.DataLake`.  It is a thin driver composed of
three pluggable parts (:mod:`repro.core.interfaces`):

- a :class:`~repro.core.interfaces.Planner` (default:
  :class:`~repro.core.interfaces.PromptPlanner` over a
  :class:`~repro.llm.brain.SimulatedBrain`),
- a :class:`~repro.core.interfaces.Mapper` (default:
  :class:`~repro.core.interfaces.PromptMapper` over the same model), and
- an :class:`~repro.core.interfaces.Executor` (default:
  :class:`~repro.core.interfaces.RegistryExecutor` over the built-in
  operator registry).

Flow per query:

0. *Lookup*: fetch the plan cache's :class:`~repro.core.plan.BoundPlan`
   for ``(query, lake name)`` — the logical plan plus the model's
   replies from the plan's last clean run.
1. *Discovery*: ask the planner which columns are relevant.
2. *Planning*: ask for a logical plan.
3. For each logical step, interleaved: *Mapping* (bind the step to a
   physical operator + arguments) then *Execution* (run the operator over
   the shared :class:`~repro.operators.base.ExecutionContext`).  Each
   operator's observation is fed into the next mapping prompt.
4. On failure the planner's error analysis decides between retrying the
   step with feedback and backtracking to planning (bounded by
   :data:`MAX_REPLANS`).

The engine seeds the query's :class:`~repro.llm.interface.Transcript`
with the entry's replies, and discovery, planning and mapping ask the
model through :meth:`~repro.llm.interface.Transcript.ask`: a bound reply
is reused when — and only when — it answered a prompt with the same
digest (:attr:`~repro.llm.interface.Prompt.digest`); otherwise the model
is asked, and the miss names the first prompt section that changed.  A
prompt is a set of named sections whose digests are memoised on what
they show (:mod:`repro.core.prompts`), so a warm query digests its
prompts without rendering any text.  Each span reads the outcome of the
asks it covers, and after a run the replies the transcript kept
become the refreshed ``BoundPlan``.  A fully warm query therefore
makes no model call, yet the observation-fed interleaving stays exact: a
step whose observations differ has a different prompt and goes back to
the model, and a lake change re-asks only the prompts that show it.

Every prompt/response pair actually sent is recorded in
``last_transcript`` (a reused reply sends nothing); everything that
happened lands in the returned :class:`~repro.core.plan.QueryResult`'s
:class:`~repro.core.plan.PlanTrace`, including per-phase wall-clock
timings.  :class:`repro.session.Session` is the public facade over it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.interfaces import (Executor, Mapper, Planner, PromptMapper,
                                   PromptPlanner, RegistryExecutor)
from repro.core.plan import (BoundPlan, ErrorEvent, LogicalPlan,
                             Observation, PhysicalStep, PlanTrace,
                             QueryResult)
from repro.core.prompts import ColumnHint
from repro.data.catalog import DataLake
from repro.data.table import Table
from repro.errors import ReproError
from repro.llm.brain import SimulatedBrain
from repro.llm.interface import BoundReply, LanguageModel, Transcript
from repro.obs import (MetricsRegistry, StageTrace, TelemetryConfig,
                       TraceContext, pop_trace, push_trace,
                       resolve_cost_model)
from repro.obs.trace import MEMO_MISS_REASONS, MEMO_NOTE, SECTION_CHANGED
from repro.operators.base import ExecutionContext
from repro.plotting.spec import PlotSpec
from repro.relational.sqlexec import SQLBridge
from repro.text.qa import BartQASim
from repro.vision.blip import Blip2Sim


#: values of :attr:`EngineConfig.relational_engine`; a SQL / Join step
#: counts the one that ran it as ``sql_engine_<name>``.
RELATIONAL_ENGINES = ("columnar", "sqlite")

#: bounded backtracking to the planning phase, per query
MAX_REPLANS = 2
#: mapping retries per step, with the failure as feedback
MAX_STEP_RETRIES = 2
#: the most recent observations fed into each mapping prompt
MAX_OBSERVATIONS = 6


@dataclass
class EngineConfig:
    """Tunables of the execution loop."""

    use_discovery: bool = True    # run the discovery prompt for column hints
    #: which relational engine executes SQL / Join steps: ``"columnar"``
    #: (vectorized kernels over column storage, sqlite fallback) or
    #: ``"sqlite"`` (always the bridge).  Both are byte-identical — the
    #: differential fuzzer (repro.testing.fuzz) asserts it.
    relational_engine: str = "columnar"

    def __post_init__(self) -> None:
        if self.relational_engine not in RELATIONAL_ENGINES:
            raise ValueError(
                f"unknown relational engine {self.relational_engine!r} "
                f"(EngineConfig.relational_engine); choose one of "
                f"{', '.join(RELATIONAL_ENGINES)}")


def _bound_replies(entry: BoundPlan) -> dict[str, BoundReply | None]:
    """*entry*'s replies (``None``: absent) by the label that asks."""
    return {"planning": entry.planning, "discovery": entry.discovery,
            **{f"mapping:{step.index}": reply
               for step, reply in zip(entry.plan, entry.mappings)}}


@dataclass
class _StepFailure:
    """Outcome of a step that could not be completed."""

    event: ErrorEvent
    should_replan: bool


class Engine:
    """Answers queries end-to-end over one data lake.

    Internal driver — :class:`repro.session.Session` is the public facade.
    ``planner``/``mapper``/``executor`` default to the prompt-driven
    implementations over *model* (itself defaulting to
    :class:`~repro.llm.brain.SimulatedBrain`); pass explicit instances to
    swap any of the three roles.
    """

    def __init__(self, lake: DataLake, model: LanguageModel | None = None,
                 config: EngineConfig | None = None,
                 planner: Planner | None = None,
                 mapper: Mapper | None = None,
                 executor: Executor | None = None,
                 plan_cache=None, answer_cache=None, render_cache=None,
                 metrics: MetricsRegistry | None = None,
                 telemetry: TelemetryConfig | None = None):
        self.lake = lake
        if model is None and (planner is None or mapper is None):
            model = SimulatedBrain()
        self.model = model
        self.planner = planner if planner is not None else PromptPlanner(model)
        self.mapper = (mapper if mapper is not None
                       else PromptMapper(model, lake))
        self.executor = (executor if executor is not None
                         else RegistryExecutor())
        self.config = config or EngineConfig()
        #: optional :class:`repro.core.batch.PlanCache`; shared across
        #: engines by the batch layer.
        self.plan_cache = plan_cache
        #: optional :class:`repro.core.answer_cache.AnswerCache`; handed to
        #: every :class:`~repro.operators.base.ExecutionContext` so the
        #: modality operators memoize (object, question) answers.  Shared
        #: across engines by the batch layer.
        self.answer_cache = answer_cache
        #: optional :class:`repro.core.answer_cache.RenderCache`, the
        #: raster digests of lazy images by scene key; handed to every
        #: execution context beside the answer cache.
        self.render_cache = render_cache
        #: engine-lifetime sqlite bridge: tables are registered into sqlite
        #: once per content fingerprint instead of once per SQL step (the
        #: registration copy dominated warm batches on 10k-row lakes).
        self.sql_bridge = SQLBridge()
        #: engine-lifetime modality models, one per lane as loaded models
        #: would be: what the vision model has worked out about an image
        #: (its detection memo) serves every later question about it.
        self.vision_model = Blip2Sim()
        self.text_model = BartQASim()
        self.last_transcript = Transcript()
        #: optional per-span hook called with each
        #: :class:`~repro.obs.StageTrace` the moment it is recorded —
        #: a thread worker lane (:mod:`repro.exec.lanes`) attaches the
        #: query service's event stream here to push spans to clients
        #: while the query is still executing.  Only fires when
        #: telemetry is enabled; exceptions are swallowed so a broken
        #: listener can never fail a query.
        self.span_listener = None
        #: optional session-level :class:`~repro.obs.MetricsRegistry`;
        #: every finished query records counters and latencies into it.
        self.metrics = metrics
        self.telemetry_config = telemetry or TelemetryConfig()
        self.cost_model = resolve_cost_model(
            model, override=self.telemetry_config.cost_model)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def query(self, query: str,
              context: TraceContext | None = None) -> QueryResult:
        """Answer *query*, returning a :class:`QueryResult` with full trace.

        *context* is the :class:`~repro.obs.TraceContext` to run under,
        passed by a caller that already owns a trace (the serve layer, a
        lane); ``None`` mints a fresh root context, so every query has a
        trace id.
        """
        context = context or TraceContext.new()
        trace = PlanTrace(query=query, trace_id=context.trace_id)
        transcript = Transcript()
        self.last_transcript = transcript
        started = time.perf_counter()
        # Activate the trace on this thread so components below the
        # engine (cachenet RPCs) attach their spans to this query.
        activated = self.telemetry_config.enabled
        if activated:
            push_trace(context, trace.telemetry)
        try:
            result = self._answer(query, trace, transcript)
        finally:
            if activated:
                pop_trace()
            self._tick(trace, "total", started)
        self._record_metrics(trace, result.ok)
        return result

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _answer(self, query: str, trace: PlanTrace,
                transcript: Transcript) -> QueryResult:
        # One lookup per query, before discovery; _remember reuses the key.
        key = (query, self.lake.name)
        cached = (self.plan_cache.get(key)
                  if self.plan_cache is not None else None)
        if cached is not None:
            transcript.bound = _bound_replies(cached)
        hints: list[ColumnHint] = []
        if self.config.use_discovery:
            hints = self._discover(query, trace, transcript)

        replans = 0
        planning_feedback = ""
        while True:
            try:
                plan = self._plan(query, hints, trace, transcript,
                                  error_feedback=planning_feedback)
            except ReproError as exc:
                trace.errors.append(ErrorEvent("planning", None, str(exc)))
                return QueryResult(kind="error", error=str(exc), trace=trace)
            trace.logical_plan = plan
            trace.physical_steps = []
            trace.observations = []
            outcome = self._run_plan(query, plan, hints, trace, transcript)
            if isinstance(outcome, QueryResult):
                if outcome.ok and self.plan_cache is not None:
                    self._remember(key, plan, cached, transcript)
                return outcome
            # _StepFailure
            if outcome.should_replan and replans < MAX_REPLANS:
                outcome.event.recovered = True
                replans += 1
                trace.replans = replans
                planning_feedback = outcome.event.message
                continue
            return QueryResult(kind="error", error=outcome.event.message,
                               trace=trace)

    def _remember(self, key: tuple[str, str], plan: LogicalPlan,
                  cached: BoundPlan | None, transcript: Transcript) -> None:
        """Store this run's plan, with the reply behind each label's
        latest ask, unless it equals *cached*.  A reply that led to an
        error is not among them: a retry or replan asks with error
        feedback, which keeps no reply, and :meth:`_discover` drops a
        failed one.  Mapping replies are bound only as a full set."""
        replies = transcript.replies
        mappings = tuple(replies.get(f"mapping:{step.index}")
                         for step in plan)
        bound = BoundPlan(plan, replies.get("discovery"),
                          () if None in mappings else mappings,
                          replies.get("planning"))
        if bound != cached:
            self.plan_cache.put(key, bound)

    def _discover(self, query: str, trace: PlanTrace,
                  transcript: Transcript) -> list[ColumnHint]:
        started = time.perf_counter()
        mark = len(transcript.entries)
        try:
            return self.planner.discover(self.lake, query, transcript)
        except ReproError as exc:
            transcript.replies["discovery"] = None  # never bind it
            trace.errors.append(ErrorEvent(
                "planning", None, f"discovery failed: {exc}", recovered=True))
            return []
        finally:
            self._tick(trace, "discovery", started)
            self._span(trace, transcript, "discovery", started, mark)

    def _plan(self, query: str, hints: list[ColumnHint], trace: PlanTrace,
              transcript: Transcript,
              error_feedback: str = "") -> LogicalPlan:
        started = time.perf_counter()
        mark = len(transcript.entries)
        try:
            plan = self.planner.plan(self.lake, query, hints, transcript,
                                     error_feedback=error_feedback)
        finally:
            self._tick(trace, "planning", started)
            memo = self._span(trace, transcript, "planning", started, mark)
        # A plan-cache hit: a bound planning reply served the plan.
        trace.telemetry.mark_plan_cache(memo == "hit")
        return plan

    def _run_plan(self, query: str, plan: LogicalPlan,
                  hints: list[ColumnHint], trace: PlanTrace,
                  transcript: Transcript) -> QueryResult | _StepFailure:
        context = ExecutionContext(
            tables={name: self.lake.table(name)
                    for name in self.lake.source_names},
            vision_model=self.vision_model,
            text_model=self.text_model,
            answer_cache=self.answer_cache,
            render_cache=self.render_cache,
            sql_bridge=self.sql_bridge,
            telemetry=trace.telemetry,
            relational_engine=self.config.relational_engine)
        cards = self.executor.cards()
        observations: list[str] = []
        last_table: Table | None = None
        last_plot: PlotSpec | None = None

        for step in plan:
            feedback = ""
            step_events: list[ErrorEvent] = []
            succeeded = False
            for _attempt in range(MAX_STEP_RETRIES + 1):
                phase = "mapping"
                started = time.perf_counter()
                mark = len(transcript.entries)
                try:
                    decision = self.mapper.map_step(
                        context.tables, cards, step, hints,
                        observations[-MAX_OBSERVATIONS:], transcript,
                        error_feedback=feedback)
                    self._tick(trace, "mapping", started)
                    self._span(trace, transcript, "mapping", started, mark,
                               step_index=step.index)
                    phase = "execution"
                    started = time.perf_counter()
                    mark = len(transcript.entries)
                    execution = self.executor.execute(decision, context)
                    result = execution.result
                    self._tick(trace, "execution", started)
                    self._span(trace, transcript,
                               f"operator:{execution.operator}", started,
                               mark, step_index=step.index)
                except ReproError as exc:
                    self._tick(trace, phase, started)
                    event = ErrorEvent(phase, step.index, str(exc))
                    trace.errors.append(event)
                    step_events.append(event)
                    analysis = self.planner.analyze_error(query, plan, step,
                                                          exc, transcript)
                    # The span of a failed attempt covers the error-analysis
                    # prompt too — those tokens were spent on this attempt.
                    self._span(trace, transcript, phase, started, mark,
                               step_index=step.index,
                               notes={"error": str(exc)[:200]})
                    if analysis is not None and analysis.backtrack_to_planning:
                        return _StepFailure(event, should_replan=True)
                    feedback = str(exc)
                    continue
                # Success: earlier failures of this step were recovered.
                for event in step_events:
                    event.recovered = True
                trace.physical_steps.append(PhysicalStep(
                    logical=step, operator=execution.operator,
                    arguments=decision.arguments,
                    reasoning=decision.reasoning))
                observation = (result.observation
                               or f"Step {step.index} produced no output.")
                observations.append(observation)
                trace.observations.append(Observation(step.index,
                                                      observation))
                if result.plot is not None:
                    last_plot = result.plot
                if result.table is not None:
                    last_table = result.table
                    if step.output and step.output != "plot":
                        context.bind(step.output, result.table)
                succeeded = True
                break
            if not succeeded:
                return _StepFailure(step_events[-1], should_replan=False)
        return self._finalize(trace, last_table, last_plot)

    def _finalize(self, trace: PlanTrace, table: Table | None,
                  plot: PlotSpec | None) -> QueryResult:
        if plot is not None:
            return QueryResult(kind="plot", plot=plot, table=table,
                               trace=trace)
        if table is None:
            trace.errors.append(ErrorEvent(
                "execution", None, "plan produced no result table"))
            return QueryResult(kind="error",
                               error="plan produced no result table",
                               trace=trace)
        if table.num_rows == 1 and table.num_columns == 1:
            value = table.column(table.column_names[0])[0]
            return QueryResult(kind="value", value=value, table=table,
                               trace=trace)
        return QueryResult(kind="table", table=table, trace=trace)

    @staticmethod
    def _tick(trace: PlanTrace, phase: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        trace.timings[phase] = trace.timings.get(phase, 0.0) + elapsed

    def _span(self, trace: PlanTrace, transcript: Transcript, stage: str,
              started: float, mark: int, step_index: int | None = None,
              notes: dict | None = None) -> str | None:
        """Emit one :class:`~repro.obs.StageTrace` onto the query telemetry.

        Token traffic is attributed by transcript window: *mark* is the
        transcript length when the stage began, so every prompt/response
        recorded since then belongs to this span.  The outcome of each
        reply-reuse ask since the last span is counted, and the latest
        becomes the span's ``memo`` note and the return value.
        """
        outcomes = transcript.outcomes
        memo = outcomes[-1] if outcomes else None
        if outcomes:
            for outcome in outcomes:
                trace.telemetry.mark_memo(outcome)
            notes = {MEMO_NOTE: memo, **(notes or {})}
            outcomes.clear()
        if not self.telemetry_config.enabled:
            return memo
        token_in = token_out = 0
        for entry in transcript.entries[mark:]:
            t_in, t_out = self.cost_model.usage(entry.messages,
                                                entry.response)
            token_in += t_in
            token_out += t_out
        span = StageTrace(
            stage=stage,
            duration_ms=(time.perf_counter() - started) * 1000.0,
            token_in=token_in, token_out=token_out,
            cost_usd=self.cost_model.cost_usd(token_in, token_out),
            step_index=step_index, notes=dict(notes or {}))
        trace.telemetry.add_span(span)
        listener = self.span_listener
        if listener is not None:
            try:
                listener(span)
            except Exception:  # noqa: BLE001 - listeners must never fail a query
                pass
        return memo

    def _record_metrics(self, trace: PlanTrace, ok: bool) -> None:
        """Fold one finished query into the session metrics registry, in
        one locked call."""
        if self.metrics is None:
            return
        deltas: list[tuple[str, float]] = [
            ("queries_total", 1), ("queries_ok" if ok else "queries_error", 1)]
        add = deltas.append
        telemetry = trace.telemetry
        counters = telemetry.counters
        for name in ("plan_cache_hits", "plan_cache_misses",
                     "answer_cache_hits", "answer_cache_misses"):
            value = counters.get(name)
            if value:
                add((name, value))
        value = counters.get("binding_memo_hits")
        if value:
            add(("binding_memo_hits_total", value))
        for reason in MEMO_MISS_REASONS:
            value = counters.get(f"binding_memo_misses_{reason}")
            if value:
                add((f'binding_memo_misses_total{{reason="{reason}"}}',
                     value))
        for name, value in counters.items():
            if name.startswith(SECTION_CHANGED):
                section = name[len(SECTION_CHANGED):]
                add((f'binding_memo_section_changed_total'
                     f'{{section="{section}"}}', value))
        for engine in RELATIONAL_ENGINES:
            value = counters.get(f"sql_engine_{engine}")
            if value:
                add((f'sql_engine_total{{engine="{engine}"}}', value))
        for name in ("colexec_declined", "udf_rows_evaluated",
                     "udf_memo_hits", "images_rendered",
                     "image_keys_from_map"):
            value = counters.get(name)
            if value:
                add((f"{name}_total", value))
        if trace.replans:
            add(("replans_total", trace.replans))
        if telemetry.spans:
            add(("spans_total", len(telemetry.spans)))
            add(("token_in_total", telemetry.token_in))
            add(("token_out_total", telemetry.token_out))
            add(("cost_usd_total", telemetry.cost_usd))
            # The same prompt tokens by phase: the span stage up to any
            # ':' ("mapping", "planning", ...; "execution" holds
            # error-analysis prompts).  A separate family, so it never
            # adds into token_in_total.
            for span in telemetry.spans:
                if span.token_in:
                    phase = span.stage.partition(":")[0]
                    add((f'token_in_phase_total{{phase="{phase}"}}',
                         span.token_in))
        self.metrics.record(deltas, [(f"latency_{phase}", seconds)
                                     for phase, seconds
                                     in trace.timings.items()])

