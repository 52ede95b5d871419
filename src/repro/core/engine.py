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
   for ``(query, lake fingerprint)`` — the logical plan plus the model's
   discovery and mapping replies from the plan's last clean run.
1. *Discovery*: ask the planner which columns are relevant.
2. *Planning*: ask for a logical plan (or reuse the cached one).
3. For each logical step, interleaved: *Mapping* (bind the step to a
   physical operator + arguments) then *Execution* (run the operator over
   the shared :class:`~repro.operators.base.ExecutionContext`).  Each
   operator's observation is fed into the next mapping prompt.
4. On failure the planner's error analysis decides between retrying the
   step with feedback and backtracking to planning (bounded by
   ``max_replans``).

Discovery and mapping build their prompt first and reuse the bound reply
when — and only when — it answered a prompt with the same digest
(:func:`~repro.core.prompts.prompt_digest`); otherwise the model is asked
as before and the refreshed ``BoundPlan`` replaces the cache entry.  A
fully warm query therefore makes no model call, yet the observation-fed
interleaving stays exact: a step whose observations differ has a
different prompt and goes back to the model.

Every prompt/response pair actually sent is recorded in
``last_transcript`` (a reused reply sends nothing); everything that
happened lands in the returned :class:`~repro.core.plan.QueryResult`'s
:class:`~repro.core.plan.PlanTrace`, including per-phase wall-clock
timings.

:class:`QueryEngine` is the pre-Session spelling of this class and is kept
as a deprecated shim; new code goes through :class:`repro.session.Session`.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field

from repro.core.interfaces import (Executor, Mapper, Planner, PromptMapper,
                                   PromptPlanner, RegistryExecutor)
from repro.core.parsing import MappingDecision
from repro.core.plan import (BoundPlan, BoundReply, ErrorEvent, LogicalPlan,
                             LogicalStep, Observation, PhysicalStep,
                             PlanTrace, QueryResult)
from repro.core.prompts import ColumnHint, prompt_digest
from repro.data.catalog import DataLake
from repro.data.table import Table
from repro.errors import ReproError
from repro.llm.brain import SimulatedBrain
from repro.llm.interface import LanguageModel, Transcript
from repro.obs import (MetricsRegistry, StageTrace, TelemetryConfig,
                       TraceContext, pop_trace, push_trace,
                       resolve_cost_model)
from repro.obs.trace import MEMO_MISS_REASONS, MEMO_NOTE
from repro.operators.base import ExecutionContext
from repro.plotting.spec import PlotSpec
from repro.relational.sqlexec import SQLBridge
from repro.text.qa import BartQASim
from repro.vision.blip import Blip2Sim


#: values of :attr:`EngineConfig.relational_engine`; a SQL / Join step
#: counts the one that ran it as ``sql_engine_<name>``.
RELATIONAL_ENGINES = ("columnar", "native", "sqlite")


@dataclass
class EngineConfig:
    """Tunables of the execution loop."""

    max_replans: int = 2          # bounded backtracking to the planning phase
    max_step_retries: int = 2     # mapping retries per step, with feedback
    use_discovery: bool = True    # run the discovery prompt for column hints
    few_shot: bool = True         # include few-shot examples when planning
    max_observations: int = 6     # observations fed into each mapping prompt
    #: which relational engine executes SQL / Join steps: ``"columnar"``
    #: (vectorized kernels over column storage, sqlite fallback),
    #: ``"native"`` (row-wise repro.relational.ops, sqlite fallback), or
    #: ``"sqlite"`` (always the bridge).  All three are byte-identical —
    #: the differential fuzzer (repro.testing.fuzz) asserts it.
    relational_engine: str = field(default_factory=lambda: os.environ.get(
        "REPRO_RELATIONAL_ENGINE", "columnar"))


@dataclass
class _StepFailure:
    """Outcome of a step that could not be completed."""

    event: ErrorEvent
    should_replan: bool


@dataclass
class _Bindings:
    """One query's view of its plan-cache entry.

    *cached* is what the lookup returned and *stored_mappings* the
    mapping replies usable for the plan now running (the cached ones
    when the cached plan runs, none for a fresh plan).  *discovery* and
    *mappings* collect the replies this run used — reused or freshly
    asked (*asked* counts the latter) — and become the next entry.
    *complete* turns false when a reply could not be captured (a role
    without the prompt/read pair, an attempt with error feedback); the
    plan is then stored without bound replies.
    """

    cached: BoundPlan | None
    stored_mappings: tuple[BoundReply, ...] = ()
    discovery: BoundReply | None = None
    mappings: list[BoundReply] = field(default_factory=list)
    asked: int = 0
    complete: bool = True


def _prompt_pair(role: object, build: str, read: str) -> tuple | None:
    """``(build prompt, read reply)`` when *role* offers both methods."""
    pair = getattr(role, build, None), getattr(role, read, None)
    return pair if None not in pair else None


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
                 plan_cache=None, answer_cache=None,
                 metrics: MetricsRegistry | None = None,
                 telemetry: TelemetryConfig | None = None):
        self.lake = lake
        if model is None and (planner is None or mapper is None):
            model = SimulatedBrain()
        self.model = model
        self.planner = planner if planner is not None else PromptPlanner(model)
        self.mapper = mapper if mapper is not None else PromptMapper(model)
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
        #: the :class:`~repro.core.plan.BoundPlan` the most recent query
        #: wrote to the plan cache, ``None`` when it wrote nothing —
        #: worker lanes ship it back to the parent's cache.
        self.last_put: BoundPlan | None = None
        #: optional per-span hook called with each
        #: :class:`~repro.obs.StageTrace` the moment it is recorded —
        #: the query service's event stream
        #: (:mod:`repro.serve.jobs`) attaches here to push spans to
        #: clients while the query is still executing.  Only fires when
        #: telemetry is enabled; exceptions are swallowed so a broken
        #: listener can never fail a query.
        self.span_listener = None
        #: optional :class:`~repro.obs.TraceContext` the next query runs
        #: under — set by a caller that already owns a trace (the serve
        #: layer, a process-backend parent) before calling :meth:`query`;
        #: when ``None`` the engine mints a fresh root context, so every
        #: query has a trace id.
        self.trace_context = None
        #: optional session-level :class:`~repro.obs.MetricsRegistry`;
        #: every finished query records counters and latencies into it.
        self.metrics = metrics
        self.telemetry_config = telemetry or TelemetryConfig()
        self.cost_model = resolve_cost_model(
            model, override=self.telemetry_config.cost_model)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def query(self, query: str) -> QueryResult:
        """Answer *query*, returning a :class:`QueryResult` with full trace."""
        context = self.trace_context or TraceContext.new()
        trace = PlanTrace(query=query, trace_id=context.trace_id)
        transcript = Transcript()
        self.last_transcript = transcript
        self.last_put = None
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

    @property
    def fingerprint(self) -> str:
        """Fingerprint of the lake, used as part of the plan-cache key.

        Recomputed per access — once per query — so a lake mutated
        through ``DataLake.add`` after engine construction never reuses
        stale cache keys.
        """
        return self.lake.fingerprint()

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _answer(self, query: str, trace: PlanTrace,
                transcript: Transcript) -> QueryResult:
        # One lookup per query, before discovery: the entry carries the
        # discovery reply too.  The key is computed once and reused by
        # the put in _remember.
        key = (query, self.fingerprint)
        bindings = _Bindings(self.plan_cache.get(key)
                             if self.plan_cache is not None else None)
        hints: list[ColumnHint] = []
        if self.config.use_discovery:
            hints = self._discover(query, bindings, trace, transcript)

        replans = 0
        planning_feedback = ""
        while True:
            try:
                plan, from_cache = self._plan(query, hints, bindings, trace,
                                              transcript,
                                              error_feedback=planning_feedback)
            except ReproError as exc:
                trace.errors.append(ErrorEvent("planning", None, str(exc)))
                return QueryResult(kind="error", error=str(exc), trace=trace)
            trace.logical_plan = plan
            trace.telemetry.mark_plan_cache(from_cache)
            trace.physical_steps = []
            trace.observations = []
            bindings.stored_mappings = (bindings.cached.mappings
                                        if from_cache else ())
            bindings.mappings = []
            outcome = self._run_plan(query, plan, hints, bindings, trace,
                                     transcript)
            if isinstance(outcome, QueryResult):
                if outcome.ok and self.plan_cache is not None:
                    self._remember(key, plan, from_cache, bindings, trace)
                return outcome
            # _StepFailure
            if outcome.should_replan and replans < self.config.max_replans:
                outcome.event.recovered = True
                replans += 1
                trace.replans = replans
                planning_feedback = outcome.event.message
                continue
            return QueryResult(kind="error", error=outcome.event.message,
                               trace=trace)

    def _remember(self, key: tuple[str, str], plan: LogicalPlan,
                  from_cache: bool, bindings: _Bindings,
                  trace: PlanTrace) -> None:
        """Write this run's plan (and replies) back to the plan cache.

        Replies are bound only after a clean run — no failed discovery,
        no retried step, no replan (each leaves an error event) — with
        every reply captured.  A fresh plan is always stored; a cached
        one is re-stored only when some reply had to be asked afresh.
        """
        clean = bindings.complete and not trace.errors
        if from_cache and not (clean and bindings.asked):
            return
        bound = (BoundPlan(plan, bindings.discovery,
                           tuple(bindings.mappings))
                 if clean else BoundPlan(plan))
        self.plan_cache.put(key, bound)
        self.last_put = bound

    def _bound_or_ask(self, stored: BoundReply | None, build, read, ask,
                      bindings: _Bindings, trace: PlanTrace,
                      transcript: Transcript,
                      notes: dict) -> tuple[object, BoundReply | None]:
        """``(answer, the reply it came from)`` for one model exchange.

        *stored* is reused — parsed by *read* — only when it answered a
        prompt with the digest of the one *build* renders now; otherwise
        *ask* sends the prompt, and the exchange it records (the exact
        prompt sent, and the reply) becomes the reply to bind.  The
        outcome is named either way: ``notes["memo"]`` and the matching
        per-query counter say ``hit`` or why not.
        """
        if stored is None:
            outcome = "absent"
        elif stored.digest == prompt_digest(build()):
            self._note_memo("hit", trace, notes)
            return read(stored.response), stored
        else:
            outcome = "digest_changed"
        self._note_memo(outcome, trace, notes)
        mark = len(transcript.entries)
        answer = ask()
        bindings.asked += 1
        # Exactly one recorded exchange ties the reply to its prompt;
        # anything else and nothing is bound for this query.
        exchanges = transcript.entries[mark:]
        if len(exchanges) != 1:
            bindings.complete = False
            return answer, None
        sent = exchanges[0]
        return answer, BoundReply(prompt_digest(sent.messages), sent.response)

    @staticmethod
    def _note_memo(outcome: str, trace: PlanTrace, notes: dict) -> None:
        notes[MEMO_NOTE] = outcome
        trace.telemetry.mark_memo(outcome)

    def _discover(self, query: str, bindings: _Bindings, trace: PlanTrace,
                  transcript: Transcript) -> list[ColumnHint]:
        started = time.perf_counter()
        mark = len(transcript.entries)
        notes: dict = {}
        planner, lake = self.planner, self.lake
        try:
            pair = _prompt_pair(planner, "discovery_prompt",
                                "read_discovery")
            if pair is None:
                bindings.complete = False
                return planner.discover(lake, query, transcript)
            build, read = pair
            cached = bindings.cached
            hints, bindings.discovery = self._bound_or_ask(
                cached.discovery if cached is not None else None,
                lambda: build(lake, query),
                lambda response: read(lake, response),
                lambda: planner.discover(lake, query, transcript),
                bindings, trace, transcript, notes)
            return hints
        except ReproError as exc:
            trace.errors.append(ErrorEvent(
                "planning", None, f"discovery failed: {exc}", recovered=True))
            return []
        finally:
            self._tick(trace, "discovery", started)
            self._span(trace, transcript, "discovery", started, mark,
                       notes=notes)

    def _plan(self, query: str, hints: list[ColumnHint],
              bindings: _Bindings, trace: PlanTrace,
              transcript: Transcript,
              error_feedback: str = "") -> tuple[LogicalPlan, bool]:
        started = time.perf_counter()
        mark = len(transcript.entries)
        try:
            # A replan must not reuse the plan that just failed: bypass the
            # cache whenever error feedback is present.
            if bindings.cached is not None and not error_feedback:
                return bindings.cached.plan, True
            plan = self.planner.plan(self.lake, query, hints, transcript,
                                     few_shot=self.config.few_shot,
                                     error_feedback=error_feedback)
            return plan, False
        finally:
            self._tick(trace, "planning", started)
            self._span(trace, transcript, "planning", started, mark)

    def _map(self, tables: dict[str, Table], cards: list, step: LogicalStep,
             position: int, hints: list[ColumnHint], window: list[str],
             feedback: str, bindings: _Bindings, trace: PlanTrace,
             transcript: Transcript, notes: dict) -> MappingDecision:
        """The mapping decision for the step at *position* of the plan."""
        mapper = self.mapper
        pair = _prompt_pair(mapper, "mapping_prompt", "read_mapping")
        if pair is None or feedback:
            # A retry (error feedback) is never served from, or bound
            # into, the cache.
            bindings.complete = False
            if pair is not None:
                self._note_memo("retry", trace, notes)
            return mapper.map_step(tables, cards, step, hints, window,
                                   transcript, error_feedback=feedback)
        build, read = pair
        stored = bindings.stored_mappings
        decision, reply = self._bound_or_ask(
            stored[position] if position < len(stored) else None,
            lambda: build(tables, cards, step, hints, window), read,
            lambda: mapper.map_step(tables, cards, step, hints, window,
                                    transcript),
            bindings, trace, transcript, notes)
        if reply is not None:
            bindings.mappings.append(reply)
        return decision

    def _run_plan(self, query: str, plan: LogicalPlan,
                  hints: list[ColumnHint], bindings: _Bindings,
                  trace: PlanTrace,
                  transcript: Transcript) -> QueryResult | _StepFailure:
        context = ExecutionContext(
            tables={name: self.lake.table(name)
                    for name in self.lake.source_names},
            vision_model=self.vision_model,
            text_model=self.text_model,
            answer_cache=self.answer_cache,
            sql_bridge=self.sql_bridge,
            telemetry=trace.telemetry,
            relational_engine=self.config.relational_engine)
        cards = self.executor.cards()
        observations: list[str] = []
        last_table: Table | None = None
        last_plot: PlotSpec | None = None

        for position, step in enumerate(plan):
            feedback = ""
            step_events: list[ErrorEvent] = []
            succeeded = False
            for _attempt in range(self.config.max_step_retries + 1):
                phase = "mapping"
                started = time.perf_counter()
                mark = len(transcript.entries)
                notes: dict = {}
                try:
                    window = observations[-self.config.max_observations:]
                    decision = self._map(context.tables, cards, step,
                                         position, hints, window, feedback,
                                         bindings, trace, transcript, notes)
                    self._tick(trace, "mapping", started)
                    self._span(trace, transcript, "mapping", started, mark,
                               step_index=step.index, notes=notes)
                    phase = "execution"
                    started = time.perf_counter()
                    mark = len(transcript.entries)
                    notes = {}
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
                               notes={**notes, "error": str(exc)[:200]})
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
              notes: dict | None = None) -> None:
        """Emit one :class:`~repro.obs.StageTrace` onto the query telemetry.

        Token traffic is attributed by transcript window: *mark* is the
        transcript length when the stage began, so every prompt/response
        recorded since then belongs to this span.
        """
        if not self.telemetry_config.enabled:
            return
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

    def _record_metrics(self, trace: PlanTrace, ok: bool) -> None:
        """Fold one finished query into the session metrics registry."""
        if self.metrics is None:
            return
        metrics = self.metrics
        metrics.increment("queries_total")
        metrics.increment("queries_ok" if ok else "queries_error")
        telemetry = trace.telemetry
        for name in ("plan_cache_hits", "plan_cache_misses",
                     "answer_cache_hits", "answer_cache_misses"):
            value = telemetry.counters.get(name)
            if value:
                metrics.increment(name, value)
        value = telemetry.counters.get("binding_memo_hits")
        if value:
            metrics.increment("binding_memo_hits_total", value)
        for reason in MEMO_MISS_REASONS:
            value = telemetry.counters.get(f"binding_memo_misses_{reason}")
            if value:
                metrics.increment(
                    f'binding_memo_misses_total{{reason="{reason}"}}', value)
        for engine in RELATIONAL_ENGINES:
            value = telemetry.counters.get(f"sql_engine_{engine}")
            if value:
                metrics.increment(f'sql_engine_total{{engine="{engine}"}}',
                                  value)
        value = telemetry.counters.get("colexec_declined")
        if value:
            metrics.increment("colexec_declined_total", value)
        if trace.replans:
            metrics.increment("replans_total", trace.replans)
        if telemetry.spans:
            metrics.increment("spans_total", len(telemetry.spans))
            metrics.increment("token_in_total", telemetry.token_in)
            metrics.increment("token_out_total", telemetry.token_out)
            metrics.increment("cost_usd_total", telemetry.cost_usd)
        for phase, seconds in trace.timings.items():
            metrics.observe(f"latency_{phase}", seconds)


class QueryEngine(Engine):
    """Deprecated pre-Session engine entry point.

    Construction emits one :class:`DeprecationWarning`; behaviour is
    identical to :class:`Engine` plus the historical :meth:`answer`
    spelling.  Use :class:`repro.session.Session` instead.
    """

    def __init__(self, lake: DataLake, model: LanguageModel | None = None,
                 config: EngineConfig | None = None, plan_cache=None,
                 answer_cache=None):
        warnings.warn(
            "QueryEngine is deprecated; use repro.session.Session "
            "(e.g. Session(lake).query(...))",
            DeprecationWarning, stacklevel=2)
        super().__init__(lake, model=model, config=config,
                         plan_cache=plan_cache, answer_cache=answer_cache)

    def answer(self, query: str) -> QueryResult:
        """Historical name of :meth:`Engine.query`."""
        return self.query(query)
