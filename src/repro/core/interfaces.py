"""Pluggable engine parts: the Planner / Mapper / Executor protocols.

The CAESURA loop (:class:`repro.core.engine.Engine`) is a thin driver over
three swappable roles:

- a :class:`Planner` proposes relevant columns, logical plans, and error
  verdicts (backtrack vs. retry);
- a :class:`Mapper` binds one logical step to a physical operator and its
  arguments, given the tables produced so far and prior observations;
- an :class:`Executor` resolves that decision against an operator registry
  and runs it over the shared execution context.

The default implementations — :class:`PromptPlanner`, :class:`PromptMapper`,
:class:`RegistryExecutor` — reproduce the paper's setup: planner and mapper
talk to a :class:`~repro.llm.interface.LanguageModel` exclusively through
rendered chat prompts (the same contract as a remote GPT-4 endpoint), and
the executor dispatches over :data:`repro.operators.base.DEFAULT_REGISTRY`.
Any of the three can be replaced independently: a learned mapper, a process
-pool executor, or a planner that replays serialized plans all compose with
the same driver.

Every method takes the per-query :class:`~repro.llm.interface.Transcript`
explicitly, so implementations stay stateless and thread-safe — the batch
layer shares one planner/mapper/executor triple across worker engines.

**Reusable replies.**  The prompt-driven roles split "ask the model" from
"build the prompt" and "read the reply": :meth:`PromptPlanner.
discovery_prompt` / :meth:`PromptPlanner.read_discovery` and
:meth:`PromptMapper.mapping_prompt` / :meth:`PromptMapper.read_mapping`.
A role that exposes such a pair promises its answer is a function of
that prompt, and the engine may then skip ``discover`` / ``map_step``
when the plan cache already holds the reply to the identical prompt
(:class:`~repro.core.plan.BoundPlan`).  The pairs are optional — a custom
role without them is simply asked every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.parsing import (ErrorAnalysis, MappingDecision,
                                parse_error_analysis, parse_logical_plan,
                                parse_mapping_response,
                                parse_relevant_columns)
from repro.core.plan import LogicalPlan, LogicalStep
from repro.core.prompts import (ColumnHint, build_discovery_prompt,
                                build_error_prompt, build_mapping_prompt,
                                build_planning_prompt)
from repro.data.catalog import DataLake
from repro.data.table import Table
from repro.errors import ReproError
from repro.llm.interface import ChatMessage, LanguageModel, Transcript
from repro.operators.base import (DEFAULT_REGISTRY, ExecutionContext,
                                  OperatorCard, OperatorRegistry,
                                  OperatorResult)


@dataclass
class StepExecution:
    """Outcome of executing one mapping decision."""

    operator: str               # resolved operator name (registry spelling)
    result: OperatorResult


@runtime_checkable
class Planner(Protocol):
    """Produces logical plans (and plan-level judgements) for a query."""

    def discover(self, lake: DataLake, query: str,
                 transcript: Transcript) -> list[ColumnHint]:
        """Relevant columns with example values (Discovery Phase)."""
        ...

    def plan(self, lake: DataLake, query: str, hints: list[ColumnHint],
             transcript: Transcript, *, few_shot: bool = True,
             error_feedback: str = "") -> LogicalPlan:
        """A logical plan for *query* (Planning Phase)."""
        ...

    def analyze_error(self, query: str, plan: LogicalPlan,
                      step: LogicalStep, error: Exception,
                      transcript: Transcript) -> ErrorAnalysis | None:
        """Retry-vs-backtrack verdict for a failed step (``None``: retry)."""
        ...


@runtime_checkable
class Mapper(Protocol):
    """Binds one logical step to a physical operator + arguments."""

    def map_step(self, tables: dict[str, Table],
                 cards: list[OperatorCard], step: LogicalStep,
                 hints: list[ColumnHint], observations: list[str],
                 transcript: Transcript,
                 error_feedback: str = "") -> MappingDecision:
        """The Mapping Phase decision for *step*."""
        ...


@runtime_checkable
class Executor(Protocol):
    """Runs mapping decisions against a physical operator set."""

    def cards(self) -> list[OperatorCard]:
        """Operator cards advertised to the mapper's prompt."""
        ...

    def execute(self, decision: MappingDecision,
                context: ExecutionContext) -> StepExecution:
        """Resolve and run *decision* over *context*."""
        ...


class PromptPlanner:
    """Planner that drives a :class:`LanguageModel` through chat prompts."""

    def __init__(self, model: LanguageModel):
        self.model = model

    def discovery_prompt(self, lake: DataLake,
                         query: str) -> list[ChatMessage]:
        """The exact prompt :meth:`discover` sends for *query*."""
        return build_discovery_prompt(lake, query)

    def discover(self, lake: DataLake, query: str,
                 transcript: Transcript) -> list[ColumnHint]:
        messages = self.discovery_prompt(lake, query)
        response = self.model.complete(messages)
        transcript.record("discovery", messages, response)
        return self.read_discovery(lake, response)

    def read_discovery(self, lake: DataLake,
                       response: str) -> list[ColumnHint]:
        """Hints from a discovery reply; example values come from the
        live *lake*, so a reused reply still shows this lake's content."""
        hints: list[ColumnHint] = []
        for table_name, column in parse_relevant_columns(response):
            if table_name not in lake:
                continue
            table = lake.table(table_name)
            if column not in table.column_names:
                continue
            hints.append(ColumnHint(table_name, column,
                                    table.sample_values(column)))
        return hints

    def plan(self, lake: DataLake, query: str, hints: list[ColumnHint],
             transcript: Transcript, *, few_shot: bool = True,
             error_feedback: str = "") -> LogicalPlan:
        messages = build_planning_prompt(lake, query, hints,
                                         few_shot=few_shot,
                                         error_feedback=error_feedback)
        response = self.model.complete(messages)
        transcript.record("planning", messages, response)
        return parse_logical_plan(response)

    def analyze_error(self, query: str, plan: LogicalPlan,
                      step: LogicalStep, error: Exception,
                      transcript: Transcript) -> ErrorAnalysis | None:
        try:
            messages = build_error_prompt(query, plan.render(), step.render(),
                                          str(error))
            response = self.model.complete(messages)
            transcript.record(f"error:{step.index}", messages, response)
            return parse_error_analysis(response)
        except ReproError:
            return None


class PromptMapper:
    """Mapper that drives a :class:`LanguageModel` through chat prompts."""

    def __init__(self, model: LanguageModel):
        self.model = model

    def mapping_prompt(self, tables: dict[str, Table],
                       cards: list[OperatorCard], step: LogicalStep,
                       hints: list[ColumnHint], observations: list[str],
                       error_feedback: str = "") -> list[ChatMessage]:
        """The exact prompt :meth:`map_step` sends for these inputs."""
        return build_mapping_prompt(tables, cards, step.render(), hints,
                                    observations,
                                    error_feedback=error_feedback)

    def map_step(self, tables: dict[str, Table],
                 cards: list[OperatorCard], step: LogicalStep,
                 hints: list[ColumnHint], observations: list[str],
                 transcript: Transcript,
                 error_feedback: str = "") -> MappingDecision:
        messages = self.mapping_prompt(tables, cards, step, hints,
                                       observations, error_feedback)
        response = self.model.complete(messages)
        transcript.record(f"mapping:{step.index}", messages, response)
        return self.read_mapping(response)

    def read_mapping(self, response: str) -> MappingDecision:
        """The mapping decision a reply encodes."""
        return parse_mapping_response(response)


class RegistryExecutor:
    """Executor dispatching over an :class:`OperatorRegistry`."""

    def __init__(self, registry: OperatorRegistry | None = None):
        self.registry = registry if registry is not None else DEFAULT_REGISTRY

    def cards(self) -> list[OperatorCard]:
        return self.registry.cards()

    def execute(self, decision: MappingDecision,
                context: ExecutionContext) -> StepExecution:
        operator = self.registry.build(decision.operator)
        result = operator.run(context, decision.arguments)
        return StepExecution(operator=operator.name, result=result)
