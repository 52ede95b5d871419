"""Parsers for LLM responses (planning, mapping, error analysis, discovery).

The output formats are specified inside the prompts
(:mod:`repro.core.prompts`); these parsers are intentionally forgiving about
whitespace but strict about structure — an unparseable response raises
:class:`repro.errors.PlanParseError`, which the error handler treats like
any other failure.
"""

from __future__ import annotations

import ast
import functools
import json
import re
import threading
from dataclasses import dataclass

from repro.core.plan import LogicalPlan, LogicalStep, decode_params
from repro.errors import PlanParseError

#: CPython 3.11's AST constructor keeps its recursion-depth accounting in
#: interpreter-wide state, so concurrent ``ast.parse`` calls from the
#: thread backend's workers can raise ``SystemError: AST constructor
#: recursion depth mismatch``.  Every in-repo ``ast.parse`` therefore
#: serializes on this one lock (the UDF sandbox shares it); the parses
#: are tiny, so contention is negligible.  Fixed upstream in 3.12.
AST_LOCK = threading.Lock()

_STEP_RE = re.compile(
    r"Step\s+(?P<index>\d+):\s*(?P<description>.*?)\s*"
    r"(?:\nInput:\s*(?P<inputs>\[.*?\])\s*"
    r"\nOutput:\s*(?P<output>\S+)\s*"
    r"\nNew Columns:\s*(?P<new_columns>\[.*?\])\s*"
    r"(?:\nParams:\s*(?P<params>\{[^\n]*\}))?)?\s*(?=\nStep\s+\d+:|\Z)",
    re.DOTALL)

_THOUGHT_RE = re.compile(r"Thought:\s*(.*?)(?=\nStep\s+\d+:|\Z)", re.DOTALL)

_COMPLETED_RE = re.compile(r"plan completed", re.IGNORECASE)

#: Distinct replies whose parse is kept (and shared: no caller changes a
#: plan); a reply bound to a plan-cache entry is read by every warm query.
PARSED_REPLIES = 1024


def _literal_list(text: str | None, what: str) -> list[str]:
    if text is None:
        return []
    try:
        with AST_LOCK:
            value = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise PlanParseError(f"cannot parse {what} list {text!r}") from exc
    if not isinstance(value, list):
        raise PlanParseError(f"{what} is not a list: {text!r}")
    return [str(v) for v in value]


def _parse_params(text: str | None) -> dict:
    """Parse an optional ``Params: {...}`` JSON payload of a plan step."""
    if text is None:
        return {}
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise PlanParseError(f"cannot parse Params payload {text!r}") from exc
    if not isinstance(value, dict):
        raise PlanParseError(f"Params payload is not an object: {text!r}")
    return decode_params(value)


@functools.lru_cache(maxsize=PARSED_REPLIES)
def parse_logical_plan(text: str) -> LogicalPlan:
    """Parse a Planning Phase response into a :class:`LogicalPlan`."""
    if not text or not text.strip():
        raise PlanParseError("empty planning response")
    thought_match = _THOUGHT_RE.search(text)
    thought = thought_match.group(1).strip() if thought_match else ""

    steps: list[LogicalStep] = []
    completed = False
    for match in _STEP_RE.finditer(text):
        description = match.group("description").strip()
        if _COMPLETED_RE.search(description):
            completed = True
            continue
        steps.append(LogicalStep(
            index=int(match.group("index")),
            description=description,
            inputs=_literal_list(match.group("inputs"), "Input"),
            output=(match.group("output") or "").strip(),
            new_columns=_literal_list(match.group("new_columns"),
                                      "New Columns"),
            params=_parse_params(match.group("params"))))
    if not steps:
        raise PlanParseError(
            f"planning response contains no steps: {text[:200]!r}")
    if not completed:
        raise PlanParseError(
            "planning response is missing the 'Plan completed.' terminator")
    return LogicalPlan(steps=steps, thought=thought)


@dataclass
class MappingDecision:
    """The parsed Mapping Phase response for one step."""

    operator: str
    arguments: list[str]
    reasoning: str = ""


_OPERATOR_RE = re.compile(r"Operator:\s*(?P<name>.+)")
_ARGUMENTS_RE = re.compile(r"Arguments:\s*\((?P<args>.*)\)\s*$",
                           re.DOTALL)
_REASONING_RE = re.compile(r"Reasoning:\s*(?P<text>.*?)(?=\nOperator:)",
                           re.DOTALL)


def parse_mapping_response(text: str) -> MappingDecision:
    """Parse a Mapping Phase response into operator + arguments.

    Memoised by reply text; each call returns its own decision.
    """
    decision = _parse_mapping(text)
    return MappingDecision(decision.operator, list(decision.arguments),
                           decision.reasoning)


@functools.lru_cache(maxsize=PARSED_REPLIES)
def _parse_mapping(text: str) -> MappingDecision:
    if not text or not text.strip():
        raise PlanParseError("empty mapping response")
    operator_match = _OPERATOR_RE.search(text)
    if operator_match is None:
        raise PlanParseError(
            f"mapping response has no 'Operator:' line: {text[:200]!r}")
    arguments_match = _ARGUMENTS_RE.search(text)
    if arguments_match is None:
        raise PlanParseError(
            f"mapping response has no 'Arguments: (...)' line: "
            f"{text[:200]!r}")
    reasoning_match = _REASONING_RE.search(text)
    arguments = [a.strip() for a in arguments_match.group("args").split(";")]
    if arguments == [""]:
        arguments = []
    return MappingDecision(
        operator=operator_match.group("name").strip(),
        arguments=arguments,
        reasoning=(reasoning_match.group("text").strip()
                   if reasoning_match else ""))


@dataclass
class ErrorAnalysis:
    """Parsed answers to the six error-handling questions (Section 3.2)."""

    causes: str
    fix: str
    flaw_in_plan: bool
    alternative_plan: bool
    different_tool: bool
    update_arguments: bool

    @property
    def backtrack_to_planning(self) -> bool:
        """Questions (3) + (4) decide whether to backtrack to planning."""
        return self.flaw_in_plan or self.alternative_plan


_ANSWER_RE = re.compile(r"Answer\s+(?P<number>\d+):\s*(?P<text>.*?)"
                        r"(?=\nAnswer\s+\d+:|\Z)", re.DOTALL)


def parse_error_analysis(text: str) -> ErrorAnalysis:
    """Parse the error-analysis response."""
    answers: dict[int, str] = {}
    for match in _ANSWER_RE.finditer(text or ""):
        answers[int(match.group("number"))] = match.group("text").strip()
    missing = [n for n in range(1, 7) if n not in answers]
    if missing:
        raise PlanParseError(
            f"error analysis is missing answers {missing}: {text[:200]!r}")

    def yes(number: int) -> bool:
        return answers[number].strip().lower().startswith("yes")

    return ErrorAnalysis(
        causes=answers[1], fix=answers[2],
        flaw_in_plan=yes(3), alternative_plan=yes(4),
        different_tool=yes(5), update_arguments=yes(6))


_RELEVANT_RE = re.compile(r"Relevant Columns:\s*(?P<list>\[.*?\])", re.DOTALL)


def parse_relevant_columns(text: str) -> list[tuple[str, str]]:
    """Parse the discovery response into ``(table, column)`` pairs.

    Memoised by reply text, like :func:`parse_mapping_response`.
    """
    return list(_parse_relevant(text))


@functools.lru_cache(maxsize=PARSED_REPLIES)
def _parse_relevant(text: str) -> tuple[tuple[str, str], ...]:
    match = _RELEVANT_RE.search(text or "")
    if match is None:
        raise PlanParseError(
            f"discovery response has no 'Relevant Columns:' line: "
            f"{text[:200]!r}")
    pairs = []
    for item in _literal_list(match.group("list"), "Relevant Columns"):
        if "." not in item:
            raise PlanParseError(
                f"relevant column {item!r} is not table.column")
        table, column = item.split(".", 1)
        pairs.append((table.strip(), column.strip()))
    return tuple(pairs)


# ----------------------------------------------------------------------
# Parsing of schema lines out of rendered prompts.
#
# The *simulated LLM* reads its own prompt with these helpers — the prompt
# text is the only channel between CAESURA and the model.
# ----------------------------------------------------------------------

_TABLE_LINE_RE = re.compile(
    r"-\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*table\("
    r"num_rows=(?P<rows>\d+),\s*columns=\[(?P<columns>.*?)\]"
    r"(?:,\s*description='(?P<description>.*?)')?"
    r"(?:,\s*foreign_keys=\[(?P<fks>.*?)\])?\)")

_COLUMN_PAIR_RE = re.compile(r"'(?P<name>[^']+)':\s*'(?P<dtype>[^']+)'")
_FK_RE = re.compile(r"'(?P<left_table>\w+)\.(?P<left_col>\w+)\s*=\s*"
                    r"(?P<right_table>\w+)\.(?P<right_col>\w+)'")


@dataclass
class PromptTable:
    """A table schema as recovered from prompt text."""

    name: str
    num_rows: int
    columns: list[tuple[str, str]]          # (name, dtype string)
    description: str = ""
    foreign_keys: list[tuple[str, str, str]] = None  # (col, table, col)

    def __post_init__(self) -> None:
        if self.foreign_keys is None:
            self.foreign_keys = []

    @property
    def column_names(self) -> list[str]:
        return [name for name, _ in self.columns]


def parse_prompt_tables(prompt_text: str) -> dict[str, PromptTable]:
    """Recover the table schemas serialized in a prompt."""
    tables: dict[str, PromptTable] = {}
    for match in _TABLE_LINE_RE.finditer(prompt_text):
        columns = [(m.group("name"), m.group("dtype"))
                   for m in _COLUMN_PAIR_RE.finditer(match.group("columns"))]
        foreign_keys = []
        if match.group("fks"):
            for fk_match in _FK_RE.finditer(match.group("fks")):
                foreign_keys.append((fk_match.group("left_col"),
                                     fk_match.group("right_table"),
                                     fk_match.group("right_col")))
        tables[match.group("name")] = PromptTable(
            name=match.group("name"),
            num_rows=int(match.group("rows")),
            columns=columns,
            description=match.group("description") or "",
            foreign_keys=foreign_keys)
    return tables


_REQUEST_RE = re.compile(r"My request (?:is|was):\s*(?P<query>.*?)\s*"
                         r"(?=\n|$)")


def parse_request(prompt_text: str) -> str:
    """Recover the user query from a rendered prompt."""
    match = _REQUEST_RE.search(prompt_text)
    if match is None:
        raise PlanParseError("prompt contains no 'My request is:' line")
    return match.group("query").strip()
