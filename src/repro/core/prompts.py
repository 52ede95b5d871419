"""Prompt construction for every phase (Figure 3 of the paper).

Each prompt contains all the information the model needs: (1) a description
of the data, (2) the capabilities / available operators, (3) an output
format description, and (4) the user query / current instruction.  The
planning prompt additionally carries few-shot example translations.

Every builder returns a :class:`~repro.llm.interface.Prompt` of named
sections — ``role``, ``tables``, ``cards``, ``format`` in the system
message; ``task``, ``hints``, ``observations``, ``error`` and ``step``
in the human one (the planning prompt adds ``examples``).  A section's
digest is memoised on the object it comes from: a source table's
schema digest and the schema block on the lake (per
:attr:`~repro.data.catalog.DataLake.version`), the card block per card
tuple, a hint per lake column, the static texts at import; an
intermediate table's schema digest, which no later query could read,
is worked out per prompt from its schema.  So a warm
query identifies each prompt by digest and renders no text; the text
is built only for the model or the transcript.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from repro.core.plan import LogicalStep
from repro.data.catalog import DataLake
from repro.data.table import Table
from repro.llm.interface import Prompt, Section, combine_digests, text_digest
from repro.operators.base import OperatorCard

PLANNING_MARKER = "you generate plans to retrieve data from databases"
MAPPING_MARKER = "you map steps in an informal query plan to concrete operators"
ERROR_MARKER = "you analyze errors that occurred while executing a query plan"
DISCOVERY_MARKER = "you identify which columns are relevant"

CAPABILITIES_TEXT = """\
You have the following capabilities:
You are able to look at images (columns of type IMAGE). For example, you are able to do things like:
 - Recognize the objects depicted in images and count them.
 - Decide whether something is depicted in an image (answered with 'yes' or 'no').
 - Select only the rows whose image matches a description.
You are able to read text documents (columns of type TEXT). For example, you are able to do things like:
 - Extract numbers or facts stated in the text (e.g. how many points a team scored).
 - Decide questions that the text answers (e.g. whether a team won).
You are able to run relational operations on tables:
 - Join tables on key columns, select rows by a condition, group and aggregate (count, sum, avg, min, max), sort and limit.
You are able to transform relational columns with generated Python code (e.g. extract the century from a date string).
You are able to plot a result table (bar, line, scatter or hist)."""

PLANNING_FORMAT = """\
Use the following format:
Request: The user request you must satisfy by using your capabilities
Thought: You should always think what to do.
Step 1: Description of the step.
Input: List of tables passed as input.
Output: Name of the output table.
New Columns: The new columns that have been added to the dataset.
... (this can repeat N times)
Step N: Plan completed."""

MAPPING_FORMAT = """\
Use the following output format:
Step <i>: What to do in this step?
Reasoning: Reason about which operator should be used for this step. Take datatypes into account.
Operator: The operator to use, should be one of [{operator_names}]
Arguments: The arguments to call the operator, separated by ';'. Should be (arg_1; ...; arg_n)"""

FEW_SHOT_EXAMPLES = """\
Here are example translations from request to plan:

Example request (museum domain): How many paintings depict a boat?
Thought: I need to look at the images, so I join the metadata with the images, decide for each image whether a boat is depicted, keep only those, and count them.
Step 1: Join the 'paintings_metadata' and the 'painting_images' tables on the 'img_path' column.
Input: ['paintings_metadata', 'painting_images']
Output: joined_table
New Columns: []
Step 2: Extract whether a boat is depicted from the 'image' column in the 'joined_table' table.
Input: ['joined_table']
Output: depicted_table
New Columns: ['boat_depicted']
Step 3: Select only the rows of the 'depicted_table' table where the 'boat_depicted' column equals 'yes'.
Input: ['depicted_table']
Output: selected_table
New Columns: []
Step 4: Count the number of rows of the 'selected_table' table.
Input: ['selected_table']
Output: result_table
New Columns: ['count']
Step 5: Plan completed.

Example request (sports domain): Plot the average number of points scored by each team.
Thought: The points are stated in the game reports, so I join teams with their games and the reports, extract the points, aggregate, and plot.
Step 1: Join the 'teams' and the 'teams_to_games' tables on the 'name' column.
Input: ['teams', 'teams_to_games']
Output: joined_team_table
New Columns: []
Step 2: Join the 'joined_team_table' and the 'game_reports' tables on the 'game_id' column.
Input: ['joined_team_table', 'game_reports']
Output: final_joined_table
New Columns: []
Step 3: Extract the number of points scored by each team from the 'report' column in the 'final_joined_table' table.
Input: ['final_joined_table']
Output: extracted_table
New Columns: ['points_scored']
Step 4: Group the 'extracted_table' table by 'name' and compute the avg of 'points_scored'.
Input: ['extracted_table']
Output: result_table
New Columns: ['avg_points_scored']
Step 5: Plot the 'result_table' table in a bar plot. The 'name' should be on the X-axis and the 'avg_points_scored' on the Y-axis.
Input: ['result_table']
Output: plot
New Columns: []
Step 6: Plan completed."""


@dataclass(frozen=True)
class ColumnHint:
    """A relevant column identified during discovery, with example values."""

    table: str
    column: str
    examples: Sequence[object] = ()

    def render(self) -> str:
        text = (f"- The '{self.column}' column of the '{self.table}' table "
                "might be relevant.")
        if self.examples:
            rendered = ", ".join(repr(e) for e in self.examples)
            text += (" These are some relevant values for the column: "
                     f"[{rendered}]")
        return text

    @functools.cached_property
    def digest(self) -> str:
        """Digest of :meth:`render`, taken once per hint: discovery keeps
        one hint per lake column (:func:`column_hint`)."""
        return text_digest(self.render())


def column_hint(lake: DataLake, table_name: str, column: str) -> ColumnHint:
    """The hint for one lake column, with example values from the lake,
    memoised on the table so a warm query neither samples nor renders."""
    table = lake.table(table_name)
    return table.memo.get("hint", (table_name, column), lambda: ColumnHint(
        table_name, column, table.sample_values(column)))


def render_hints(hints: Sequence[ColumnHint]) -> str:
    if not hints:
        return ""
    return ("These columns are potentially relevant:\n"
            + "\n".join(h.render() for h in hints))


TABLES_HEADER = "The database contains the following tables:\n"

# The static sections, digested once at import.
_PLANNING_EXAMPLES = Section.of("examples", FEW_SHOT_EXAMPLES)
_PLANNING_ROLE = Section.of("role", f"You are CAESURA and {PLANNING_MARKER}:")
_CAPABILITIES = Section.of("cards", CAPABILITIES_TEXT)
_PLANNING_FORMAT = Section.of("format", PLANNING_FORMAT)
_MAPPING_ROLE = Section.of("role", f"You are CAESURA, and {MAPPING_MARKER}:")
_MAPPING_TASK = Section.of("task", "Map the steps one by one.")
_DISCOVERY_ROLE = Section.of(
    "role", f"You are CAESURA, and {DISCOVERY_MARKER} to a user request.")
_DISCOVERY_FORMAT = Section.of(
    "format", "Use the following output format:\n"
              "Relevant Columns: ['table.column', ...]")


def _lake_tables_section(lake: DataLake) -> Section:
    """Every source's schema line, built once per
    :attr:`DataLake.version` and digested the way a mapping prompt
    digests the tables it shows, so equal tables sections digest equally
    in every prompt."""
    return lake.memo.get("tables_section", (), lambda: Section(
        "tables",
        combine_digests([lake.prompt_digest(name)
                         for name in lake.sources]),
        TABLES_HEADER + lake.prompt_repr()))


_NO_HINTS = Section.of("hints", "")
_NO_OBSERVATIONS = Section.of("observations", "")
_NO_ERROR = Section.of("error", "")


def _hints_section(hints: Sequence[ColumnHint]) -> Section:
    if not hints:
        return _NO_HINTS
    hints = tuple(hints)
    return Section("hints", combine_digests([hint.digest for hint in hints]),
                   lambda: render_hints(hints))


def build_planning_prompt(lake: DataLake, query: str,
                          hints: Sequence[ColumnHint],
                          error_feedback: str = "") -> Prompt:
    """The Planning Phase prompt (Figure 3, left), few-shot examples first.

    *error_feedback* carries the failure that triggered a replan, so the
    model can avoid repeating the flawed plan (Section 3.2 backtracking).
    """
    error = (Section.of("error", "A previous plan failed with this error: "
                        f"{error_feedback}\nProduce a plan that avoids it.")
             if error_feedback else _NO_ERROR)
    return Prompt(
        [_PLANNING_EXAMPLES, _PLANNING_ROLE, _lake_tables_section(lake),
         _CAPABILITIES, _PLANNING_FORMAT],
        [Section.of("step", f"My request is: {query}"), _hints_section(hints),
         error],
        human_separator="\n")


def context_prompt_repr(tables: dict[str, Table]) -> str:
    """Schema lines for the *current execution context* tables."""
    return "\n".join(f" - {table.prompt_line(name)}"
                     for name, table in tables.items())


def step_tables(tables: dict[str, Table],
                step: LogicalStep) -> dict[str, Table]:
    """The context tables *step* reads: its ``Input:`` tables, in that
    order, or the whole context when ``inputs`` is empty or names a
    table the context does not hold."""
    if not step.inputs or any(name not in tables for name in step.inputs):
        return tables
    return {name: tables[name] for name in step.inputs}


def usable_cards(cards: Sequence[OperatorCard],
                 tables: dict[str, Table]) -> list[OperatorCard]:
    """The *cards* some column of *tables* can feed: a card that
    ``reads`` a datatype needs a column of it, one with ``reads=None``
    is always kept."""
    dtypes = {spec.dtype for table in tables.values()
              for spec in table.schema.columns}
    return [card for card in cards
            if card.reads is None or card.reads in dtypes]


@functools.lru_cache(maxsize=64)
def _card_sections(cards: tuple[OperatorCard, ...]) -> tuple[Section,
                                                              Section]:
    """The operator list and the output format naming it, built and
    digested once per card tuple."""
    operator_list = "\n".join(card.prompt_repr() for card in cards)
    return (Section.of("cards", "You can use the following operators:\n"
                       + operator_list),
            Section.of("format", MAPPING_FORMAT.format(
                operator_names=", ".join(card.name for card in cards))))


def _context_tables_section(tables: dict[str, Table],
                            lake: DataLake | None) -> Section:
    """The shown tables, digested from each table's
    :meth:`~repro.data.table.Table.prompt_digest` without rendering its
    schema line: a source of *lake* reads the digest the lake memoises,
    an intermediate table (which dies with its query) works it out.  The
    tables are copied: the execution context binds more after this
    prompt."""
    tables = dict(tables)
    sources = lake.sources if lake is not None else {}
    digest = combine_digests([
        lake.prompt_digest(name)  # type: ignore[union-attr]
        if name in sources and sources[name].table is table
        else table.prompt_digest(name)
        for name, table in tables.items()])
    return Section("tables", digest,
                   lambda: TABLES_HEADER + context_prompt_repr(tables))


def _observations_section(observations: Sequence[str]) -> Section:
    if not observations:
        return _NO_OBSERVATIONS
    observations = tuple(observations)
    return Section(
        "observations",
        combine_digests([text_digest(text) for text in observations]),
        lambda: "\n\n".join(f"Observation: {text}"
                             for text in observations))


def build_mapping_prompt(tables: dict[str, Table],
                         cards: Sequence[OperatorCard],
                         step: LogicalStep, hints: Sequence[ColumnHint],
                         observations: Sequence[str],
                         error_feedback: str = "",
                         lake: DataLake | None = None) -> Prompt:
    """The Mapping Phase prompt (Figure 3, right) for *one* logical step.

    *tables* is the current execution context, so an input that an
    earlier step produced shows the columns its operator added — this is
    what interleaved execution buys us.

    Unlike the paper's Figure 3 prompt, which lists every table and every
    operator, this prompt is scoped to the step: it shows only the
    tables the step names as inputs (:func:`step_tables`) and only the
    operator cards those tables can feed (:func:`usable_cards`), and the
    output format's operator list names exactly those cards.  Hints,
    observations and error feedback are not scoped.  A shown table that
    is a source of *lake*, the lake the context was opened on, takes
    its digest from the lake's memo.

    The step, the observations, intermediate tables and the error are
    digested as they are; every other section's digest is memoised.
    """
    tables = step_tables(tables, step)
    card_block, output_format = _card_sections(
        tuple(usable_cards(cards, tables)))
    error = (Section.of("error", f"The previous attempt failed: "
                        f"{error_feedback}\nChoose the operator and "
                        "arguments again, avoiding this error.")
             if error_feedback else _NO_ERROR)
    return Prompt(
        [_MAPPING_ROLE, _context_tables_section(tables, lake), card_block,
         output_format],
        [_MAPPING_TASK, _hints_section(hints),
         _observations_section(observations), error,
         Section.of("step", step.render())])


ERROR_QUESTIONS = """\
Answer the following questions about the error:
(1) What are the potential causes of this error?
(2) Explain in detail how this error could be fixed.
(3) Is there a flaw in my plan (Yes/No)?
(4) Is there a more suitable alternative plan (Yes/No)?
(5) Should a different tool be selected for any step (Yes/No)?
(6) Do the input arguments of some of the steps need to be updated (Yes/No)?

Use the following output format:
Answer 1: ...
Answer 2: ...
Answer 3: Yes/No
Answer 4: Yes/No
Answer 5: Yes/No
Answer 6: Yes/No"""

_ERROR_ROLE = Section.of("role", f"You are CAESURA, and {ERROR_MARKER}.")
_ERROR_FORMAT = Section.of("format", ERROR_QUESTIONS)


def build_error_prompt(query: str, plan_text: str, step_text: str,
                       error_message: str) -> Prompt:
    """The error-handling prompt (Section 3.2)."""
    body = (f"My request was: {query}\n\n"
            f"The plan was:\n{plan_text}\n\n"
            f"While executing:\n{step_text}\n\n"
            f"This error occurred: {error_message}")
    return Prompt([_ERROR_ROLE, _ERROR_FORMAT], [Section.of("step", body)])


def build_discovery_prompt(lake: DataLake, query: str) -> Prompt:
    """Prompt asking the model which columns are relevant to the query."""
    return Prompt(
        [_DISCOVERY_ROLE, _lake_tables_section(lake), _DISCOVERY_FORMAT],
        [Section.of("step",
                    f"My request is: {query}\nWhich columns are relevant?")])
