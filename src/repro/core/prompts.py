"""Prompt construction for every phase (Figure 3 of the paper).

Each prompt contains all the information the model needs: (1) a description
of the data, (2) the capabilities / available operators, (3) an output
format description, and (4) the user query / current instruction.  The
planning prompt additionally carries few-shot example translations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.data.catalog import DataLake
from repro.data.table import Table
from repro.llm.interface import ChatMessage, human, system
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


@dataclass
class ColumnHint:
    """A relevant column identified during discovery, with example values."""

    table: str
    column: str
    examples: list[object] = field(default_factory=list)

    def render(self) -> str:
        text = (f"- The '{self.column}' column of the '{self.table}' table "
                "might be relevant.")
        if self.examples:
            rendered = ", ".join(repr(e) for e in self.examples)
            text += (" These are some relevant values for the column: "
                     f"[{rendered}]")
        return text


def render_hints(hints: list[ColumnHint]) -> str:
    if not hints:
        return ""
    return ("These columns are potentially relevant:\n"
            + "\n".join(h.render() for h in hints))


def prompt_digest(messages: list[ChatMessage]) -> str:
    """Digest of one rendered chat prompt (roles and contents, in order).

    Two prompts digest equally iff the model would be sent the same
    text; the plan cache's bound replies (:class:`repro.core.plan.
    BoundReply`) are reused on exactly that condition.
    """
    digest = hashlib.sha256()
    for message in messages:
        digest.update(message.role.value.encode("ascii"))
        digest.update(b"\0")
        digest.update(message.content.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()[:32]


def build_planning_prompt(lake: DataLake, query: str,
                          hints: list[ColumnHint],
                          few_shot: bool = True,
                          error_feedback: str = "") -> list[ChatMessage]:
    """The Planning Phase prompt (Figure 3, left).

    *error_feedback* carries the failure that triggered a replan, so the
    model can avoid repeating the flawed plan (Section 3.2 backtracking).
    """
    sections = []
    if few_shot:
        sections.append(FEW_SHOT_EXAMPLES)
    sections.append(f"You are CAESURA and {PLANNING_MARKER}:")
    sections.append("The database contains the following tables:\n"
                    + lake.prompt_repr())
    sections.append(CAPABILITIES_TEXT)
    sections.append(PLANNING_FORMAT)
    body = f"My request is: {query}"
    hint_text = render_hints(hints)
    if hint_text:
        body += "\n" + hint_text
    if error_feedback:
        body += (f"\nA previous plan failed with this error: "
                 f"{error_feedback}\nProduce a plan that avoids it.")
    return [system("\n\n".join(sections)), human(body)]


def context_prompt_repr(tables: dict[str, Table]) -> str:
    """Schema lines for the *current execution context* tables."""
    return "\n".join(
        f" - {table.schema.prompt_repr(name, table.num_rows)}"
        for name, table in tables.items())


def build_mapping_prompt(tables: dict[str, Table], cards: list[OperatorCard],
                         step_text: str, hints: list[ColumnHint],
                         observations: list[str],
                         error_feedback: str = "") -> list[ChatMessage]:
    """The Mapping Phase prompt (Figure 3, right) for *one* logical step.

    *tables* is the current execution context, so the model sees every
    intermediate table (and the columns added by previous operators) —
    this is what interleaved execution buys us.
    """
    sections = [f"You are CAESURA, and {MAPPING_MARKER}:"]
    sections.append("The database contains the following tables:\n"
                    + context_prompt_repr(tables))
    operator_list = "\n".join(f"{card.prompt_repr()}" for card in cards)
    sections.append("You can use the following operators:\n" + operator_list)
    sections.append(MAPPING_FORMAT.format(
        operator_names=", ".join(card.name for card in cards)))

    body_parts = ["Map the steps one by one."]
    hint_text = render_hints(hints)
    if hint_text:
        body_parts.append(hint_text)
    for observation in observations:
        body_parts.append(f"Observation: {observation}")
    if error_feedback:
        body_parts.append(f"The previous attempt failed: {error_feedback}\n"
                          "Choose the operator and arguments again, avoiding "
                          "this error.")
    body_parts.append(step_text)
    return [system("\n\n".join(sections)), human("\n\n".join(body_parts))]


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


def build_error_prompt(query: str, plan_text: str, step_text: str,
                       error_message: str) -> list[ChatMessage]:
    """The error-handling prompt (Section 3.2)."""
    sections = [f"You are CAESURA, and {ERROR_MARKER}.",
                ERROR_QUESTIONS]
    body = (f"My request was: {query}\n\n"
            f"The plan was:\n{plan_text}\n\n"
            f"While executing:\n{step_text}\n\n"
            f"This error occurred: {error_message}")
    return [system("\n\n".join(sections)), human(body)]


def build_discovery_prompt(lake: DataLake, query: str) -> list[ChatMessage]:
    """Prompt asking the model which columns are relevant to the query."""
    sections = [f"You are CAESURA, and {DISCOVERY_MARKER} to a user request.",
                "The database contains the following tables:\n"
                + lake.prompt_repr(),
                "Use the following output format:\n"
                "Relevant Columns: ['table.column', ...]"]
    return [system("\n\n".join(sections)),
            human(f"My request is: {query}\nWhich columns are relevant?")]
