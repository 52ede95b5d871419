"""The mapping prompt is scoped to its step: the tables the step reads and
the operator cards those tables can feed, nothing else."""

from __future__ import annotations

import re

import pytest

from repro.core.parsing import parse_prompt_tables
from repro.core.plan import LogicalStep
from repro.core.prompts import ColumnHint, build_mapping_prompt, render_hints
from repro.data.datatypes import DataType
from repro.operators import all_cards
from repro.operators.base import ExecutionContext, OperatorCard
from repro.operators.sql_ops import SQLOperator

IMAGE_CARDS = {"Visual Question Answering", "Image Select"}
TEXT_CARDS = {"Text Question Answering"}
_OPERATOR_LIST_RE = re.compile(r"should be one of \[(?P<names>[^\]]*)\]")


@pytest.fixture(scope="module")
def context(rotowire_lake, artwork_lake):
    """Both lakes' tables plus one intermediate: an execution context in
    which every card has something to read."""
    tables = {name: lake.table(name)
              for lake in (rotowire_lake, artwork_lake)
              for name in lake.source_names}
    players = tables["players"]
    tables["tall_players"] = players.with_column(
        "is_tall", DataType.BOOLEAN,
        [height > 200 for height in players.column("height_cm")])
    return tables


def step(*inputs: str) -> LogicalStep:
    return LogicalStep(2, "Count the rows of the input table.", list(inputs),
                       "result_table", ["count"])


def shown_tables(messages) -> dict:
    return parse_prompt_tables(messages[0].content)


def shown_cards(messages) -> set[str]:
    return {card.name for card in all_cards()
            if card.prompt_repr() in messages[0].content}


def listed_operators(messages) -> list[str]:
    names = _OPERATOR_LIST_RE.search(messages[0].content).group("names")
    return names.split(", ")


def test_only_the_input_tables_are_shown_with_earlier_columns(context):
    messages = build_mapping_prompt(context, all_cards(),
                                    step("tall_players", "teams"), [],
                                    []).messages
    tables = shown_tables(messages)
    assert list(tables) == ["tall_players", "teams"]
    assert ("is_tall", "bool") in tables["tall_players"].columns
    assert tables["teams"].columns == [
        (spec.name, spec.dtype.value)
        for spec in context["teams"].schema.columns]


@pytest.mark.parametrize("inputs", [(), ("players", "no_such_table")],
                         ids=["empty", "unknown"])
def test_empty_or_unknown_inputs_show_the_full_context(context, inputs):
    messages = build_mapping_prompt(context, all_cards(), step(*inputs),
                                    [], []).messages
    assert list(shown_tables(messages)) == list(context)
    assert shown_cards(messages) == {card.name for card in all_cards()}


@pytest.mark.parametrize("inputs, kept, dropped", [
    (("painting_images",), IMAGE_CARDS, TEXT_CARDS),
    (("game_reports",), TEXT_CARDS, IMAGE_CARDS),
    (("players", "teams"), set(), IMAGE_CARDS | TEXT_CARDS),
    (("game_reports", "painting_images"), IMAGE_CARDS | TEXT_CARDS, set()),
])
def test_modality_cards_follow_the_input_dtypes(context, inputs, kept,
                                                dropped):
    messages = build_mapping_prompt(context, all_cards(), step(*inputs),
                                    [], []).messages
    cards = shown_cards(messages)
    assert kept <= cards
    assert not dropped & cards
    relational = {card.name for card in all_cards() if card.reads is None}
    assert relational <= cards


def test_a_card_that_reads_nothing_is_always_shown(context):
    custom = OperatorCard("Date Range", "Keep rows inside a date range.",
                          "(table; column; start; end)")
    assert custom.reads is None
    messages = build_mapping_prompt(context, [custom], step("teams"), [],
                                    []).messages
    assert shown_cards(messages) == set()
    assert custom.prompt_repr() in messages[0].content
    assert listed_operators(messages) == ["Date Range"]


@pytest.mark.parametrize("inputs", [("players",), ("painting_images",),
                                    ("game_reports",), ()])
def test_the_format_lists_exactly_the_cards_shown(context, inputs):
    messages = build_mapping_prompt(context, all_cards(), step(*inputs),
                                    [], []).messages
    listed = listed_operators(messages)
    assert set(listed) == shown_cards(messages)
    assert listed == [card.name for card in all_cards()
                      if card.name in listed]


def test_hints_observations_and_step_text_are_not_scoped(context):
    hints = [ColumnHint("painting_images", "image", ["<Image 64x64>"]),
             ColumnHint("players", "height_cm", [201, 198])]
    observations = ["Step 1 produced a table with 240 rows."]
    logical = step("teams")
    scoped = build_mapping_prompt(context, all_cards(), logical, hints,
                                  observations,
                                  error_feedback="boom").messages
    assert scoped[1].content == "\n\n".join([
        "Map the steps one by one.",
        render_hints(hints),
        f"Observation: {observations[0]}",
        "The previous attempt failed: boom\nChoose the operator and "
        "arguments again, avoiding this error.",
        logical.render()])
    # A table the step does not read never reaches the prompt, so the
    # prompt is the same however much else the context holds.
    alone = build_mapping_prompt({"teams": context["teams"]}, all_cards(),
                                 logical, hints, observations,
                                 error_feedback="boom").messages
    assert [m.content for m in alone] == [m.content for m in scoped]


def test_text_examples_are_quoted_once(rotowire_lake, artwork_lake):
    reports = rotowire_lake.table("game_reports")
    documents = reports.sample_values("report")
    assert documents[0] == reports.column("report")[0]
    hint = ColumnHint("game_reports", "report", documents).render()
    assert f"[{documents[0]!r}, " in hint
    assert "\"'" not in hint
    context = ExecutionContext(tables={"game_reports": reports})
    observation = SQLOperator().run(
        context, ["SELECT report FROM game_reports"]).observation
    assert f"'report': [{documents[0]!r}, " in observation
    # An image is not a string: its repr is what the prompt shows.
    images = artwork_lake.table("painting_images").sample_values("image")
    assert images[0] == "<Image 64x64 img/1.png>"
    assert "['<Image 64x64 img/1.png>', " in ColumnHint(
        "painting_images", "image", images).render()
