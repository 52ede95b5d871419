"""Unit tests for the plan synthesizer and the simulated LLM."""

import pytest

from repro.core.parsing import (parse_logical_plan, parse_mapping_response,
                                parse_prompt_tables, parse_relevant_columns)
from repro.core.plan import LogicalStep
from repro.core.prompts import (build_discovery_prompt, build_mapping_prompt,
                                build_planning_prompt)
from repro.errors import LLMError
from repro.llm.brain import SimulatedBrain, map_step, synthesize_plan
from repro.llm.nl import parse_query
from repro.operators import all_cards


def _tables(lake):
    return parse_prompt_tables(lake.prompt_repr())


def test_synthesize_count_with_filter(rotowire_lake):
    tables = _tables(rotowire_lake)
    intent = parse_query("How many players are taller than 200?", tables)
    plan = synthesize_plan(intent, tables)
    descriptions = [step.description for step in plan]
    assert "height_cm" in descriptions[0]
    assert "Count the number of rows" in descriptions[1]


def test_synthesize_joins_to_reach_text(rotowire_lake):
    tables = _tables(rotowire_lake)
    intent = parse_query("How many games did the Heat win?", tables)
    plan = synthesize_plan(intent, tables)
    joined = [s for s in plan if s.description.startswith("Join")]
    # teams → teams_to_games → game_reports needs two joins.
    assert len(joined) == 2


def test_synthesize_unparseable_query_raises(rotowire_lake):
    tables = _tables(rotowire_lake)
    with pytest.raises(LLMError):
        parse_query("please levitate the stadium", tables)


def test_map_step_join_emits_sql_using():
    decision = map_step("Join the 'teams' and 'teams_to_games' tables on "
                        "the 'name' column.")
    assert decision.operator == "SQL"
    assert 'JOIN "teams_to_games" USING ("name")' in decision.arguments[0]


def test_map_step_select_quotes_string_values():
    decision = map_step("Select only the rows of the 't' table where the "
                        "'movement' column equals 'Art''s Best'.")
    assert decision.arguments == \
        ["SELECT * FROM \"t\" WHERE \"movement\" = 'Art''s Best'"]


def test_map_step_vqa_question():
    decision = map_step("Extract the number of swords depicted in the "
                        "'image' column of the 't' table into the "
                        "'num_sword' column.")
    assert decision.operator == "Visual Question Answering"
    assert decision.arguments[3] == "How many swords are depicted?"
    assert decision.arguments[4] == "int"


def test_map_step_unknown_description_raises():
    with pytest.raises(LLMError):
        map_step("Sing a song about the 'teams' table.")


def test_brain_planning_response_parses(artwork_lake):
    brain = SimulatedBrain()
    messages = build_planning_prompt(
        artwork_lake, "For each movement, how many paintings are there?",
        []).messages
    plan = parse_logical_plan(brain.complete(messages))
    assert len(plan) >= 1
    assert plan.thought


def test_brain_mapping_response_parses(rotowire_lake):
    brain = SimulatedBrain()
    step = LogicalStep(1, "Count the number of rows of the 'teams' table "
                          "into the 'count' column.", ["teams"],
                       "result_table", ["count"])
    messages = build_mapping_prompt(
        {"teams": rotowire_lake.table("teams")}, all_cards(), step, [],
        []).messages
    decision = parse_mapping_response(brain.complete(messages))
    assert decision.operator == "SQL"
    assert "COUNT(*)" in decision.arguments[0]


def test_brain_discovery_names_real_columns(rotowire_lake):
    brain = SimulatedBrain()
    messages = build_discovery_prompt(
        rotowire_lake, "How many players are taller than 200?").messages
    pairs = parse_relevant_columns(brain.complete(messages))
    assert ("players", "height_cm") in pairs
