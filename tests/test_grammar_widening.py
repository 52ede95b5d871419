"""The widened NL grammar: cross-table joins, multi-measure aggregates,
and typed date-range filters — answers checked against dataset ground
truth, plus the corner cases (missing join key with bounded-replanning
recovery, single-measure degeneracy, open-ended date ranges).
"""

from datetime import date

import pytest
from _poison import poisoned_entry

from repro import Session
from repro.core.batch import PlanCache
from repro.core.parsing import PromptTable, parse_prompt_tables
from repro.core.plan import LogicalPlan, LogicalStep
from repro.datasets.rotowire import TEAMS, game_date
from repro.llm.brain import map_step, synthesize_plan
from repro.llm.nl import parse_query
from repro.operators import ExecutionContext, JoinOperator
from repro.errors import OperatorError


def _founded():
    return {row[0]: row[4] for row in TEAMS}


def _team_of(dataset):
    return dict(zip(dataset.players.column("name"),
                    dataset.players.column("team")))


# ----------------------------------------------------------------------
# Joins (players ⋈ teams on the cross-column key team = name)
# ----------------------------------------------------------------------


def test_join_average_height_by_conference(rotowire_dataset, rotowire_lake):
    result = Session(rotowire_lake).query(
        "What is the average height of players in the Eastern conference?")
    assert result.ok, result.error
    conference = {row[0]: row[2] for row in TEAMS}
    team_of = _team_of(rotowire_dataset)
    heights = [h for n, h in zip(rotowire_dataset.players.column("name"),
                                 rotowire_dataset.players.column("height_cm"))
               if conference[team_of[n]] == "Eastern"]
    assert result.value == pytest.approx(sum(heights) / len(heights))
    # The plan really joins on the cross-column key.
    joins = [s for s in result.trace.physical_steps
             if s.operator == "Join"]
    assert joins and joins[0].arguments[2:] == ["team", "name"]


def test_join_count_players_by_division(rotowire_dataset, rotowire_lake):
    result = Session(rotowire_lake).query(
        "How many players play for teams in the Atlantic division?")
    assert result.ok, result.error
    division = {row[0]: row[3] for row in TEAMS}
    team_of = _team_of(rotowire_dataset)
    expected = sum(1 for team in team_of.values()
                   if division[team] == "Atlantic")
    assert result.value == expected


def test_join_plot_players_per_division(rotowire_dataset, rotowire_lake):
    result = Session(rotowire_lake).query(
        "Plot the number of players for each division.")
    assert result.ok, result.error
    assert result.kind == "plot"
    assert sum(result.plot.y_values) == rotowire_dataset.players.num_rows


def test_join_reaches_text_through_subject_side(rotowire_dataset,
                                                rotowire_lake):
    """players ⋈ teams ⋈ players_to_games ⋈ game_reports + founded filter."""
    result = Session(rotowire_lake).query(
        "What is the average number of points scored by players on teams "
        "founded before 1970?")
    assert result.ok, result.error
    founded = _founded()
    team_of = _team_of(rotowire_dataset)
    points = [pts for (player, _gid), (pts, _reb, _ast)
              in rotowire_dataset.player_stats.items()
              if founded[team_of[player]] < 1970]
    assert result.value == pytest.approx(sum(points) / len(points))
    descriptions = [s.description
                    for s in result.trace.logical_plan.steps]
    # The join chain goes through the players side (player-level stats),
    # not the teams side (team-level stats).
    assert any("players_to_games" in d for d in descriptions)
    assert not any("teams_to_games" in d for d in descriptions)


def test_founded_until_filters_founding_year_not_game_dates(
        rotowire_dataset, rotowire_lake):
    """'founded until 1970' belongs to the founding-year grammar; it must
    never be read as a date-column filter (game dates are all 2018/19,
    which would silently yield 0)."""
    session = Session(rotowire_lake)
    until = session.query(
        "How many players play for teams founded until 1970?")
    assert until.ok, until.error
    founded = _founded()
    team_of = _team_of(rotowire_dataset)
    assert until.value == sum(1 for team in team_of.values()
                              if founded[team] <= 1970)
    assert until.value > 0


def test_interior_hop_joins_on_renamed_key():
    """A hop out of a cross-column-joined table must use the '_right'-
    renamed key, not the original column name (which now belongs to the
    other side)."""
    from repro.llm.brain import _Builder, _emit_joins

    tables = {
        "players": PromptTable(
            "players", 10, [("name", "str"), ("team", "str")],
            foreign_keys=[("team", "teams", "name")]),
        "teams": PromptTable(
            "teams", 5, [("name", "str"), ("division", "str")],
            foreign_keys=[("name", "standings", "team_name")]),
        "standings": PromptTable(
            "standings", 5, [("team_name", "str"), ("wins", "int")]),
    }
    builder = _Builder()
    _current, columns = _emit_joins(builder, ["players", "standings"],
                                    tables)
    second = builder.steps[1]
    # teams.name was renamed name_right by the first join; the second
    # hop must join standings on it, not on the players' 'name'.
    assert "'name_right' and 'team_name' columns" in second.description
    assert second.params["left_on"] == "name_right"
    assert "name_right" in columns


def test_cross_join_step_maps_to_join_operator():
    decision = map_step("Join the 'players' and 'teams' tables on the "
                        "'team' and 'name' columns.")
    assert decision.operator == "Join"
    assert decision.arguments == ["players", "teams", "team", "name"]


def test_join_operator_missing_key_names_available_columns(rotowire_lake):
    context = ExecutionContext(tables={
        name: rotowire_lake.table(name)
        for name in rotowire_lake.source_names})
    with pytest.raises(OperatorError) as excinfo:
        JoinOperator().run(context, ["players", "teams", "team", "nope"])
    message = str(excinfo.value)
    assert "nope" in message and "teams" in message
    assert "conference" in message  # the available columns are listed


def test_poisoned_join_plan_recovers_via_bounded_replanning(rotowire_lake):
    """A bound planning reply joining on a key missing on one side fails
    at execution; bounded replanning asks afresh and recovers, and the
    reply that failed is never served again."""
    query = ("What is the average height of players in the Eastern "
             "conference?")
    poisoned = LogicalPlan(steps=[
        LogicalStep(1, "Join the 'players' and 'teams' tables on the "
                       "'team' and 'founded_year' columns.",
                    inputs=["players", "teams"], output="joined_table"),
        LogicalStep(2, "Compute the avg of the 'height_cm' column of the "
                       "'joined_table' table into the 'avg_height_cm' "
                       "column.",
                    inputs=["joined_table"], output="result_table",
                    new_columns=["avg_height_cm"]),
    ], thought="poisoned")
    session = Session(rotowire_lake, plan_cache=PlanCache(8))
    session.plan_cache.put((query, rotowire_lake.name),
                           poisoned_entry(rotowire_lake, query, poisoned))

    result = session.query(query)
    assert result.ok, result.error
    assert result.trace.replans == 1
    assert result.trace.errors and all(e.recovered
                                       for e in result.trace.errors)
    # The poisoned plan ran first, then the recovery synthesized the
    # real cross-column join.
    assert [span.notes["memo"] for span in result.telemetry.spans
            if span.stage == "planning"] == ["hit", "retry"]
    assert any("'team' and 'name' columns" in s.description
               for s in result.trace.logical_plan.steps)

    # The errored run replaced the entry with its plan, without the
    # planning reply that failed, so the next query asks planning afresh
    # and runs clean ...
    again = session.query(query)
    assert again.ok and again.trace.replans == 0 and not again.trace.errors
    assert [span.notes["memo"] for span in again.telemetry.spans
            if span.stage == "planning"] == ["absent"]
    assert again.value == result.value
    assert len(session.last_transcript) > 0
    # ... and binds every reply: the third query makes no call.
    third = session.query(query)
    assert third.value == result.value
    assert len(session.last_transcript) == 0


# ----------------------------------------------------------------------
# Multi-measure aggregates
# ----------------------------------------------------------------------


def test_multi_measure_scalar_year(artwork_dataset, artwork_lake):
    result = Session(artwork_lake).query(
        "What are the min, max and average year of impressionist "
        "paintings?")
    assert result.ok, result.error
    assert result.kind == "table"
    table = result.table
    assert table.num_rows == 1
    assert table.column_names == ["min_year", "max_year", "avg_year"]
    years = [int(i[:4]) for i, m
             in zip(artwork_dataset.metadata.column("inception"),
                    artwork_dataset.metadata.column("movement"))
             if m == "Impressionism"]
    assert table.column("min_year")[0] == min(years)
    assert table.column("max_year")[0] == max(years)
    assert table.column("avg_year")[0] == pytest.approx(
        sum(years) / len(years))


def test_multi_measure_grouped_inception(artwork_dataset, artwork_lake):
    result = Session(artwork_lake).query(
        "For each movement, what are the earliest and latest inception "
        "dates?")
    assert result.ok, result.error
    table = result.table
    assert table.column_names == ["movement", "min_inception",
                                  "max_inception"]
    by_movement: dict[str, list[str]] = {}
    for inception, movement in zip(
            artwork_dataset.metadata.column("inception"),
            artwork_dataset.metadata.column("movement")):
        by_movement.setdefault(movement, []).append(inception)
    for row in table.rows():
        inceptions = by_movement[row["movement"]]
        assert row["min_inception"] == min(inceptions)
        assert row["max_inception"] == max(inceptions)


def test_multi_measure_join_combo(rotowire_dataset, rotowire_lake):
    result = Session(rotowire_lake).query(
        "What are the minimum and maximum height of players in the "
        "Western conference?")
    assert result.ok, result.error
    conference = {row[0]: row[2] for row in TEAMS}
    team_of = _team_of(rotowire_dataset)
    heights = [h for n, h in zip(rotowire_dataset.players.column("name"),
                                 rotowire_dataset.players.column("height_cm"))
               if conference[team_of[n]] == "Western"]
    assert result.table.column("min_height_cm")[0] == min(heights)
    assert result.table.column("max_height_cm")[0] == max(heights)


def test_single_measure_degenerates_to_classic_plan(artwork_lake):
    """One aggregate keeps the exact single-measure step phrasing, so
    pre-existing plan caches and golden plans stay valid."""
    tables = parse_prompt_tables(artwork_lake.prompt_repr())
    multi = parse_query("What are the min and max year of all paintings?",
                        tables)
    single = parse_query("What is the max year of all paintings?", tables)
    assert len(multi.measures) == 2
    assert len(single.measures) == 1
    plan = synthesize_plan(single, tables)
    agg_steps = [s for s in plan.steps
                 if s.description.startswith("Compute the max")]
    assert agg_steps == [agg_steps[0]]
    assert (agg_steps[0].description
            == "Compute the max of the 'year' column of the "
               "'derived_table' table into the 'max_year' column.")


def test_multi_measure_steps_map_to_one_sql_statement():
    decision = map_step(
        "Compute the min of 'year', the max of 'year' and the avg of "
        "'year' of the 'derived_table' table into the 'min_year', "
        "'max_year' and 'avg_year' columns.")
    assert decision.operator == "SQL"
    sql = decision.arguments[0]
    assert 'MIN("year") AS "min_year"' in sql
    assert 'AVG("year") AS "avg_year"' in sql

    grouped = map_step(
        "Group the 't' table by 'movement' and compute the min of "
        "'inception' and the max of 'inception' into the 'min_inception' "
        "and 'max_inception' columns.")
    assert grouped.operator == "SQL"
    assert 'GROUP BY "movement"' in grouped.arguments[0]
    assert 'MAX("inception") AS "max_inception"' in grouped.arguments[0]


# ----------------------------------------------------------------------
# Date ranges
# ----------------------------------------------------------------------


def test_date_range_closed_artwork(artwork_dataset, artwork_lake):
    result = Session(artwork_lake).query(
        "How many paintings were created between 1880 and 1895?")
    assert result.ok, result.error
    inceptions = artwork_dataset.metadata.column("inception")
    expected = sum(1 for i in inceptions
                   if "1880-01-01" <= i <= "1895-12-31")
    assert result.value == expected


def test_date_range_month_rotowire(rotowire_dataset, rotowire_lake):
    result = Session(rotowire_lake).query(
        "How many games took place in November 2018?")
    assert result.ok, result.error
    expected = sum(
        1 for box in rotowire_dataset.box_scores
        if date(2018, 11, 1) <= game_date(box.game_id) <= date(2018, 11, 30))
    assert expected > 0  # the synthetic season covers November
    assert result.value == expected


@pytest.mark.parametrize("query,low,high", [
    ("How many paintings were created before March 1885?", None,
     "1885-02-28"),
    ("How many paintings were created since November 1885?", "1885-11-01",
     None),
    ("How many paintings were created until 1895?", None, "1895-12-31"),
    ("How many paintings were created after November 1885?", "1885-12-01",
     None),
])
def test_date_range_open_ends(artwork_dataset, artwork_lake, query, low,
                              high):
    result = Session(artwork_lake).query(query)
    assert result.ok, result.error
    inceptions = artwork_dataset.metadata.column("inception")
    expected = sum(1 for i in inceptions
                   if (low is None or i >= low)
                   and (high is None or i <= high))
    assert result.value == expected


def test_date_range_select_step_carries_typed_params(artwork_lake):
    tables = parse_prompt_tables(artwork_lake.prompt_repr())
    intent = parse_query(
        "How many paintings were created between 1880 and 1895?", tables)
    plan = synthesize_plan(intent, tables)
    select = next(s for s in plan.steps
                  if s.description.startswith("Select"))
    assert select.params["op"] == "between"
    assert select.params["low"] == date(1880, 1, 1)
    assert select.params["high"] == date(1895, 12, 31)
    assert "DATE '1880-01-01'" in select.description


def test_between_step_maps_to_sql_between():
    decision = map_step(
        "Select only the rows of the 't' table where the 'inception' "
        "column is between DATE '1880-01-01' and DATE '1895-12-31'.")
    assert decision.operator == "SQL"
    assert ("\"inception\" BETWEEN '1880-01-01' AND '1895-12-31'"
            in decision.arguments[0])
