"""Differential fuzzer parity: two engines, three lanes, zero drift.

The CI anchor for the columnar engine: 200 seeded random queries per
run, every one executed under the sqlite bridge (reference) and the
columnar engine, then the whole run repeated under thread and process
lanes — all byte-identical.  A randomized soak rides along in CI with
its seed printed, so any failure lands back here as a pinned regression.
"""

import json

import pytest

from repro.datasets import load_lake
from repro.errors import OperatorError
from repro.obs.trace import QueryTelemetry
from repro.operators.base import ExecutionContext
from repro.operators.join import JoinOperator
from repro.operators.sql_ops import SQLOperator
from repro.relational import colexec
from repro.relational.sqlexec import build_join_sql, run_sql
from repro.testing.fuzz import (_CROSS_JOINS, ENGINES, LANES, QueryGenerator,
                                execute_all_engines, generate_queries,
                                run_fuzz)

PINNED_SEED = 7
QUERY_COUNT = 200


@pytest.fixture(scope="module")
def report():
    return run_fuzz(PINNED_SEED, QUERY_COUNT, lanes=LANES)


def test_fixed_seed_run_is_clean(report):
    assert len(report.queries) == QUERY_COUNT
    assert report.mismatches == []
    assert report.lane_mismatches == []
    assert report.ok


def test_generator_stays_inside_the_supported_envelope(report):
    # Every generated query must execute in-process: a query colexec
    # declines falls back to the bridge in production and proves nothing
    # about the columnar engine, so the generator may not emit one.
    assert report.unsupported == []
    for entry in report.canonical_results():
        assert set(entry["engines"]) == set(ENGINES) == {"sqlite",
                                                         "columnar"}
        assert (entry["engines"]["columnar"]
                == entry["engines"]["sqlite"]), entry["sql"]


def test_generator_covers_every_shape_and_dataset(report):
    shapes = {query.shape for query in report.queries}
    assert shapes == {"filter", "aggregate", "group", "join", "distinct"}
    assert {query.dataset for query in report.queries} == {"artwork",
                                                          "rotowire"}


def test_query_generation_is_deterministic():
    lakes = {name: load_lake(name) for name in ("artwork", "rotowire")}
    first = generate_queries(11, 40, lakes=lakes)
    second = generate_queries(11, 40, lakes=lakes)
    assert first == second
    # A different seed draws a different stream.
    assert generate_queries(12, 40, lakes=lakes) != first


def test_generated_sql_round_trips_through_json(report):
    # Canonical entries are what the lane-parity check serializes; they
    # must stay JSON-stable (no floats reprs drifting through dumps).
    dumped = json.dumps(report.canonical_results(), sort_keys=True)
    assert json.loads(dumped) == report.canonical_results()


# ----------------------------------------------------------------------
# The fuzzer-found planner regression, pinned
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def rotowire_tables():
    lake = load_lake("rotowire")
    return {name: source.table for name, source in lake.sources.items()}


def test_join_where_on_right_side_columns_is_declined(rotowire_tables):
    # Found by the soak (seed=500242479): with a WHERE over right-table
    # columns sqlite's planner flips the scan to the right table,
    # reordering the result.  colexec must decline rather than guess.
    sql = ("SELECT * FROM teams JOIN teams_to_games USING (name) "
           "WHERE game_id >= 1")
    with pytest.raises(colexec.UnsupportedSQL):
        colexec.execute(sql, rotowire_tables)


def test_join_where_on_left_side_columns_matches_sqlite(rotowire_tables):
    # Predicates over left-only columns keep sqlite on the FROM-order
    # plan colexec replicates, so these stay in-process.
    for sql in (
        "SELECT * FROM teams JOIN teams_to_games USING (name) "
        "WHERE founded >= 0",
        "SELECT * FROM teams JOIN teams_to_games USING (name) "
        "WHERE city LIKE 'M%' OR division = 'Atlantic'",
    ):
        reference = run_sql(sql, rotowire_tables)
        result = colexec.execute(sql, rotowire_tables)
        assert result.fingerprint() == reference.fingerprint(), sql


def test_execute_all_engines_flags_declined_queries(rotowire_tables):
    from repro.testing.fuzz import FuzzQuery
    query = FuzzQuery(
        "rotowire",
        "SELECT * FROM teams JOIN teams_to_games USING (name) "
        "WHERE game_id >= 1",
        ("teams", "teams_to_games"), "join")
    entry, reason = execute_all_engines(query, rotowire_tables)
    assert reason is not None and "right-side" in reason
    assert "unsupported" in entry["engines"]["columnar"]
    assert "fingerprint" in entry["engines"]["sqlite"]


@pytest.mark.parametrize("left,right,left_on,right_on",
                         _CROSS_JOINS["rotowire"])
def test_join_operator_without_a_bridge_matches_the_join_statement(
        rotowire_tables, left, right, left_on, right_on):
    # The Join operator on either engine, with the context's default
    # bridge, must return exactly what the statement it stands for
    # returns through a one-shot bridge, dtypes included.
    sql = build_join_sql(left, right, left_on, right_on,
                         rotowire_tables[left].column_names,
                         rotowire_tables[right].column_names)
    reference = run_sql(sql, {left: rotowire_tables[left],
                              right: rotowire_tables[right]})
    for engine in ("sqlite", "columnar"):
        context = ExecutionContext(tables=dict(rotowire_tables),
                                   relational_engine=engine)
        result = JoinOperator().run(
            context, [left, right, left_on, right_on]).table
        assert result.fingerprint() == reference.fingerprint(), engine


def test_join_where_on_the_merged_key_declines_to_sqlite(rotowire_tables):
    # Found by `repro fuzz --seed 3 --count 600`: an equality on the
    # merged key constrains both sides, so sqlite 3.40 flips the scan and
    # returns the same rows in another order.  colexec must decline, and
    # the SQL step then answers exactly what sqlite answers.
    for sql in (
        "SELECT * FROM players_to_games JOIN game_reports USING (game_id) "
        "WHERE game_id = 1",
        "SELECT * FROM teams_to_games JOIN game_reports USING (game_id) "
        "WHERE game_id IN (2)",
    ):
        with pytest.raises(colexec.UnsupportedSQL, match="merged-key"):
            colexec.execute(sql, rotowire_tables)
        telemetry = QueryTelemetry()
        context = ExecutionContext(tables=dict(rotowire_tables),
                                   telemetry=telemetry)
        result = SQLOperator().run(context, [sql]).table
        assert telemetry.counters["colexec_declined"] == 1
        reference = run_sql(sql, rotowire_tables)
        assert result.num_rows > 0
        assert result.fingerprint() == reference.fingerprint(), sql
    # A same-name ON join declines the same way; there sqlite finds the
    # bare key ambiguous, and the step reports that error.
    sql = build_join_sql(
        "game_reports", "teams_to_games", "game_id", "game_id",
        rotowire_tables["game_reports"].column_names,
        rotowire_tables["teams_to_games"].column_names) + " WHERE game_id = 1"
    with pytest.raises(colexec.UnsupportedSQL, match="merged-key"):
        colexec.execute(sql, rotowire_tables)
    with pytest.raises(OperatorError, match="ambiguous column name"):
        SQLOperator().run(ExecutionContext(tables=dict(rotowire_tables)),
                          [sql])


def test_self_join_reports_the_sqlite_error_on_both_engines(rotowire_tables):
    # FROM and JOIN naming one table is ambiguous to sqlite; colexec used
    # to answer it anyway (and swapped differently named keys).
    columns = rotowire_tables["teams"].column_names
    sql = build_join_sql("teams", "teams", "name", "name", columns, columns)
    with pytest.raises(colexec.UnsupportedSQL, match="self-join"):
        colexec.execute(sql, rotowire_tables)
    for engine in ("columnar", "sqlite"):
        context = ExecutionContext(tables=dict(rotowire_tables),
                                   relational_engine=engine)
        with pytest.raises(OperatorError, match="ambiguous column name"):
            JoinOperator().run(context, ["teams", "teams", "name", "city"])


def test_generator_never_emits_right_side_join_predicates():
    # The generator contract backing the envelope test above: USING-join
    # WHERE clauses reference only left-table columns, never the key.
    lakes = {name: load_lake(name) for name in ("artwork", "rotowire")}
    generator = QueryGenerator(lakes, seed=3)
    joins = [q for q in (generator.generate() for _ in range(400))
             if q.shape == "join" and " WHERE " in q.sql]
    assert joins, "expected some join queries with predicates"
    for query in joins:
        statement = colexec.parse_select(query.sql)
        left, right = (lakes[query.dataset].sources[name].table
                       for name in query.tables)
        read = colexec._where_columns(statement.where)
        assert statement.join.using not in read, query.sql
        assert read <= set(left.column_names) - set(right.column_names), \
            query.sql


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_repro_fuzz_cli_runs_a_pinned_seed(capsys):
    from repro.cli import main
    assert main(["fuzz", "--seed", "7", "--count", "25",
                 "--strict-unsupported"]) == 0
    out = capsys.readouterr().out
    assert "seed=7" in out
    assert "parity mismatches : 0" in out
