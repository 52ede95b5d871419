"""Unit tests for logical plans: text round-trips and trace state."""

from repro.core.parsing import parse_logical_plan
from repro.core.plan import ErrorEvent, LogicalPlan, LogicalStep, PlanTrace


def _two_step_plan() -> LogicalPlan:
    return LogicalPlan(steps=[
        LogicalStep(index=1,
                    description="Join the 'teams' and 'teams_to_games' "
                                "tables on the 'name' column.",
                    inputs=["teams", "teams_to_games"],
                    output="joined_table"),
        LogicalStep(index=2,
                    description="Count the number of rows of the "
                                "'joined_table' table into the 'count' "
                                "column.",
                    inputs=["joined_table"],
                    output="result_table",
                    new_columns=["count"]),
    ], thought="join then count")


def test_render_parse_round_trip():
    plan = _two_step_plan()
    parsed = parse_logical_plan(plan.render())
    assert parsed.thought == plan.thought
    assert len(parsed) == len(plan)
    for original, recovered in zip(plan, parsed):
        assert recovered.index == original.index
        assert recovered.description == original.description
        assert recovered.inputs == original.inputs
        assert recovered.output == original.output
        assert recovered.new_columns == original.new_columns


def test_trace_crashed_reflects_unrecovered_errors():
    trace = PlanTrace(query="q")
    assert not trace.crashed
    trace.errors.append(ErrorEvent("execution", 1, "boom", recovered=True))
    assert not trace.crashed
    trace.errors.append(ErrorEvent("mapping", 2, "boom"))
    assert trace.crashed
