"""Lossless JSON round-trips for the plan IR, results, and reports.

Every ``to_dict()`` must survive an actual ``json.dumps``/``loads`` cycle
(not just a dict copy) and reconstruct an *equal* object — tables, traces,
timings, plot specs, dates, and rendered images included.
"""

import datetime
import json

import numpy as np

from repro import Session
from repro.core.plan import (ErrorEvent, LogicalPlan, LogicalStep,
                             Observation, PhysicalStep, PlanTrace,
                             QueryResult)
from repro.data.datatypes import DataType
from repro.data.table import Table
from repro.obs import QueryTelemetry, StageTrace
from repro.plotting.spec import PlotSpec
from repro.vision.image import Image


def roundtrip(obj):
    """Encode → JSON text → decode with the object's own from_dict."""
    data = json.loads(json.dumps(obj.to_dict()))
    return type(obj).from_dict(data)


def test_logical_plan_roundtrip():
    plan = LogicalPlan(
        steps=[LogicalStep(1, "Filter the players table.",
                           inputs=["players"], output="tall_players",
                           new_columns=[]),
               LogicalStep(2, "Count the rows.", inputs=["tall_players"],
                           output="result", new_columns=["count"])],
        thought="filter then aggregate")
    assert roundtrip(plan) == plan


def test_step_params_roundtrip_with_tagged_dates():
    """The params sidecar survives JSON with its typed date scalars."""
    step = LogicalStep(
        1, "Select only the rows of the 't' table where the 'inception' "
           "column is between DATE '1880-01-01' and DATE '1895-12-31'.",
        inputs=["t"], output="selected_table",
        params={"column": "inception", "op": "between",
                "low": datetime.date(1880, 1, 1),
                "high": datetime.date(1895, 12, 31)})
    back = roundtrip(step)
    assert back == step
    assert isinstance(back.params["low"], datetime.date)


def test_step_params_roundtrip_nested_measures():
    step = LogicalStep(
        1, "Group the 't' table by 'movement' and compute the min of "
           "'inception' and the max of 'inception' into the "
           "'min_inception' and 'max_inception' columns.",
        inputs=["t"], output="grouped_table",
        new_columns=["min_inception", "max_inception"],
        params={"by": "movement",
                "measures": [
                    {"agg": "min", "column": "inception",
                     "output": "min_inception"},
                    {"agg": "max", "column": "inception",
                     "output": "max_inception"}]})
    assert roundtrip(step) == step


def test_step_without_params_stays_backward_compatible():
    """Old serialized steps (no ``params`` key) still load, and empty
    params keep the rendered plan byte-identical to the old format."""
    data = {"index": 1, "description": "Count the rows.",
            "inputs": ["t"], "output": "result", "new_columns": ["count"]}
    step = LogicalStep.from_dict(data)
    assert step.params == {}
    assert "Params:" not in step.render()


def test_rendered_plan_roundtrips_params():
    """Params survive the render → parse_logical_plan text channel the
    planner actually communicates through."""
    from repro.core.parsing import parse_logical_plan
    plan = LogicalPlan(
        steps=[LogicalStep(
            1, "Join the 'players' and 'teams' tables on the 'team' and "
               "'name' columns.",
            inputs=["players", "teams"], output="joined_table",
            params={"left": "players", "right": "teams",
                    "left_on": "team", "right_on": "name"})],
        thought="join")
    assert parse_logical_plan(plan.render()) == plan


def test_trace_pieces_roundtrip():
    step = LogicalStep(1, "do it", inputs=["t"], output="out")
    physical = PhysicalStep(logical=step, operator="SQL",
                            arguments=["SELECT 1"], reasoning="trivial")
    observation = Observation(1, "produced 1 row")
    event = ErrorEvent("mapping", 1, "boom", recovered=True)
    assert roundtrip(physical) == physical
    assert roundtrip(observation) == observation
    assert roundtrip(event) == event
    telemetry = QueryTelemetry(
        spans=[StageTrace("planning", duration_ms=1.5, token_in=10,
                          token_out=2, cost_usd=0.00042),
               StageTrace("operator:SQL", duration_ms=0.5, step_index=1,
                          notes={"rows": 3})],
        counters={"plan_from_cache": 1, "plan_cache_hits": 1})
    trace = PlanTrace(query="q", logical_plan=LogicalPlan(steps=[step]),
                      physical_steps=[physical], observations=[observation],
                      errors=[event], replans=1,
                      timings={"total": 0.25, "planning": 0.1},
                      telemetry=telemetry)
    assert roundtrip(trace) == trace
    assert roundtrip(trace).telemetry.plan_cache_hit is True


def test_table_roundtrip_with_dates_and_nulls():
    table = Table.infer({
        "name": ["a", "b", None],
        "height": [200, None, 190],
        "share": [0.25, 0.5, 0.125],
        "active": [True, False, None],
        "born": [datetime.date(1990, 1, 2), None,
                 datetime.date(2000, 12, 31)],
    })
    restored = roundtrip(table)
    assert restored == table
    assert restored.dtype("born") is DataType.DATE
    assert restored.column("born")[0] == datetime.date(1990, 1, 2)
    assert type(restored.column("born")[0]) is datetime.date


def test_table_roundtrip_with_image_column():
    pixels = np.arange(4 * 3 * 3, dtype=np.uint8).reshape((4, 3, 3))
    image = Image(pixels, path="img/x.png")
    table = Table.infer(
        {"title": ["x"], "image": [image]},
        modality_types={"image": DataType.IMAGE})
    restored = roundtrip(table)
    assert restored == table
    restored_image = restored.column("image")[0]
    assert isinstance(restored_image, Image)
    assert restored_image.fingerprint() == image.fingerprint()


def test_plot_spec_roundtrip():
    spec = PlotSpec(kind="bar", x_label="century", y_label="count",
                    x_values=[15, 16, 17], y_values=[9, 12, 30],
                    title="paintings per century")
    assert roundtrip(spec) == spec


def test_query_result_value_roundtrip(rotowire_lake):
    result = Session(rotowire_lake).query(
        "How many players are taller than 200?")
    assert result.ok and result.kind == "value"
    restored = roundtrip(result)
    assert restored == result
    assert restored.value == result.value
    assert restored.trace.timings == result.trace.timings
    assert restored.trace.operators_used() == result.trace.operators_used()


def test_query_result_table_roundtrip(artwork_lake):
    result = Session(artwork_lake).query(
        "For each movement, how many paintings are there?")
    assert result.ok and result.kind == "table"
    restored = roundtrip(result)
    assert restored == result
    assert restored.table == result.table


def test_query_result_plot_roundtrip(artwork_lake):
    result = Session(artwork_lake).query(
        "Plot the number of paintings for each century.")
    assert result.ok and result.kind == "plot"
    restored = roundtrip(result)
    assert restored == result
    assert restored.plot.signature() == result.plot.signature()
    assert restored.plot.series() == result.plot.series()


def test_query_result_date_value_roundtrip(artwork_lake):
    result = Session(artwork_lake).query(
        "What is the earliest inception date of all paintings?")
    assert result.ok and result.kind == "value"
    restored = roundtrip(result)
    assert restored == result
    assert restored.value == result.value


def test_query_result_error_roundtrip(rotowire_lake):
    result = Session(rotowire_lake).query("please levitate the stadium")
    assert not result.ok
    restored = roundtrip(result)
    assert restored == result
    assert restored.error == result.error
    assert restored.trace.crashed


def test_query_result_without_trace_roundtrip():
    result = QueryResult(kind="value", value=7)
    assert roundtrip(result) == result
