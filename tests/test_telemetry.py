"""The observability subsystem: spans, counters, metrics, and cost.

The acceptance contract: every query, under every backend, produces a
non-empty span tree covering plan/map/execute plus one span per executed
operator — and the spans, cache counters, and cost totals survive
``to_dict``/``from_dict`` and the process-lane JSON pipe byte-identically
across serial, thread, and process execution.
"""

import json
import os

import pytest

from repro.benchmarks.workloads import workload
from repro.core.plan import QueryResult
from repro.datasets import load_lake
from repro.llm.brain import SimulatedBrain
from repro.obs import (CostModel, MetricsRegistry, QueryTelemetry,
                       StageTrace, TelemetryConfig)
from repro.obs.cost import DEFAULT_COST_MODEL, resolve_cost_model
from repro.operators.base import ExecutionContext
from repro.session import Session

QUERY = "How many players are taller than 200?"


def span_dicts(result) -> list[dict]:
    return [span.to_dict() for span in result.telemetry.spans]


def zero_durations(data: dict) -> dict:
    """Telemetry dict with wall-clock blanked; tokens/cost/counters kept."""
    data = json.loads(json.dumps(data))
    for span in data["spans"]:
        span["duration_ms"] = 0.0
    return data


# ----------------------------------------------------------------------
# The cost model
# ----------------------------------------------------------------------


def test_cost_model_counts_tokens_and_rounds_cost():
    model = CostModel()
    assert model.tokens("") == 0
    assert model.tokens("abcd") == 1
    assert model.tokens("abcde") == 2  # ceil(5 / 4)
    cost = model.cost_usd(1000, 1000)
    assert cost == round(0.03 + 0.06, 8)
    assert CostModel.from_dict(model.to_dict()) == model


def test_resolve_cost_model_precedence():
    override = CostModel(name="override")
    assert resolve_cost_model(SimulatedBrain(), override=override) is override
    assert resolve_cost_model(SimulatedBrain()) is DEFAULT_COST_MODEL
    assert resolve_cost_model(object()) is DEFAULT_COST_MODEL

    class PricedBrain:
        cost_model = CostModel(name="priced", usd_per_1k_input=1.0)

    assert resolve_cost_model(PricedBrain()).name == "priced"


def test_session_cost_model_override_changes_figures(rotowire_lake):
    free = CostModel(name="free", usd_per_1k_input=0.0,
                     usd_per_1k_output=0.0)
    with Session(rotowire_lake,
                 telemetry=TelemetryConfig(cost_model=free)) as session:
        result = session.query(QUERY)
    assert result.ok
    assert result.telemetry.token_in > 0
    assert result.telemetry.cost_usd == 0.0

    with Session(rotowire_lake) as priced:
        default = priced.query(QUERY)
    assert default.telemetry.cost_usd > 0.0


# ----------------------------------------------------------------------
# Span trees: every backend, every query (the acceptance contract)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend,workers",
                         [("serial", 1), ("thread", 2), ("process", 2)])
def test_every_query_has_a_span_tree(backend, workers):
    queries = workload("rotowire", repeats=1)
    with Session(load_lake("rotowire")) as session:
        report = session.batch(queries, workers=workers, backend=backend)
    assert report.num_errors == 0
    for result in report.results:
        spans = result.telemetry.spans
        assert spans, f"no spans under {backend} for {result.trace.query!r}"
        stages = {span.stage for span in spans}
        assert {"discovery", "planning", "mapping"} <= stages
        operator_spans = [s for s in spans
                          if s.stage.startswith("operator:")]
        assert len(operator_spans) == len(result.trace.physical_steps) > 0
        for span, step in zip(operator_spans,
                              result.trace.physical_steps):
            assert span.stage == f"operator:{step.operator}"
            assert span.step_index == step.logical.index
        counters = result.telemetry.counters
        assert counters.get("plan_cache_misses", 0) \
            + counters.get("plan_cache_hits", 0) == 1


def test_process_lane_telemetry_matches_serial_byte_for_byte():
    # Deterministic query->lane affinity gives process lanes the same
    # cache-hit pattern as a serial pass, so with only wall clock blanked
    # the telemetry — spans, tokens, cost, counters — is byte-identical
    # after the JSON pipe.
    queries = workload("rotowire", repeats=2)
    with Session(load_lake("rotowire")) as a:
        serial = a.batch(queries, backend="serial")
    with Session(load_lake("rotowire")) as b:
        process = b.batch(queries, workers=2, backend="process")
    assert serial.num_errors == process.num_errors == 0
    serial_blob = json.dumps(
        [zero_durations(r.telemetry.to_dict()) for r in serial.results],
        sort_keys=True)
    process_blob = json.dumps(
        [zero_durations(r.telemetry.to_dict()) for r in process.results],
        sort_keys=True)
    assert serial_blob == process_blob


def test_canonical_telemetry_is_identical_across_all_backends():
    # Threads race for the shared caches, so locality counters and
    # planning-span tokens may legitimately differ; the canonical form
    # blanks exactly those and must then agree across every backend.
    queries = workload("rotowire", repeats=2)
    blobs = {}
    for backend, workers in (("serial", 1), ("thread", 3), ("process", 3)):
        with Session(load_lake("rotowire")) as session:
            report = session.batch(queries, workers=workers,
                                   backend=backend)
        assert report.num_errors == 0
        blobs[backend] = json.dumps(
            [QueryTelemetry.canonicalize(r.telemetry.to_dict())
             for r in report.results], sort_keys=True)
    assert blobs["thread"] == blobs["serial"]
    assert blobs["process"] == blobs["serial"]


class _OneBadPlanModel:
    """Delegates to SimulatedBrain but botches the first planning call."""

    name = "one-bad-plan"

    def __init__(self):
        self._brain = SimulatedBrain()
        self._bad_plans_left = 1

    def complete(self, messages):
        from repro.core.prompts import PLANNING_MARKER
        text = "\n\n".join(message.content for message in messages)
        if PLANNING_MARKER in text and self._bad_plans_left:
            self._bad_plans_left -= 1
            return ("Step 1: Count the number of rows of the "
                    "'missing_table' table into the 'count' column.\n"
                    "Input: ['missing_table']\n"
                    "Output: result_table\n"
                    "New Columns: ['count']\n"
                    "Step 2: Plan completed.")
        return self._brain.complete(messages)


def test_failed_attempt_spans_carry_the_error(rotowire_lake):
    with Session(rotowire_lake, brain=_OneBadPlanModel()) as session:
        result = session.query(QUERY)
    assert result.ok and result.trace.replans == 1
    failed = [s for s in result.telemetry.spans if "error" in s.notes]
    assert failed, "the failed first attempt must leave a span"
    for span in failed:
        assert span.notes["error"]
        assert span.step_index is not None
    # The replanned attempt still produces the full successful tree.
    stages = {s.stage for s in result.telemetry.spans}
    assert "planning" in stages
    assert any(stage.startswith("operator:") for stage in stages)


# ----------------------------------------------------------------------
# Serde: spans survive JSON, caches, and old readers
# ----------------------------------------------------------------------


def test_result_telemetry_roundtrips_byte_identically(rotowire_lake):
    result = Session(rotowire_lake).query(QUERY)
    assert result.telemetry.spans
    data = json.loads(json.dumps(result.to_dict()))
    restored = QueryResult.from_dict(data)
    assert json.dumps(restored.to_dict(), sort_keys=True) \
        == json.dumps(result.to_dict(), sort_keys=True)
    assert restored.telemetry.cost_usd == result.telemetry.cost_usd


def test_cache_files_warm_a_new_session_with_telemetry(tmp_path):
    plan_file = tmp_path / "plans.json"
    answer_file = tmp_path / "answers.json"
    with Session("rotowire") as warm:
        cold = warm.query(QUERY)
        assert not cold.telemetry.plan_cache_hit
        warm.save_plan_cache(plan_file)
        warm.save_answer_cache(answer_file)

    with Session("rotowire") as restarted:
        restarted.load_plan_cache(plan_file)
        restarted.load_answer_cache(answer_file)
        hit = restarted.query(QUERY)
    assert hit.ok and hit.value == cold.value
    assert hit.telemetry.plan_cache_hit
    assert hit.telemetry.counters["plan_cache_hits"] == 1
    # Plan served from disk: the planning span spent zero LLM tokens.
    planning = [s for s in hit.telemetry.spans if s.stage == "planning"]
    assert planning and planning[0].token_in == 0


def test_render_tree_shows_stages_costs_and_counters(rotowire_lake):
    result = Session(rotowire_lake).query(QUERY)
    tree = result.telemetry.render_tree()
    assert "spans:" in tree and "cost: $" in tree
    for stage in ("discovery", "planning", "mapping"):
        assert stage in tree
    assert "operator:SQL" in tree
    assert "counters:" in tree and "plan_cache_misses=1" in tree


# ----------------------------------------------------------------------
# The metrics registry
# ----------------------------------------------------------------------


def test_metrics_snapshot_is_deterministic_across_runs(rotowire_lake):
    def counters_of(session: Session) -> dict:
        session.batch(workload("rotowire", repeats=2))
        snapshot = session.metrics()
        # Wall clock varies run to run; everything else must not.
        assert json.dumps(session.metrics(), sort_keys=True) \
            == json.dumps(snapshot, sort_keys=True)  # re-snapshot stable
        return {
            "counters": snapshot["counters"],
            "hit_rates": {k: v for k, v in snapshot["derived"].items()
                          if k.endswith("_rate")},
            "histogram_counts": {name: hist["count"]
                                 for name, hist
                                 in snapshot["histograms"].items()},
        }

    first = counters_of(Session(rotowire_lake))
    second = counters_of(Session(rotowire_lake))
    assert first == second
    assert first["counters"]["queries_total"] \
        == len(workload("rotowire", repeats=2))
    assert first["counters"].get("queries_error", 0) == 0
    assert first["histogram_counts"]["latency_total"] \
        == first["counters"]["queries_total"]


def test_metrics_delta_protocol_merges_worker_state():
    parent, worker = MetricsRegistry(), MetricsRegistry()
    worker.increment("queries_total")
    before = worker.raw_state()
    worker.increment("queries_total")
    worker.increment("cost_usd_total", 0.25)
    worker.observe("latency_total", 0.5)
    delta = worker.delta_since(before)
    assert delta["counters"]["queries_total"] == 1  # only the new one
    parent.merge_delta(delta)
    parent.merge_delta(None)  # tolerated: worker predates the protocol
    snapshot = parent.snapshot()
    assert snapshot["counters"]["queries_total"] == 1
    assert snapshot["counters"]["cost_usd_total"] == 0.25
    assert snapshot["histograms"]["latency_total"]["count"] == 1


@pytest.mark.parametrize("backend,workers",
                         [("thread", 2), ("process", 2)])
def test_parallel_backends_feed_the_session_registry(backend, workers):
    queries = workload("rotowire", repeats=1)
    with Session(load_lake("rotowire")) as session:
        report = session.batch(queries, workers=workers, backend=backend)
        snapshot = session.metrics()
    assert report.num_errors == 0
    assert snapshot["counters"]["queries_total"] == len(queries)
    assert snapshot["counters"]["queries_ok"] == len(queries)
    assert snapshot["counters"]["token_in_total"] > 0
    assert snapshot["counters"]["cost_usd_total"] > 0
    assert snapshot["derived"]["queries_per_second"] > 0


# ----------------------------------------------------------------------
# Worker failures: lane attribution end to end
# ----------------------------------------------------------------------


def test_worker_failure_carries_lane_id_into_report_and_metrics():
    from _poison import POISON_MARKER, WorkerOnlyPoisonPlanner
    queries = [QUERY, f"{QUERY.rstrip('?')} {POISON_MARKER}?"]
    planner = WorkerOnlyPoisonPlanner(SimulatedBrain(), os.getpid())
    with Session("rotowire", planner=planner) as session:
        report = session.batch(queries, workers=2, backend="process")
        snapshot = session.metrics()
    assert report.num_errors == 0  # recovered by the in-parent fallback
    events = report.worker_failures
    assert len(events) == 1
    event = events[0]
    assert event.worker_id is not None and 0 <= event.worker_id < 2
    assert event.recovered
    from repro.core.plan import ErrorEvent
    assert ErrorEvent.from_dict(event.to_dict()) == event

    rendered = report.render()
    assert "worker failures:" in rendered
    assert f"[lane {event.worker_id}]" in rendered
    assert "recovered in parent" in rendered
    assert snapshot["counters"]["worker_failures_total"] == 1


# ----------------------------------------------------------------------
# TelemetryConfig: the off switch
# ----------------------------------------------------------------------


def test_disabled_telemetry_skips_spans_but_keeps_locality(rotowire_lake):
    with Session(rotowire_lake,
                 telemetry=TelemetryConfig(enabled=False)) as session:
        result = session.query(QUERY)
        snapshot = session.metrics()
    assert result.ok
    assert result.telemetry.spans == []
    assert result.telemetry.cost_usd == 0.0
    # Cache accounting and metrics are not tracing: they stay on.
    assert result.telemetry.counters["plan_cache_misses"] == 1
    assert snapshot["counters"]["queries_total"] == 1
    assert "spans_total" not in snapshot["counters"]


@pytest.mark.parametrize("backend,workers",
                         [("thread", 2), ("process", 2)])
def test_disabled_telemetry_propagates_to_lanes(backend, workers):
    queries = workload("rotowire", repeats=1)
    with Session(load_lake("rotowire"),
                 telemetry=TelemetryConfig(enabled=False)) as session:
        report = session.batch(queries, workers=workers, backend=backend)
    assert report.num_errors == 0
    assert all(not r.telemetry.spans for r in report.results)
    assert report.telemetry.cost_usd == 0.0


def test_execution_context_counts_are_safe_without_telemetry():
    context = ExecutionContext()
    context.count("sql_statements")           # must not raise
    context.record_answer_lookup(hit=True)
    telemetry = QueryTelemetry()
    wired = ExecutionContext(telemetry=telemetry)
    wired.count("sql_statements")
    wired.record_answer_lookup(hit=False)
    assert telemetry.counters["sql_statements"] == 1
    assert telemetry.counters["answer_cache_misses"] == 1


def test_sql_and_join_steps_count_the_engine_that_ran_them():
    from repro.operators.join import JoinOperator
    from repro.operators.sql_ops import SQLOperator
    from repro.relational.sqlexec import SQLBridge

    lake = load_lake("rotowire")
    tables = {name: source.table for name, source in lake.sources.items()}

    def counters(engine: str, operator, args) -> dict:
        telemetry = QueryTelemetry()
        context = ExecutionContext(tables=dict(tables), telemetry=telemetry,
                                   relational_engine=engine,
                                   sql_bridge=SQLBridge())
        operator.run(context, args)
        return {name: value for name, value in telemetry.counters.items()
                if name.startswith(("sql_engine_", "colexec_"))}

    supported = ["SELECT name FROM players WHERE height_cm > 200"]
    declined = ["SELECT UPPER(name) AS u FROM players"]
    join = ["players", "teams", "team", "name"]
    assert counters("columnar", SQLOperator(), supported) == {
        "sql_engine_columnar": 1}
    assert counters("native", SQLOperator(), supported) == {
        "sql_engine_native": 1}
    assert counters("sqlite", SQLOperator(), supported) == {
        "sql_engine_sqlite": 1}
    assert counters("columnar", SQLOperator(), declined) == {
        "sql_engine_sqlite": 1, "colexec_declined": 1}
    assert counters("columnar", JoinOperator(), join) == {
        "sql_engine_columnar": 1}
    assert counters("sqlite", JoinOperator(), join) == {
        "sql_engine_sqlite": 1}


def test_engine_counts_fold_into_labelled_session_metrics():
    from repro.obs import render_prometheus

    with Session("rotowire") as session:
        result = session.query(QUERY)
        counters = session.metrics()["counters"]
        exposition = render_prometheus(session.observability_snapshot())
    ran = result.telemetry.counters["sql_engine_columnar"]
    assert ran == result.telemetry.counters["sql_statements"]
    assert counters['sql_engine_total{engine="columnar"}'] == ran
    assert "colexec_declined_total" not in counters
    assert f'repro_sql_engine_total{{engine="columnar"}} {ran}' in exposition


# ----------------------------------------------------------------------
# The worker pipe itself, driven in-process
# ----------------------------------------------------------------------


def test_worker_pipe_ships_spans_and_metrics_delta(monkeypatch):
    from test_exec_backends import make_worker_payload

    from repro.exec import procworker
    monkeypatch.setattr(procworker, "_STATE", {})
    session = Session("rotowire")
    payload = make_worker_payload(session)
    payload["telemetry"] = session.telemetry
    procworker.initialize_worker(payload)

    answer = procworker.run_worker_query(QUERY)
    assert answer["ok"]
    wire = json.loads(json.dumps(answer))  # what the pipe actually moves
    trace = wire["result"]["trace"]
    stages = [span["stage"] for span in trace["telemetry"]["spans"]]
    assert "planning" in stages
    assert any(stage.startswith("operator:") for stage in stages)
    delta = wire["metrics_delta"]
    assert delta["counters"]["queries_total"] == 1
    registry = MetricsRegistry()
    registry.merge_delta(delta)
    assert registry.snapshot()["counters"]["queries_ok"] == 1


def test_worker_pipe_tolerates_payload_without_telemetry(monkeypatch):
    # An old parent that predates TelemetryConfig still initializes the
    # worker (tracing defaults on) — the init payload key is optional.
    from test_exec_backends import make_worker_payload

    from repro.exec import procworker
    monkeypatch.setattr(procworker, "_STATE", {})
    procworker.initialize_worker(make_worker_payload(Session("rotowire")))
    answer = procworker.run_worker_query(QUERY)
    assert answer["ok"]
    assert answer["result"]["trace"]["telemetry"]["spans"]


# ----------------------------------------------------------------------
# Canonical form
# ----------------------------------------------------------------------


def test_canonicalize_blanks_wall_clock_and_locality():
    telemetry = QueryTelemetry(
        spans=[StageTrace("planning", duration_ms=3.2, token_in=40,
                          token_out=8, cost_usd=0.0017),
               StageTrace("operator:SQL", duration_ms=0.7, token_in=12,
                          token_out=3, cost_usd=0.00054, step_index=1)],
        counters={"plan_cache_hits": 1, "plan_from_cache": 1,
                  "sql_statements": 2, "vision_inferences": 4})
    canon = QueryTelemetry.canonicalize(telemetry.to_dict())
    by_stage = {span["stage"]: span for span in canon["spans"]}
    assert all(span["duration_ms"] == 0.0 for span in canon["spans"])
    # Planning cost depends on cache locality -> blanked; operator work
    # is deterministic -> kept.
    assert by_stage["planning"]["token_in"] == 0
    assert by_stage["planning"]["cost_usd"] == 0.0
    assert by_stage["operator:SQL"]["token_in"] == 12
    assert canon["counters"] == {"sql_statements": 2}
