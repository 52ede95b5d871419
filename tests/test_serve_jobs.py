"""The job queue + admission layer without HTTP in front: the
thread-level semantics the server builds on, plus the load-test
harness's record shape."""

from __future__ import annotations

import json
import time

import pytest

from repro.llm.brain import SimulatedBrain
from repro.obs import MetricsRegistry
from repro.serve.admission import (START_INTERVAL_S, AdmissionController,
                                   AdmissionError, StartPacer)
from repro.serve.jobs import JobManager
from repro.serve.loadtest import LoadTestConfig, healthy, percentile, run_loadtest
from repro.serve.schemas import SchemaError, parse_submit
from repro.session import Session


# ----------------------------------------------------------------------
# Schemas
# ----------------------------------------------------------------------

def test_parse_submit_validation():
    request = parse_submit({"query": "  who?  ", "timeout_s": 2})
    assert request.query == "who?"
    assert request.timeout_s == 2.0
    assert parse_submit({"query": "q"}).timeout_s is None
    for bad in (None, [], {"query": 3}, {"query": " "}, {},
                {"query": "q", "timeout_s": 0},
                {"query": "q", "timeout_s": True},
                {"query": "q", "extra": 1},
                {"query": "x" * 10_001}):
        with pytest.raises(SchemaError):
            parse_submit(bad)


# ----------------------------------------------------------------------
# Admission controller
# ----------------------------------------------------------------------

def test_admission_gates_and_occupancy():
    admission = AdmissionController(queue_depth=2, per_client_limit=2,
                                    retry_after_s=3.0)
    admission.admit("a")
    admission.admit("a")
    # Queue full before the client limit is consulted.
    with pytest.raises(AdmissionError) as info:
        admission.admit("b")
    assert info.value.reason == "queue_full"
    assert info.value.status == 429
    assert info.value.retry_after_s == 3.0
    # One job starts running: a queue slot frees, but client "a" is at
    # its in-flight (queued + running) limit.
    admission.mark_started()
    with pytest.raises(AdmissionError) as info:
        admission.admit("a")
    assert info.value.reason == "client_limit"
    admission.admit("b")
    occupancy = admission.occupancy()
    assert occupancy == {"queued": 2, "running": 1, "clients": 2,
                         "queue_depth": 2, "per_client_limit": 2,
                         "draining": False}
    # Releases unwind both axes.
    admission.release_running("a")
    admission.release_queued("a")
    admission.admit("a")
    # Draining rejects everything with 503.
    admission.start_draining()
    with pytest.raises(AdmissionError) as info:
        admission.admit("c")
    assert info.value.reason == "draining"
    assert info.value.status == 503


def test_admission_rejections_counted_in_metrics(rotowire_lake):
    session = Session(rotowire_lake)
    manager = JobManager(session, workers=1, queue_depth=1,
                         per_client_limit=1)
    try:
        manager.admission.start_draining()
        with pytest.raises(AdmissionError):
            manager.submit("q", "a")
        counters = session.metrics_registry.counters()
        assert counters["serve_admission_rejections_total"] == 1
        assert counters["serve_admission_rejections_draining"] == 1
    finally:
        manager.close()


def test_start_pacer_spaces_a_backlog_and_starts_an_idle_lane_at_once():
    metrics = MetricsRegistry()
    pacer = StartPacer(interval_s=0.02, metrics=metrics)
    started = time.perf_counter()
    pacer.wait_turn()
    assert time.perf_counter() - started < 0.015      # idle: no wait
    for _ in range(4):
        pacer.wait_turn()
    # Four more turns claimed back to back sit on a fixed schedule, one
    # interval apart, however late each sleep woke up.
    assert time.perf_counter() - started >= 4 * 0.02
    assert metrics.counters()["serve_starts_paced_total"] == 4
    time.sleep(0.03)
    again = time.perf_counter()
    pacer.wait_turn()
    assert time.perf_counter() - again < 0.015
    assert metrics.counters()["serve_starts_paced_total"] == 4


# ----------------------------------------------------------------------
# Job manager
# ----------------------------------------------------------------------

def test_job_manager_spaces_job_starts_across_lanes(rotowire_lake):
    session = Session(rotowire_lake)
    manager = JobManager(session, workers=2)
    try:
        jobs = [manager.submit("Who is the tallest player?", "burst")
                for _ in range(5)]
        for job in jobs:
            assert job.wait(30) and job.result.ok
        starts = sorted(job.submitted + job.queue_wait_s for job in jobs)
        gaps = [later - earlier for earlier, later in zip(starts, starts[1:])]
        # take_for_run stamps the start a moment after the slot came due.
        assert min(gaps) >= START_INTERVAL_S * 0.5
        assert session.metrics_registry.counters()[
            "serve_starts_paced_total"] >= 3
    finally:
        manager.close()


def test_job_manager_runs_jobs_and_records_metrics(rotowire_lake):
    session = Session(rotowire_lake)
    manager = JobManager(session, workers=2)
    try:
        jobs = [manager.submit("How many players are taller than 200?",
                               f"client-{i}") for i in range(3)]
        for job in jobs:
            assert job.wait(30)
            assert job.status == "done"
            assert job.result is not None and job.result.ok
        payload = jobs[0].to_dict()
        assert payload["ok"] is True
        assert payload["result"]["kind"] == "value"
        assert payload["queue_wait_ms"] >= 0
        events = [json.loads(line)["event"]
                  for line in jobs[0].events_since(0)[0]]
        assert events[0] == "queued" and events[-1] == "done"
        assert "span" in events
        counters = session.metrics_registry.counters()
        assert counters["serve_jobs_submitted_total"] == 3
        assert counters["serve_jobs_completed_total"] == 3
        histograms = session.metrics_registry.snapshot()["histograms"]
        assert histograms["serve_queue_wait"]["count"] == 3
        assert histograms["serve_job_latency"]["count"] == 3
    finally:
        manager.close()


def test_job_manager_cancel_and_drain(rotowire_lake):
    session = Session(rotowire_lake,
                      brain=SimulatedBrain(latency_seconds=0.2))
    manager = JobManager(session, workers=1, queue_depth=10)
    running = manager.submit("Who is the tallest player?", "a")
    queued = manager.submit("Who is the tallest player?", "a")
    assert manager.cancel(queued.id) == "cancelled"
    assert manager.cancel("missing") == "missing"
    assert queued.finished and queued.status == "cancelled"
    # Drain finishes the in-flight job, then refuses new work.
    assert manager.drain(grace_s=30) is True
    assert running.status == "done"
    assert manager.cancel(running.id) == "finished"
    with pytest.raises(AdmissionError):
        manager.submit("q", "a")


def test_crash_result_resolves_as_worker_error(rotowire_lake):
    session = Session(rotowire_lake)
    manager = JobManager(session, workers=1)

    class Boom(Exception):
        pass

    try:
        job = manager.submit("Who is the tallest player?", "a")
        assert job.wait(30) and job.result.ok
        # The crash path (a non-ReproError escaping the engine) resolves
        # the job with a worker-phase error instead of killing the lane.
        crash = manager._crash_result(job, 0, Boom("engine exploded"))
        assert crash.kind == "error"
        assert crash.trace.errors[0].phase == "worker"
        assert "Boom" in crash.error
        counters = session.metrics_registry.counters()
        assert counters["serve_worker_failures_total"] == 1
    finally:
        manager.close()


def test_finished_jobs_are_frozen_and_cheap_to_keep(artwork_lake,
                                                    monkeypatch):
    """A finished job keeps encoded bodies, not the live result graph:
    500 of them retain at most 9 KB each, and polling one re-serialises
    nothing."""
    import gc
    import tracemalloc

    from repro.core.plan import QueryResult

    queries = ["How many paintings are depicting a sword?",
               "How many paintings are there?",
               "Plot the number of paintings for each century."]
    session = Session(artwork_lake)
    for query in queries:
        session.query(query)
    manager = JobManager(session, workers=2, queue_depth=64,
                         per_client_limit=64, max_jobs_kept=1024)
    try:
        # Lanes, engines and lazily built state exist before measuring.
        for query in queries * 2:
            assert manager.submit(query, "warm-up").wait(30)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for index in range(500):
                job = manager.submit(queries[index % len(queries)], "client")
                assert job.wait(30)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(stat.size_diff
                       for stat in after.compare_to(before, "filename"))
        assert len(manager.jobs()) == 506
        assert retained / 500 <= 9 * 1024, retained / 500

        calls = []
        original = QueryResult.to_dict
        monkeypatch.setattr(
            QueryResult, "to_dict",
            lambda self: calls.append(self) or original(self))
        slim = json.loads(job.encoded())
        assert job.encoded() is job.encoded()  # the frozen bytes
        full = json.loads(job.encoded(trace=True))
        assert not calls
        assert slim["status"] == "done" and slim["ok"] is True
        assert slim["result"]["trace"] is None
        assert full["result"]["trace"]["telemetry"]["spans"]
        assert {**full["result"], "trace": None} == slim["result"]
        # Job.result is decoded from the frozen bodies on demand.
        assert job.result.ok and job.result.trace.physical_steps
        assert job.result.describe() == session.query(job.query).describe()
    finally:
        manager.close()


# ----------------------------------------------------------------------
# Load-test harness
# ----------------------------------------------------------------------

def test_percentile_nearest_rank():
    assert percentile([], 99) == 0.0
    assert percentile([5.0], 50) == 5.0
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100


def test_loadtest_smoke_writes_record(tmp_path):
    output = tmp_path / "BENCH_serve.json"
    record = run_loadtest(LoadTestConfig(
        dataset="rotowire", scale=1.0, clients=2, repeats=1,
        workers=2, queue_depth=4, per_client_limit=4,
        llm_latency_ms=0.0, burst_factor=2,
        output=str(output), quiet=True))
    assert output.exists()
    on_disk = json.loads(output.read_text())
    assert on_disk["benchmark"] == "serve_loadtest"
    for name in ("cold", "warm"):
        record_pass = record["passes"][name]
        assert record_pass["requests"] > 0
        assert record_pass["errors"] == 0
        assert record_pass["p99_ms"] >= record_pass["p50_ms"] > 0
    burst = record["burst"]
    assert burst["submitted"] == 8
    assert burst["accepted"] + burst["rejected_429"] == burst["submitted"]
    assert burst["other_status"] == 0 and burst["unresolved"] == 0
    assert record["metrics"]["counters"]["serve_jobs_completed_total"] > 0
    ok, problems = healthy(record)
    assert ok, problems


def test_loadtest_healthy_flags_problems():
    bad = {
        "passes": {"warm": {"errors": 2, "error_outcomes": ["http_500"]}},
        "burst": {"submitted": 4, "accepted": 1, "rejected_429": 2,
                  "other_status": 1, "unresolved": 1},
    }
    ok, problems = healthy(bad)
    assert not ok
    assert len(problems) == 4
