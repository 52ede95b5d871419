"""The job queue + admission layer without HTTP in front: the
thread-level semantics the server builds on."""

from __future__ import annotations

import json
import os
import time

import pytest

from _poison import (EXIT_MARKER, POISON_MARKER, HardExitPlanner,
                     PoisonPlanner, WorkerOnlyPoisonPlanner)
from repro.data.catalog import DataSource
from repro.datasets import load_lake
from repro.llm.brain import SimulatedBrain
from repro.serve import jobs as jobs_module
from repro.serve.admission import AdmissionController, AdmissionError
from repro.serve.jobs import Job, JobManager
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
                {"query": "q", "timeout_s": float("nan")},
                {"query": "q", "timeout_s": float("inf")},
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


# ----------------------------------------------------------------------
# Job manager
# ----------------------------------------------------------------------

def test_a_burst_starts_jobs_without_sleeping(rotowire_lake, monkeypatch):
    # A lane takes the next queued job as soon as it is free: nothing on
    # the start path waits for a slot.
    def refuse(seconds: float) -> None:
        raise AssertionError(f"time.sleep({seconds}) on the start path")

    session = Session(rotowire_lake)
    session.query("Who is the tallest player?")  # warm: no LLM call
    monkeypatch.setattr(time, "sleep", refuse)
    manager = JobManager(session, workers=2)
    try:
        jobs = [manager.submit("Who is the tallest player?", "burst")
                for _ in range(5)]
        for job in jobs:
            assert job.wait(30) and job.result.ok
        assert {job.worker_id for job in jobs} <= {0, 1}
        assert session.metrics_registry.counters()[
            "serve_jobs_completed_total"] == 5
    finally:
        manager.close()


def _record_live_logs(monkeypatch) -> dict[str, list[bytes]]:
    """Patch :meth:`Job._resolve` to record, per job id, the lines a live
    reader of ``events_since(0)`` got just before the log was packed."""
    live: dict[str, list[bytes]] = {}
    original = Job._resolve

    def resolve(job: Job) -> None:
        live[job.id] = list(job._events)
        original(job)

    monkeypatch.setattr(Job, "_resolve", resolve)
    return live


def _assert_packed_log_replays(job: Job, lines: list[bytes]) -> None:
    assert lines and lines[-1].endswith(b"\n")
    for index in range(len(lines) + 2):
        assert job.events_since(index) == (lines[index:], True)
    job.emit({"event": "late"})  # dropped after resolution
    assert job.events_since(0) == (lines, True)


def test_a_finished_jobs_packed_log_replays_the_live_lines(rotowire_lake,
                                                          monkeypatch):
    live = _record_live_logs(monkeypatch)
    manager = JobManager(Session(rotowire_lake), workers=1)
    try:
        job = manager.submit("Who is the tallest player?", "reader")
        assert job.wait(30) and job.result.ok
    finally:
        manager.close()
    lines = live[job.id]
    events = [json.loads(line)["event"] for line in lines]
    assert events[:2] == ["queued", "started"] and events[-1] == "done"
    assert "span" in events
    _assert_packed_log_replays(job, lines)


def test_a_cancelled_jobs_packed_log_replays_the_live_lines(monkeypatch):
    live = _record_live_logs(monkeypatch)
    job = Job("q000001-abcdef", "Who is the tallest player?", "reader",
              timeout_s=None)
    assert job.cancel()
    lines = live[job.id]
    assert [json.loads(line)["event"] for line in lines] == ["queued", "done"]
    _assert_packed_log_replays(job, lines)


def test_a_finished_job_holds_the_shared_event_and_a_packed_log(
        rotowire_lake):
    manager = JobManager(Session(rotowire_lake), workers=1)
    try:
        done = manager.submit("Who is the tallest player?", "keeper")
        assert done.wait(30)
    finally:
        manager.close()
    cancelled = Job("q000002-abcdef", "q", "keeper", timeout_s=None)
    assert cancelled.cancel()
    for job in (done, cancelled):
        assert job._finished is jobs_module._RESOLVED
        assert type(job._events) is bytes
        assert job.finished and job.wait(0)


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
    session = Session(rotowire_lake,
                      planner=PoisonPlanner(SimulatedBrain()))
    manager = JobManager(session, workers=1)
    try:
        # A non-ReproError escaping a thread lane's engine resolves the
        # job with a worker-phase error; the lane replaces its engine.
        crash = manager.submit(f"Who is the tallest player? {POISON_MARKER}",
                               "a")
        assert crash.wait(30)
        result = crash.result
        assert result.kind == "error"
        events = result.trace.errors
        assert len(events) == 1 and events[0].phase == "worker"
        assert not events[0].recovered and events[0].worker_id == 0
        assert "RuntimeError" in result.error
        assert "poisoned query" in result.error
        counters = session.metrics_registry.counters()
        assert counters["serve_worker_failures_total"] == 1
        healthy = manager.submit("Who is the tallest player?", "a")
        assert healthy.wait(30) and healthy.result.ok
    finally:
        manager.close()


def _process_lane_manager(planner_class):
    session = Session(load_lake("rotowire"),
                      planner=planner_class(SimulatedBrain(), os.getpid()))
    return session, JobManager(session, workers=1, lane_backend="process")


def test_process_lane_hard_exit_resolves_as_worker_error():
    session, manager = _process_lane_manager(HardExitPlanner)
    try:
        crash = manager.submit(f"Who is the tallest player? {EXIT_MARKER}",
                               "a")
        assert crash.wait(60)
        result = crash.result
        assert result.kind == "error"
        events = result.trace.errors
        assert len(events) == 1 and events[0].phase == "worker"
        assert not events[0].recovered and events[0].worker_id == 0
        assert "worker crashed" in result.error
        counters = session.metrics_registry.counters()
        assert counters["serve_worker_failures_total"] == 1
        # The lost worker is rebuilt for the next job.
        healthy = manager.submit("Who is the tallest player?", "a")
        assert healthy.wait(60) and healthy.result.ok
        assert not healthy.result.trace.errors
    finally:
        manager.close()


def test_process_lane_worker_only_crash_is_recovered_in_parent():
    session, manager = _process_lane_manager(WorkerOnlyPoisonPlanner)
    try:
        job = manager.submit(f"Who is the tallest player? {POISON_MARKER}",
                             "a")
        assert job.wait(60)
        result = job.result
        assert result.ok
        assert result.value == Session(load_lake("rotowire")).query(
            "Who is the tallest player?").value
        events = [event for event in result.trace.errors
                  if event.phase == "worker"]
        assert len(events) == 1 and events[0].recovered
        assert "worker-only crash" in events[0].message
        counters = session.metrics_registry.counters()
        assert counters["serve_worker_failures_total"] == 1
    finally:
        manager.close()


@pytest.mark.parametrize("lane_backend", ["thread", "process"])
def test_serve_lanes_follow_lake_changes(lane_backend):
    query = "How many players are taller than 200?"
    lake = load_lake("rotowire")
    session = Session(lake)
    manager = JobManager(session, workers=1, lane_backend=lane_backend)
    try:
        before = manager.submit(query, "a")
        assert before.wait(60) and before.result.ok
        players = lake.source("players")
        lake.add(DataSource(players.name, players.table.head(10),
                            kind=players.kind,
                            description=players.description))
        after = manager.submit(query, "a")
        assert after.wait(60) and after.result.ok
    finally:
        manager.close()
    expected = Session(lake).query(query).value
    assert expected != before.result.value  # the change shows
    assert after.result.value == expected


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
