"""The execution-backend subsystem: registry, parity, and plan shipping.

The contract under test is the one the backend matrix advertises:
serial, thread, and process backends produce identical results for the
same workload — :meth:`BatchReport.canonical_results` byte-identical
under ``json.dumps`` — and differ only in where the work runs.
"""

import json

import pytest

from repro.benchmarks.workloads import workload, workload_datasets
from repro.core.batch import BatchReport
from repro.core.plan import ERROR_PHASES, ErrorEvent
from repro.datasets import LakeSpec, load_lake
from repro.exec import (BackendError, ProcessBackend, SerialBackend,
                        ThreadBackend, backend_names, create_backend)
from repro.session import Session


def canonical(report: BatchReport) -> str:
    return json.dumps(report.canonical_results(), sort_keys=True)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_has_builtin_backends():
    assert set(backend_names()) >= {"serial", "thread", "process"}


def test_create_backend_instances():
    assert isinstance(create_backend("serial"), SerialBackend)
    assert isinstance(create_backend("thread"), ThreadBackend)
    assert isinstance(create_backend("process"), ProcessBackend)


def test_create_backend_unknown_name_lists_available():
    with pytest.raises(BackendError) as excinfo:
        create_backend("quantum")
    message = str(excinfo.value)
    assert "quantum" in message
    for name in backend_names():
        assert name in message


def test_session_rejects_non_backend_object():
    session = Session("rotowire")
    with pytest.raises(TypeError):
        session.batch(["How many players are taller than 200?"],
                      backend=object())


# ----------------------------------------------------------------------
# Cross-backend parity (the acceptance contract)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dataset", workload_datasets())
def test_backends_produce_identical_results(dataset):
    queries = workload(dataset, repeats=2)
    reports = {}
    for backend, workers in (("serial", 1), ("thread", 3), ("process", 3)):
        with Session(load_lake(dataset)) as session:
            reports[backend] = session.batch(queries, workers=workers,
                                             backend=backend)
    assert reports["serial"].num_errors == 0
    payload = canonical(reports["serial"])
    assert canonical(reports["thread"]) == payload
    assert canonical(reports["process"]) == payload
    assert reports["serial"].backend == "serial"
    assert reports["thread"].backend == "thread"
    assert reports["process"].backend == "process"


def test_default_backend_follows_worker_count(rotowire_lake):
    session = Session(rotowire_lake)
    queries = ["How many players are taller than 200?"]
    assert session.batch(queries).backend == "serial"
    assert session.batch(queries, workers=2).backend == "thread"


def test_explicit_backend_instance_is_used(rotowire_lake):
    backend = ThreadBackend()
    report = Session(rotowire_lake).batch(
        ["How many players are taller than 200?"], workers=1,
        backend=backend)
    assert report.backend == "thread"


# ----------------------------------------------------------------------
# Process backend specifics
# ----------------------------------------------------------------------


def test_process_backend_needs_lake_spec(rotowire_lake):
    # Lakes assembled by hand (the conftest fixtures use as_lake())
    # carry no generation recipe, so workers could not rebuild them.
    assert rotowire_lake.spec is None
    session = Session(rotowire_lake)
    with pytest.raises(BackendError) as excinfo:
        session.batch(["How many players are taller than 200?"],
                      backend="process")
    assert "load_lake" in str(excinfo.value)


def test_process_backend_ships_plans_both_ways():
    queries = workload("rotowire", repeats=1)
    with Session("rotowire") as session:
        # Cold process batch: every plan is synthesized in a worker, yet
        # the parent cache ends up warm (fresh plans ship back).
        assert len(session.plan_cache) == 0
        cold = session.batch(queries, workers=2, backend="process")
        assert cold.num_errors == 0
        assert len(session.plan_cache) == len(set(queries))

    with Session("rotowire") as warm_session:
        # Pre-warm the parent cache in-process, then batch over fresh
        # worker lanes: the shipped plans mean no worker ever plans.
        warm_session.batch(queries, backend="serial")
        report = warm_session.batch(queries, workers=2, backend="process")
        assert report.num_errors == 0
        assert report.cache_misses == 0
        assert all(stat.plan_cache_hit for stat in report.stats)


def test_process_backend_ships_answers_both_ways():
    query = "How many paintings are depicting a sword?"
    with Session("artwork") as session:
        # Cold process batch: inference happens in a worker, yet the
        # fresh answers land in the parent cache (shipped back).
        assert len(session.answer_cache) == 0
        session.batch([query], workers=1, backend="process")
        parent_answers = len(session.answer_cache)
        assert parent_answers > 0

        # A session pre-warmed with those answers (the restart path:
        # --answer-cache-file) ships them into fresh worker lanes, so no
        # worker re-runs inference.
        with Session("artwork",
                     answer_cache=session.answer_cache) as restarted:
            report = restarted.batch([query], workers=1, backend="process")
    assert report.num_errors == 0
    assert report.answer_misses == 0
    assert report.answer_hits > 0


def test_process_worker_lanes_stay_warm_across_batches():
    queries = workload("rotowire", repeats=1)
    with Session("rotowire") as session:
        cold = session.batch(queries, workers=2, backend="process")
        warm = session.batch(queries, workers=2, backend="process")
    assert cold.num_errors == warm.num_errors == 0
    # Deterministic query->lane affinity: the warm pass must behave like
    # a serial warm pass (100% plan hits, zero answer misses).
    assert warm.cache_misses == 0
    assert warm.answer_misses == 0
    assert warm.answer_hits > 0


def test_shared_backend_rebuilds_lanes_for_same_shaped_lake():
    # Two seeds of one dataset share a *shape* fingerprint (plans
    # transfer) but differ in content; a backend reused across sessions
    # must rebuild its lanes, never serve answers about the first lake.
    query = "Who is the tallest player?"
    backend = ProcessBackend()
    try:
        answers = {}
        for seed in (1, 2):
            with Session(load_lake("rotowire", seed=seed)) as session:
                serial = session.query(query)
                report = session.batch([query], workers=1, backend=backend)
                assert report.num_errors == 0
                assert report.results[0].value == serial.value
                answers[seed] = serial.value
        assert answers[1] != answers[2]  # the lakes genuinely differ
    finally:
        backend.close()


def test_session_close_is_idempotent():
    session = Session("rotowire")
    session.batch(["How many players are taller than 200?"],
                  backend="process")
    session.close()
    session.close()
    # The session stays usable after close (lanes are rebuilt lazily).
    report = session.batch(["How many players are taller than 200?"],
                           backend="process")
    assert report.num_errors == 0
    session.close()


# ----------------------------------------------------------------------
# Worker runtime, driven in-process (the pipe contract itself)
# ----------------------------------------------------------------------


def make_worker_payload(session: Session, plans=()) -> dict:
    return {
        "lake_spec": session.lake.spec.to_dict(),
        "content_fingerprint": session.lake.content_fingerprint(),
        "brain": session.brain,
        "config": session.config,
        "planner": None,
        "mapper": None,
        "executor": None,
        "plan_cache_capacity": 128,
        "answer_cache_capacity": 1024,
        "plans": list(plans),
        "answers": [],
    }


def test_worker_runtime_roundtrip(monkeypatch):
    from repro.exec import procworker
    monkeypatch.setattr(procworker, "_STATE", {})
    session = Session("rotowire")
    query = "How many players are taller than 200?"
    procworker.initialize_worker(make_worker_payload(session))

    payload = procworker.run_worker_query(query)
    assert payload["ok"]
    assert payload["fresh_plan"] is not None  # synthesized, ships back
    assert payload["plan_delta"][1] == 1      # one miss
    result = json.loads(json.dumps(payload["result"]))  # JSON-shaped
    assert result["kind"] == "value"
    assert result["value"] == session.query(query).value

    warm = procworker.run_worker_query(query)
    assert warm["fresh_plan"] is None         # served from the local cache
    assert warm["plan_delta"][0] == 1         # one hit


def test_worker_initializer_seeds_shipped_plans(monkeypatch):
    from repro.exec import procworker
    monkeypatch.setattr(procworker, "_STATE", {})
    query = "How many players are taller than 200?"
    session = Session("rotowire")
    session.query(query)
    (_key, entry), = session.plan_cache.items()  # what the parent ships
    procworker.initialize_worker(make_worker_payload(
        session, plans=[{"query": query, "plan": entry.to_dict()}]))
    payload = procworker.run_worker_query(query)
    assert payload["ok"]
    assert payload["fresh_plan"] is None      # never planned: shipped plan
    assert payload["plan_delta"][0] == 1


def test_worker_initializer_rejects_fingerprint_mismatch(monkeypatch):
    from repro.exec import procworker
    monkeypatch.setattr(procworker, "_STATE", {})
    session = Session("rotowire")
    payload = make_worker_payload(session)
    payload["content_fingerprint"] = "not-the-real-lake"
    with pytest.raises(RuntimeError) as excinfo:
        procworker.initialize_worker(payload)
    assert "not deterministic" in str(excinfo.value)


def test_worker_crash_payload_shape(monkeypatch):
    from _poison import POISON_MARKER, PoisonPlanner
    from repro.exec import procworker
    from repro.llm.brain import SimulatedBrain
    monkeypatch.setattr(procworker, "_STATE", {})
    session = Session("rotowire", planner=PoisonPlanner(SimulatedBrain()))
    payload = make_worker_payload(session)
    payload["planner"] = session.planner
    procworker.initialize_worker(payload)
    crash = procworker.run_worker_query(f"{POISON_MARKER} anything")
    assert not crash["ok"]
    assert "poisoned query" in crash["error"]
    assert "RuntimeError" in crash["error"]
    assert "traceback" in crash


# ----------------------------------------------------------------------
# LakeSpec
# ----------------------------------------------------------------------


def test_lake_spec_roundtrip_and_deterministic_build():
    spec = LakeSpec(dataset="rotowire", seed=3, scale=0.5)
    assert LakeSpec.from_dict(spec.to_dict()) == spec
    assert spec.build().fingerprint() == spec.build().fingerprint()


def test_load_lake_attaches_spec():
    lake = load_lake("artwork", seed=5, scale=0.25)
    assert lake.spec == LakeSpec(dataset="artwork", seed=5, scale=0.25)
    assert lake.spec.build().fingerprint() == lake.fingerprint()


# ----------------------------------------------------------------------
# Worker error events in the plan IR
# ----------------------------------------------------------------------


def test_worker_failure_event_shape():
    assert "worker" in ERROR_PHASES
    event = ErrorEvent.worker_failure("lane 0 died")
    assert event.phase == "worker"
    assert event.step_index is None
    assert not event.recovered
    assert ErrorEvent.from_dict(event.to_dict()) == event
