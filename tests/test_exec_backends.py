"""Session.batch backends: names, parity, and plan shipping.

The contract under test is the one the backend matrix advertises:
serial, thread, and process backends produce identical results for the
same workload — :meth:`BatchReport.canonical_results` byte-identical
under ``json.dumps`` — and differ only in where the work runs.
"""

import json

import pytest

from repro.cachenet import CacheTierServer
from repro.core.batch import BatchReport
from repro.core.cache import Space
from repro.core.plan import ERROR_PHASES, ErrorEvent
from repro.data.catalog import DataLake, DataSource
from repro.data.csvio import read_csv_text, write_csv_text
from repro.datasets import load_lake
from repro.exec import BackendError
from repro.exec.lanes import ProcessLane
from repro.session import Session
from repro.testing.workloads import workload, workload_datasets


def canonical(report: BatchReport) -> str:
    return json.dumps(report.canonical_results(), sort_keys=True)


# ----------------------------------------------------------------------
# Backend names
# ----------------------------------------------------------------------


def test_unknown_backend_name_lists_available(rotowire_lake):
    with pytest.raises(BackendError) as excinfo:
        Session(rotowire_lake).batch(
            ["How many players are taller than 200?"], workers=2,
            backend="quantum")
    message = str(excinfo.value)
    assert "quantum" in message
    for name in ("serial", "thread", "process"):
        assert name in message


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


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_report_counts_cache_activity_once(backend):
    # A report reads hits and misses off its results' telemetry, the
    # same counters /metrics sums, whichever process answered a query;
    # evictions are the session's caches' own.  Small caches make both
    # caches evict.
    with Session("rotowire", plan_cache_size=8,
                 answer_cache_size=64) as session:
        report = session.batch(workload("rotowire", repeats=2),
                               workers=1 if backend == "serial" else 2,
                               backend=backend)
        counters = session.metrics()["counters"]
        answer_evictions = session.answer_cache.evictions
    assert report.num_errors == 0
    assert (report.cache_hits, report.cache_misses,
            report.answer_hits, report.answer_misses) == tuple(
        counters.get(name, 0) for name in (
            "plan_cache_hits", "plan_cache_misses",
            "answer_cache_hits", "answer_cache_misses"))
    assert report.answer_evictions == answer_evictions > 0
    assert report.answer_evictions <= report.answer_misses


def test_default_backend_follows_worker_count(rotowire_lake):
    session = Session(rotowire_lake)
    queries = ["How many players are taller than 200?"]
    assert session.batch(queries).backend == "serial"
    assert session.batch(queries, workers=2).backend == "thread"


# ----------------------------------------------------------------------
# Process backend specifics
# ----------------------------------------------------------------------


def csv_lake(generated) -> DataLake:
    """A hand-built lake of *generated*'s relational tables, each one
    written out as CSV text and read back."""
    lake = DataLake(name="csv")
    for source in generated.sources.values():
        if not source.is_multimodal:
            dtypes = {spec.name: spec.dtype
                      for spec in source.table.schema.columns}
            lake.add_table(source.name,
                           read_csv_text(write_csv_text(source.table),
                                         dtypes),
                           description=source.description)
    return lake


def test_process_backend_runs_a_csv_lake(rotowire_lake):
    queries = [query for query in workload("rotowire", repeats=1)
               if "game" not in query and "points" not in query]
    reports = {}
    for backend, workers in (("serial", 1), ("process", 2)):
        with Session(csv_lake(rotowire_lake)) as session:
            reports[backend] = session.batch(queries, workers=workers,
                                             backend=backend)
            counters = session.metrics()["counters"]
    assert reports["serial"].num_errors == 0
    assert canonical(reports["process"]) == canonical(reports["serial"])
    assert counters.get("worker_failures_total", 0) == 0


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


def test_process_lane_stores_a_reply_with_one_rpc_per_space():
    """With a tier, the parent stores a worker's fresh plan and answers
    with one put per space, however many answers the worker inferred."""
    query = "How many paintings are depicting a sword?"
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        with Session("artwork", cache_url=server.url) as session:
            sent = []
            original = session._cache_client.request

            def request(payload, **kwargs):
                sent.append((payload["op"], payload.get("space")))
                return original(payload, **kwargs)
            session._cache_client.request = request
            report = session.batch([query], workers=1, backend="process")
            assert report.num_errors == 0
            learned = len(session.answer_cache)
        assert learned > 1
        assert sent == [("mput", "plan"), ("mput", "answer")]
        assert len(server.answers) == learned
    finally:
        server.stop()


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


def test_process_lanes_rebuild_when_the_lake_content_changes():
    # Two seeds of one dataset share a *shape* fingerprint (plans
    # transfer) but differ in content; warm lanes built for the old
    # lake must be rebuilt, never serve answers about it.
    query = "Who is the tallest player?"
    with Session(load_lake("rotowire", seed=1)) as session:
        stale = session.batch([query], workers=1, backend="process")
        assert stale.num_errors == 0
        session.lake.add(load_lake("rotowire", seed=2).sources["players"])
        fresh = session.query(query)
        report = session.batch([query], workers=1, backend="process")
        counters = session.metrics()["counters"]
    assert fresh.value != stale.results[0].value  # the lakes differ
    assert report.num_errors == 0
    assert report.results[0].value == fresh.value
    # The rebuilt lane's worker runs on the changed lake itself.
    assert counters.get("worker_failures_total", 0) == 0


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
# Lane staleness: lanes follow lake.version
# ----------------------------------------------------------------------


def test_batches_never_fingerprint_the_lake(monkeypatch):
    def refuse(self):
        raise AssertionError("content_fingerprint called")
    monkeypatch.setattr(DataLake, "content_fingerprint", refuse)
    query = "How many players are taller than 200?"
    with Session("rotowire") as session:
        for backend in ("thread", "process"):
            report = session.batch([query], workers=1, backend=backend)
            assert report.num_errors == 0
        counters = session.metrics()["counters"]
    assert counters.get("worker_failures_total", 0) == 0


def worker_pids(lanes) -> list[int]:
    return [lane._process.pid for lane in lanes
            if isinstance(lane, ProcessLane)]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_lanes_are_kept_until_the_lake_changes(backend):
    # A session keeps its lane objects; a process lane keeps its worker
    # until lake.version moves, then restarts it over the new lake.
    query = "How many players are taller than 200?"
    lake = load_lake("rotowire")
    with Session(lake) as session:
        session.batch([query], workers=2, backend=backend)
        built = list(session._lanes[backend])
        pids = worker_pids(built)
        session.batch([query], workers=2, backend=backend)
        assert session._lanes[backend] == built  # the same lane objects
        assert worker_pids(built) == pids        # and the same workers
        players = lake.source("players")
        lake.add(DataSource(players.name, players.table.head(10),
                            kind=players.kind,
                            description=players.description))
        report = session.batch([query], workers=2, backend=backend)
        assert session._lanes[backend] == built
        restarted = worker_pids(built)
    assert len(restarted) == len(pids)
    assert not set(restarted) & set(pids)
    assert report.num_errors == 0
    assert report.results[0].value == Session(lake).query(query).value


def test_warm_process_batches_ship_no_cache_file_entries(monkeypatch):
    # Warm caches cross the pipe as (key, value) pairs, never as cache
    # file entries (a forked worker inherits the patch).
    query = "How many paintings are depicting a sword?"
    with Session("artwork") as session:
        session.query(query)

        def refuse(*args):
            raise AssertionError("cache file entry built for the pipe")
        monkeypatch.setattr(Space, "entry", refuse)
        monkeypatch.setattr(Space, "read_entry", refuse)
        report = session.batch(
            [query, "What is the earliest inception date of all paintings?"],
            workers=2, backend="process")
        counters = session.metrics()["counters"]
    assert report.num_errors == 0
    assert report.cache_misses == 1 and report.answer_misses == 0
    assert counters.get("worker_failures_total", 0) == 0


# ----------------------------------------------------------------------
# Worker runtime, driven in-process (the pipe contract itself)
# ----------------------------------------------------------------------


def make_worker_payload(session: Session, plans=()) -> dict:
    return {
        "cache_url": None,
        "lake": session.lake,
        "brain": session.brain,
        "config": session.config,
        "planner": None,
        "mapper": None,
        "executor": None,
        "plan_cache_capacity": 128,
        "answer_cache_capacity": 1024,
        "plans": list(plans),
        "answers": [],
        "telemetry": session.telemetry,
    }


def plan_counters(payload: dict) -> dict:
    """The worker's plan-cache hit / miss, read off the result's
    telemetry counters."""
    counters = payload["result"]["trace"]["telemetry"]["counters"]
    return {name: value for name, value in counters.items()
            if name in ("plan_cache_hits", "plan_cache_misses")}


def test_worker_runtime_roundtrip(monkeypatch):
    from repro.exec import procworker
    monkeypatch.setattr(procworker, "_STATE", {})
    session = Session("rotowire")
    query = "How many players are taller than 200?"
    procworker.initialize_worker(make_worker_payload(session))

    payload = procworker.run_worker_query(query)
    assert payload["ok"]
    shipped = payload["plans"]                # synthesized, ships back
    assert plan_counters(payload) == {"plan_cache_misses": 1}
    result = json.loads(json.dumps(payload["result"]))  # JSON-shaped
    assert result["kind"] == "value"
    assert result["value"] == session.query(query).value
    assert shipped == session.plan_cache.items()  # what the parent plans

    warm = procworker.run_worker_query(query)
    assert warm["plans"] == []                # served from the local cache
    assert plan_counters(warm) == {"plan_cache_hits": 1}


def test_worker_initializer_seeds_shipped_plans(monkeypatch):
    from repro.exec import procworker
    monkeypatch.setattr(procworker, "_STATE", {})
    query = "How many players are taller than 200?"
    session = Session("rotowire")
    session.query(query)
    shipped = session.plan_cache.items()      # what the parent ships
    procworker.initialize_worker(make_worker_payload(session, plans=shipped))
    payload = procworker.run_worker_query(query)
    assert payload["ok"]
    assert payload["plans"] == []             # never planned: shipped plan
    assert plan_counters(payload) == {"plan_cache_hits": 1}


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
# Worker error events in the plan IR
# ----------------------------------------------------------------------


def test_worker_failure_event_shape():
    assert "worker" in ERROR_PHASES
    event = ErrorEvent.worker_failure("lane 0 died")
    assert event.phase == "worker"
    assert event.step_index is None
    assert not event.recovered
    assert ErrorEvent.from_dict(event.to_dict()) == event
