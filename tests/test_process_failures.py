"""Batch worker-lane failure paths: crashes, broken pools, timeouts.

The recovery contract, for thread and process lanes alike: any worker
failure records a ``phase="worker"``
:class:`ErrorEvent`, never kills the batch, and every other query still
completes in submission order.  Where the query itself is healthy the
in-parent fallback answers it (event ``recovered=True``); where the
query is poisoned everywhere the result is an error result with both
events on its trace.
"""

import os
import signal
import sys

import pytest

from _poison import (EXIT_MARKER, POISON_MARKER, SLEEP_MARKER,
                     HardExitPlanner, PoisonPlanner, SleepyPlanner,
                     WorkerOnlyPoisonPlanner)
from repro.datasets import load_lake
from repro.exec.lanes import ProcessLane
from repro.llm.brain import SimulatedBrain
from repro.session import Session
from repro.testing.workloads import workload

HEALTHY = [
    "How many players are taller than 200?",
    "Who is the tallest player?",
    "List the names of players taller than 200.",
]


def worker_events(result):
    return [e for e in result.trace.errors if e.phase == "worker"]


def test_poisoned_query_does_not_kill_the_pool():
    queries = [HEALTHY[0], f"{POISON_MARKER} everything", *HEALTHY[1:]]
    with Session("rotowire",
                 planner=PoisonPlanner(SimulatedBrain())) as session:
        report = session.batch(queries, workers=2, backend="process")

        # Submission order is preserved across the failure.
        assert [stat.query for stat in report.stats] == queries
        assert [r.trace.query for r in report.results] == queries

        poisoned = report.results[1]
        assert not poisoned.ok
        events = worker_events(poisoned)
        assert len(events) == 1
        assert "poisoned query" in events[0].message
        # The fallback hit the same poison in the parent: not recovered.
        assert not events[0].recovered
        assert report.num_errors == 1
        assert report.num_ok == len(HEALTHY)

        # The pool survived: re-running the identical workload reuses the
        # warm lanes (affinity is first-occurrence-relative, so the same
        # workload maps to the same lanes and their kept plan caches).
        again = session.batch(queries, workers=2, backend="process")
        assert again.num_errors == 1
        assert again.num_ok == len(HEALTHY)
        assert again.cache_hits >= len(HEALTHY)


def test_poisoned_query_does_not_kill_a_thread_batch():
    # Thread lanes share the process lanes' failure policy: the crash
    # costs the lane its engine, the query re-runs in the parent (and
    # fails there too), and the batch completes in submission order.
    queries = [HEALTHY[0], f"{POISON_MARKER} everything", HEALTHY[1]]
    with Session("rotowire",
                 planner=PoisonPlanner(SimulatedBrain())) as session:
        report = session.batch(queries, workers=2, backend="thread")
        counters = session.metrics()["counters"]
    assert [stat.query for stat in report.stats] == queries
    assert [r.kind for r in report.results] == ["value", "error", "value"]
    poisoned = report.results[1]
    assert [e.phase for e in poisoned.trace.errors] == ["worker", "execution"]
    assert "poisoned query" in poisoned.trace.errors[0].message
    assert counters["worker_failures_total"] == 1


def test_worker_only_crash_falls_back_to_parent():
    queries = [HEALTHY[0], f"{HEALTHY[1]} {POISON_MARKER}", HEALTHY[2]]
    planner = WorkerOnlyPoisonPlanner(SimulatedBrain(), os.getpid())
    with Session("rotowire", planner=planner) as session:
        report = session.batch(queries, workers=2, backend="process")
    # The parent's planner is healthy for this query, so the fallback
    # answers it and the batch finishes clean.
    assert report.num_errors == 0
    rescued = report.results[1]
    assert rescued.ok
    events = worker_events(rescued)
    assert len(events) == 1
    assert "worker-only crash" in events[0].message
    assert events[0].recovered
    # Order preserved; untouched queries unaffected.
    assert [r.trace.query for r in report.results] == queries
    assert report.results[0].ok and report.results[2].ok


def test_worker_only_crash_recovered_result_matches_healthy_run():
    query = f"{HEALTHY[0]} {POISON_MARKER}"
    planner = WorkerOnlyPoisonPlanner(SimulatedBrain(), os.getpid())
    with Session("rotowire", planner=planner) as session:
        report = session.batch([query], workers=1, backend="process")
        healthy = Session("rotowire").query(HEALTHY[0])
    result = report.results[0]
    # The fallback runs the full in-parent engine, so the rescued result
    # carries a real answer plus the worker event prepended to its trace.
    assert result.trace.errors[0].phase == "worker"
    assert result.trace.errors[0].recovered
    assert result.ok
    assert result.value == healthy.value


def test_hard_worker_exit_breaks_pool_but_not_the_batch():
    queries = [HEALTHY[0], f"{HEALTHY[1]} {EXIT_MARKER}", HEALTHY[2]]
    planner = HardExitPlanner(SimulatedBrain(), os.getpid())
    with Session("rotowire", planner=planner) as session:
        report = session.batch(queries, workers=2, backend="process")

        assert [r.trace.query for r in report.results] == queries
        crashed = report.results[1]
        events = worker_events(crashed)
        assert len(events) == 1
        assert "worker crashed" in events[0].message
        assert events[0].recovered  # parent ran it fine (marker is junk
        # for the parser only inside plan(), which never raised here)

        # Lanes were torn down and rebuild lazily: next batch succeeds.
        again = session.batch(HEALTHY, workers=2, backend="process")
        assert again.num_errors == 0


def test_query_timeout_kills_lane_and_falls_back():
    queries = [HEALTHY[0], f"{HEALTHY[1]} {SLEEP_MARKER}", HEALTHY[2]]
    planner = SleepyPlanner(SimulatedBrain(), os.getpid(), seconds=30.0)
    with Session("rotowire", planner=planner) as session:
        report = session.batch(queries, workers=2, backend="process",
                               timeout=2.0)
    assert [r.trace.query for r in report.results] == queries
    slow = report.results[1]
    events = worker_events(slow)
    assert len(events) == 1
    assert "timed out" in events[0].message
    assert events[0].recovered
    assert report.results[0].ok and report.results[2].ok


def test_timed_out_lane_is_rebuilt_before_its_next_query():
    # One lane, the slow query first: the healthy queries queued behind
    # it on the same lane must run on a rebuilt worker, not inherit the
    # killed worker's fate and fall back to the parent.
    queries = [f"{HEALTHY[1]} {SLEEP_MARKER}", HEALTHY[0], HEALTHY[2]]
    planner = SleepyPlanner(SimulatedBrain(), os.getpid(), seconds=30.0)
    with Session("rotowire", planner=planner) as session:
        report = session.batch(queries, workers=1, backend="process",
                               timeout=2.0)
        counters = session.metrics()["counters"]
    assert report.num_errors == 0
    events = report.worker_failures
    assert len(events) == 1
    assert "timed out" in events[0].message and events[0].recovered
    assert worker_events(report.results[0]) == events
    assert counters["worker_failures_total"] == 1


def test_concurrent_lane_folds_lose_no_update():
    # Four lanes on a two-core box fold their replies into one session
    # from four threads; a tiny switch interval makes a lost
    # update in the shared caches, registry or report likely.
    queries = workload("rotowire", repeats=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Session("rotowire") as session:
            report = session.batch(queries, workers=4, backend="process",
                                   timeout=60.0)
            counters = session.metrics()["counters"]
            cached_plans = len(session.plan_cache)
    finally:
        sys.setswitchinterval(interval)
    assert report.num_errors == 0 and not report.worker_failures
    assert report.cache_misses == cached_plans == len(set(queries))
    assert report.cache_hits + report.cache_misses == len(queries)
    assert counters["queries_total"] == len(queries)


def test_lane_worker_dies_on_sigterm_under_a_parent_handler():
    # `repro serve` catches SIGTERM to drain; a forked lane worker must
    # not inherit that, or multiprocessing's exit-time terminate() of the
    # worker would be ignored and the server's exit would hang on it.
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    lane = ProcessLane(Session("rotowire"), 0, start_method="fork")
    try:
        assert lane.run(HEALTHY[0]).ok
        lane._process.terminate()
        lane._process.join(timeout=10)
        assert lane._process.exitcode == -signal.SIGTERM
    finally:
        signal.signal(signal.SIGTERM, previous)
        lane.close()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_start_methods_answer_correctly(start_method):
    import multiprocessing
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} unavailable on this platform")
    values = []
    with Session("rotowire") as session:
        for _ in ("loaded", "changed"):
            serial = session.query(HEALTHY[1])
            lane = ProcessLane(session, 0, start_method=start_method)
            try:
                result = lane.run(HEALTHY[1])
            finally:
                lane.close()
            assert result.ok
            assert result.value == serial.value
            values.append(result.value)
            # The next lane answers over the changed lake itself, not a
            # regenerated one: under spawn it runs on the pickled lake.
            session.lake.add(load_lake("rotowire", seed=2).sources["players"])
    assert values[0] != values[1]  # the lakes differ
