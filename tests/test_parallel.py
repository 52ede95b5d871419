"""Tests for the parallel batch runner and the thread-safe plan cache."""

import threading

import pytest

from repro import Session
from repro.core.batch import PlanCache
from repro.core.plan import LogicalPlan, LogicalStep
from test_batch import BATCH


def test_rejects_non_positive_workers(rotowire_lake):
    with pytest.raises(ValueError):
        Session(rotowire_lake).batch(BATCH[:1], workers=0)


def test_parallel_results_match_serial(rotowire_lake):
    serial = Session(rotowire_lake, plan_cache_size=32).batch(BATCH)
    parallel = Session(rotowire_lake, plan_cache_size=32).batch(BATCH,
                                                                workers=4)

    assert parallel.num_queries == serial.num_queries
    assert parallel.num_errors == serial.num_errors == 0
    # Reports are line-for-line comparable: submission order is preserved.
    for mine, theirs in zip(parallel.stats, serial.stats):
        assert mine.query == theirs.query
        assert mine.kind == theirs.kind
        assert mine.ok == theirs.ok
    for mine, theirs in zip(parallel.results, serial.results):
        assert mine.describe() == theirs.describe()
        if mine.kind == "value":
            assert mine.value == theirs.value


def test_parallel_cache_accounting(rotowire_lake):
    session = Session(rotowire_lake, plan_cache_size=32)
    report = session.batch(BATCH, workers=4)
    assert report.workers == 4
    # 5 distinct queries; with concurrent workers a distinct query may be
    # planned more than once (two workers miss before one publishes), but
    # never fewer, and all later repeats must hit.
    assert report.cache_misses >= 5
    assert report.cache_hits == len(BATCH) - report.cache_misses
    assert report.cache_hits + report.cache_misses == len(BATCH)
    # TextQA answers were memoized across queries.
    assert report.answer_hits + report.answer_misses > 0


def test_parallel_report_clocks(rotowire_lake):
    report = Session(rotowire_lake).batch(BATCH, workers=4)
    assert report.elapsed_seconds > 0.0
    assert report.wall_seconds > 0.0
    # Serial-equivalent seconds sum per-query totals and therefore cannot
    # undercut the real elapsed time by more than scheduling noise.
    assert report.queries_per_second == pytest.approx(
        len(BATCH) / report.elapsed_seconds)
    assert report.speedup == pytest.approx(
        report.wall_seconds / report.elapsed_seconds)


def test_serial_report_records_both_clocks(rotowire_lake):
    report = Session(rotowire_lake).batch(BATCH[:3])
    assert report.elapsed_seconds > 0.0
    # With one worker the two clocks agree up to bookkeeping overhead.
    assert report.wall_seconds <= report.elapsed_seconds
    assert report.workers == 1


def test_second_run_is_warm(rotowire_lake):
    session = Session(rotowire_lake)
    cold = session.batch(BATCH, workers=2)
    warm = session.batch(BATCH, workers=2)
    # Per-run accounting: the warm report counts only its own lookups.
    assert warm.cache_hits == len(BATCH)
    assert warm.cache_misses == 0
    assert warm.answer_misses == 0
    assert warm.answer_hits >= cold.answer_misses


def test_parallel_render_mentions_workers(rotowire_lake):
    report = Session(rotowire_lake).batch(BATCH[:3], workers=2)
    text = report.render()
    assert "2 worker(s)" in text
    assert "serial-equivalent" in text
    assert "answer cache" in text


def _plan(tag: str) -> LogicalPlan:
    return LogicalPlan(steps=[LogicalStep(index=1, description=tag)])


def test_plan_cache_survives_concurrent_hammering():
    cache = PlanCache(capacity=8)
    rounds = 300
    errors: list[Exception] = []

    def hammer(worker: int) -> None:
        try:
            for i in range(rounds):
                key = (f"q{i % 12}", "fp")
                if cache.get(key) is None:
                    cache.put(key, _plan(f"{worker}:{i}"))
        except Exception as exc:  # pragma: no cover - the test then fails
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert cache.hits + cache.misses == 8 * rounds
    assert len(cache) <= 8
    assert 0.0 <= cache.hit_rate <= 1.0


def test_plan_cache_snapshot_is_consistent_triple():
    cache = PlanCache(capacity=2)
    cache.put(("a", "fp"), _plan("a"))
    cache.get(("a", "fp"))
    cache.get(("b", "fp"))
    assert cache.snapshot() == (1, 1, 0)
