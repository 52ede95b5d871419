"""Tests for the batch runner and the LRU contract of both caches."""

import pytest
from _caches import CACHE_CLASSES, key, value

from repro import Session

BATCH = [
    "How many players are taller than 200?",
    "How many games did the Heat win?",
    "List the names of players taller than 200.",
    "Plot the average height of players per position.",
    "Who is the tallest player?",
    "How many players are taller than 200?",
    "How many games did the Heat win?",
    "Plot the average height of players per position.",
    "Who is the tallest player?",
    "List the names of players taller than 200.",
    "How many players are taller than 200?",
    "Who is the tallest player?",
]


def test_cache_hits_and_misses(each_cache):
    for label, cache in each_cache(capacity=4):
        assert cache.get(key(cache, "q")) is cache.space.miss, label
        cache.put(key(cache, "q"), value(cache, "a"))
        assert cache.get(key(cache, "q")) == value(cache, "a"), label
        assert key(cache, "q") in cache
        assert cache.hits == 1 and cache.misses == 1, label
        assert cache.hit_rate == 0.5


def test_cache_is_keyed_on_fingerprint_too(each_cache):
    for label, cache in each_cache(capacity=4):
        cache.put(key(cache, "q", fingerprint="fp1"), value(cache, "a"))
        assert cache.get(key(cache, "q", fingerprint="fp2")) \
            is cache.space.miss, label


def test_cache_evicts_least_recently_used(each_cache):
    for label, cache in each_cache(capacity=2):
        a, b, c = (key(cache, tag) for tag in "abc")
        cache.put(a, value(cache, "a"))
        cache.put(b, value(cache, "b"))
        assert cache.get(a) is not cache.space.miss  # refresh "a"
        cache.put(c, value(cache, "c"))              # evicts "b"
        assert cache.evictions == 1, label
        assert b not in cache, label
        assert a in cache and c in cache, label


def test_cache_rejects_non_positive_capacity():
    for cache_cls in CACHE_CLASSES:
        with pytest.raises(ValueError):
            cache_cls(capacity=0)


def test_batch_runner_reports_cache_and_timings(rotowire_lake):
    session = Session(rotowire_lake, plan_cache_size=32)
    report = session.batch(BATCH)

    assert report.num_queries == len(BATCH) >= 10
    assert report.num_errors == 0, [s.query for s in report.stats
                                    if not s.ok]
    # 5 distinct queries, 7 repeats → the cache must have hit.
    assert report.cache_misses == 5
    assert report.cache_hits == 7
    assert report.cache_hit_rate > 0.5
    assert [s.plan_cache_hit for s in report.stats[:5]] == [False] * 5
    assert all(s.plan_cache_hit for s in report.stats[5:])
    # Per-stage wall clock is accounted for.
    for stage in ("discovery", "planning", "mapping", "execution"):
        assert stage in report.timings
        assert report.timings[stage] >= 0.0
    assert report.wall_seconds > 0.0
    assert report.total_steps == sum(s.steps for s in report.stats) > 0


def test_batch_report_renders_summary(rotowire_lake):
    session = Session(rotowire_lake, plan_cache_size=32)
    report = session.batch(BATCH[:3])
    text = report.render()
    assert "plan cache" in text
    assert "per-stage wall clock" in text
    assert "execution" in text
    for stat in report.stats:
        assert stat.query in text
