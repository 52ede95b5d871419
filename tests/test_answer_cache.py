"""Tests for the answer cache: unit behaviour, fingerprints, and the
VQA / TextQA / Image Select integration through the engine."""

import threading

import numpy as np
import pytest
from _caches import CACHE_CLASSES, key, value

from repro import Session
from repro.core.answer_cache import MISS, AnswerCache, text_fingerprint
from repro.core.engine import Engine
from repro.vision.image import Image


def test_get_returns_miss_sentinel_not_none(each_cache):
    for label, cache in each_cache(capacity=4):
        if cache.space.name != "answer":
            continue
        assert cache.get(("fp", "q", "int")) is MISS
        cache.put(("fp", "q", "int"), None)  # None is a legitimate answer
        assert cache.get(("fp", "q", "int")) is None, label
        assert cache.hits == 1 and cache.misses == 1, label


def test_hit_miss_eviction_accounting(each_cache):
    for label, cache in each_cache(capacity=2):
        a, b, c = (key(cache, tag) for tag in "abc")
        cache.put(a, value(cache, "a"))
        cache.put(b, value(cache, "b"))
        assert cache.get(a) == value(cache, "a")  # refresh "a"
        cache.put(c, value(cache, "c"))                   # evicts "b"
        assert cache.evictions == 1, label
        assert b not in cache, label
        if cache.tier is None:
            assert cache.get(b) is cache.space.miss, label
            expected, hit_rate = (1, 1, 1), 0.5
        else:
            # The front evicted "b", the tier still holds it: a hit, and
            # installing it evicts the front's oldest entry, "a".
            assert cache.get(b) == value(cache, "b"), label
            assert a not in cache, label
            expected, hit_rate = (2, 0, 2), 1.0
        assert cache.snapshot() == expected, label
        assert cache.hit_rate == hit_rate, label
        assert len(cache) == 2, label
        assert cache.clear() == 2, label
        assert len(cache) == 0, label
        assert cache.snapshot() == expected, label  # clear keeps counters


def test_rejects_non_positive_capacity():
    for cache_cls in CACHE_CLASSES:
        with pytest.raises(ValueError):
            cache_cls(capacity=0)
        with pytest.raises(ValueError):
            cache_cls(capacity=-1)


def test_keys_distinguish_question_and_answer_type():
    cache = AnswerCache()
    cache.put(("fp", "how many dogs?", "int"), 2)
    assert cache.get(("fp", "how many dogs?", "str")) is MISS
    assert cache.get(("fp", "how many cats?", "int")) is MISS
    assert cache.get(("fp", "how many dogs?", "int")) == 2


def test_image_fingerprint_is_content_addressed():
    pixels = np.zeros((4, 4, 3), dtype=np.uint8)
    a = Image(pixels, path="img/1.png")
    b = Image(pixels.copy(), path="img/1.png")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() is a._fingerprint  # memoized
    different_pixels = pixels.copy()
    different_pixels[0, 0, 0] = 255
    assert Image(different_pixels, "img/1.png").fingerprint() \
        != a.fingerprint()
    assert Image(pixels, "img/2.png").fingerprint() != a.fingerprint()


def test_text_fingerprint_is_content_addressed():
    assert text_fingerprint("abc") == text_fingerprint("abc")
    assert text_fingerprint("abc") != text_fingerprint("abd")


def test_concurrent_hammering_keeps_counters_consistent(each_cache):
    rounds = 200
    for label, cache in each_cache(capacity=16):
        def hammer(worker: int) -> None:
            for i in range(rounds):
                tag = f"k{i % 24}"
                if cache.get(key(cache, tag)) is cache.space.miss:
                    cache.put(key(cache, tag), value(cache, tag))

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), label
        assert cache.hits + cache.misses == 8 * rounds, label
        assert len(cache) <= 16, label


def _run_twice(lake, query):
    """Run *query* twice through one session sharing one answer cache."""
    cache = AnswerCache()
    session = Session(lake, answer_cache=cache)
    first = session.query(query)
    assert first.ok, first.error
    hits_0, misses_0, _ = cache.snapshot()
    second = session.query(query)
    assert second.ok, second.error
    hits_1, misses_1, _ = cache.snapshot()
    return first, second, (hits_0, misses_0), (hits_1, misses_1)


def test_visual_qa_answers_are_memoized(artwork_lake):
    first, second, (hits_0, misses_0), (hits_1, misses_1) = _run_twice(
        artwork_lake, "How many paintings are depicting a sword?")
    assert hits_0 == 0 and misses_0 > 0   # cold: every image probed
    assert misses_1 == misses_0           # warm: no new inference
    assert hits_1 == misses_0             # ... every probe served cached
    assert first.value == second.value


def test_image_select_is_memoized(artwork_lake):
    first, second, (hits_0, misses_0), (hits_1, misses_1) = _run_twice(
        artwork_lake, "List the titles of paintings depicting a crown.")
    assert hits_0 == 0 and misses_0 > 0
    assert misses_1 == misses_0
    assert hits_1 == misses_0
    assert first.table.equals(second.table)


def test_text_qa_answers_are_memoized(rotowire_lake):
    first, second, (hits_0, misses_0), (hits_1, misses_1) = _run_twice(
        rotowire_lake, "Plot the total number of points scored by each team.")
    assert hits_0 == 0 and misses_0 > 0   # cold: every report probed
    assert misses_1 == misses_0
    assert hits_1 == misses_0
    assert first.plot.y_values == second.plot.y_values


def test_cached_answers_match_uncached_run(artwork_lake):
    query = "How many paintings are depicting a sword?"
    uncached = Engine(artwork_lake).query(query)
    cached = Session(artwork_lake,
                     answer_cache=AnswerCache()).query(query)
    assert uncached.ok and cached.ok
    assert uncached.value == cached.value


def test_engine_without_cache_has_no_cache_side_effects(rotowire_lake):
    engine = Engine(rotowire_lake)
    assert engine.answer_cache is None
    result = engine.query("How many games did the Heat win?")
    assert result.ok
