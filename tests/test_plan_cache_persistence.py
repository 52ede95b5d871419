"""Cache save/load over both spaces; persisted plans serve warm hits."""

import json

import pytest
from _caches import CACHE_CLASSES, key, value

from repro import Session
from repro.core.answer_cache import ANSWER_CACHE_FORMAT
from repro.core.batch import PLAN_CACHE_FORMAT, PLAN_SPACE, PlanCache


def test_save_and_load_restore_entries(tmp_path):
    for cache_cls in CACHE_CLASSES:
        cache = cache_cls(capacity=8)
        cache.put(key(cache, "q1"), value(cache, "one"))
        cache.put(key(cache, "q2"), value(cache, "two"))
        path = tmp_path / f"{cache.space.name}.json"
        assert cache.save(path) == 2

        restored = cache_cls.load(path)
        assert len(restored) == 2
        assert restored.capacity == 8
        assert restored.get(key(cache, "q1")) == value(cache, "one")
        assert restored.get(key(cache, "q2")) == value(cache, "two")
        assert restored.get(key(cache, "q3")) is cache.space.miss
        # Counters start fresh: 2 hits + 1 miss from the lines above only.
        assert restored.snapshot() == (2, 1, 0)


def test_load_preserves_lru_order(tmp_path):
    for cache_cls in CACHE_CLASSES:
        cache = cache_cls(capacity=4)
        for tag in ("a", "b", "c"):
            cache.put(key(cache, tag), value(cache, tag))
        cache.get(key(cache, "a"))  # refresh "a": eviction order b, c, a
        path = tmp_path / f"{cache.space.name}.json"
        cache.save(path)

        restored = cache_cls.load(path, capacity=3)
        restored.put(key(cache, "d"), value(cache, "d"))  # evicts "b"
        assert key(cache, "b") not in restored
        assert key(cache, "a") in restored and key(cache, "c") in restored


def test_load_clamps_to_capacity(tmp_path):
    for cache_cls in CACHE_CLASSES:
        cache = cache_cls(capacity=8)
        for i in range(6):
            cache.put(key(cache, f"q{i}"), value(cache, str(i)))
        path = tmp_path / f"{cache.space.name}.json"
        cache.save(path)

        restored = cache_cls.load(path, capacity=2)
        assert len(restored) == 2
        # The two *most recent* entries survive.
        assert key(cache, "q4") in restored and key(cache, "q5") in restored
        assert restored.get(key(cache, "q0")) is cache.space.miss


def test_an_indented_file_loads_like_a_compact_one(tmp_path):
    # A save writes one compact line; a file written indented (as saves
    # once were) loads to the same entries, LRU order and capacity.
    for cache_cls in CACHE_CLASSES:
        cache = cache_cls(capacity=5)
        for tag in ("a", "b", "c", "d"):
            cache.put(key(cache, tag), value(cache, tag))
        cache.get(key(cache, "b"))  # LRU order a, c, d, b
        compact = tmp_path / f"{cache.space.name}.json"
        cache.save(compact)
        text = compact.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        indented = tmp_path / f"{cache.space.name}-indented.json"
        indented.write_text(json.dumps(json.loads(text), indent=2) + "\n")
        for path in (compact, indented):
            restored = cache_cls.load(path)
            assert restored.capacity == 5
            assert restored.items() == cache.items()
            assert [entry for entry, _ in restored.items()] == [
                key(cache, tag) for tag in ("a", "c", "d", "b")]


def test_load_rejects_foreign_json(tmp_path):
    for cache_cls in CACHE_CLASSES:
        for foreign in ({"hello": "world"}, {"format": "something-else"}):
            path = tmp_path / "not-a-cache.json"
            path.write_text(json.dumps(foreign), encoding="utf-8")
            with pytest.raises(ValueError) as excinfo:
                cache_cls.load(path)
            assert cache_cls.space.file_format in str(excinfo.value)
        # Each space's files say which space they hold.
        other, = (cls for cls in CACHE_CLASSES if cls is not cache_cls)
        good = tmp_path / "cache.json"
        cache_cls(capacity=2).save(good)
        payload = json.loads(good.read_text(encoding="utf-8"))
        assert payload["format"] == cache_cls.space.file_format
        with pytest.raises(ValueError):
            other.load(good)
    assert PLAN_CACHE_FORMAT == "repro-plan-cache/v1"
    assert ANSWER_CACHE_FORMAT == "repro-answer-cache/v1"


def test_session_warm_hits_from_persisted_cache(tmp_path, rotowire_lake):
    queries = ["How many players are taller than 200?",
               "Who is the tallest player?"]
    path = tmp_path / "plans.json"

    first = Session(rotowire_lake)
    cold = first.batch(queries)
    assert cold.cache_misses == len(queries) and cold.cache_hits == 0
    assert first.save_plan_cache(path) == len(queries)

    # A brand-new session over the same lake starts 100% warm.
    second = Session(rotowire_lake, plan_cache=PlanCache.load(path))
    warm = second.batch(queries)
    assert warm.cache_hits == len(queries) and warm.cache_misses == 0
    assert warm.num_errors == 0
    for mine, theirs in zip(warm.results, cold.results):
        assert mine.describe() == theirs.describe()


def test_loaded_cache_never_hits_on_a_different_lake(tmp_path,
                                                     rotowire_lake,
                                                     artwork_lake):
    path = tmp_path / "plans.json"
    session = Session(rotowire_lake)
    session.batch(["How many players are taller than 200?"])
    session.save_plan_cache(path)

    other = Session(artwork_lake)
    loaded = other.load_plan_cache(path)
    assert loaded == 1
    report = other.batch(
        ["How many paintings belong to the 'Impressionism' movement?"])
    # Keys carry the lake fingerprint: a foreign cache is inert, not wrong.
    assert report.cache_hits == 0 and report.num_errors == 0


def test_session_load_plan_cache_capacity_override(tmp_path, rotowire_lake):
    session = Session(rotowire_lake)
    session.batch(["How many players are taller than 200?",
                   "Who is the tallest player?"])
    path = tmp_path / "plans.json"
    session.save_plan_cache(path)

    fresh = Session(rotowire_lake)
    assert fresh.load_plan_cache(path, capacity=1) == 1
    assert fresh.plan_cache.capacity == 1
    assert len(fresh.plan_cache) == 1


def test_cli_flagless_run_keeps_persisted_capacity(tmp_path, capsys):
    """A --plan-cache-file run without --cache-size must not truncate a
    file saved by a cache larger than the default."""
    from repro.cli import main

    batch = tmp_path / "queries.txt"
    batch.write_text("How many players are taller than 200?\n"
                     "Who is the tallest player?\n", encoding="utf-8")
    path = tmp_path / "plans.json"
    larger = 2 * PLAN_SPACE.capacity
    assert main(["batch", "--dataset", "rotowire", str(batch),
                 "--cache-size", str(larger),
                 "--plan-cache-file", str(path)]) == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["capacity"] == larger and len(payload["entries"]) == 2

    # No --cache-size: the file's capacity and entries are preserved.
    assert main(["batch", "--dataset", "rotowire", str(batch),
                 "--plan-cache-file", str(path)]) == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["capacity"] == larger and len(payload["entries"]) == 2
    assert "hit rate 100%" in capsys.readouterr().out
