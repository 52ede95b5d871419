"""PlanCache.save/load: persisted plans survive runs and serve warm hits."""

import json

import pytest

from repro import Session
from repro.core.batch import PLAN_CACHE_FORMAT, PlanCache
from repro.core.plan import LogicalPlan, LogicalStep


def _plan(tag: str) -> LogicalPlan:
    return LogicalPlan(steps=[LogicalStep(index=1, description=tag,
                                          inputs=["t"], output="out")],
                       thought=tag)


def test_save_and_load_restore_entries(tmp_path):
    cache = PlanCache(capacity=8)
    cache.put(("q1", "fp"), _plan("one"))
    cache.put(("q2", "fp"), _plan("two"))
    path = tmp_path / "plans.json"
    assert cache.save(path) == 2

    restored = PlanCache.load(path)
    assert len(restored) == 2
    assert restored.capacity == 8
    assert restored.get(("q1", "fp")).plan == _plan("one")
    assert restored.get(("q2", "fp")).plan == _plan("two")
    assert restored.get(("q3", "fp")) is None
    # Counters start fresh: 2 hits + 1 miss from the lines above only.
    assert restored.snapshot() == (2, 1, 0)


def test_load_preserves_lru_order(tmp_path):
    cache = PlanCache(capacity=4)
    for tag in ("a", "b", "c"):
        cache.put((tag, "fp"), _plan(tag))
    cache.get(("a", "fp"))  # refresh "a": eviction order is now b, c, a
    path = tmp_path / "plans.json"
    cache.save(path)

    restored = PlanCache.load(path, capacity=3)
    restored.put(("d", "fp"), _plan("d"))  # evicts the oldest: "b"
    assert ("b", "fp") not in restored
    assert ("a", "fp") in restored and ("c", "fp") in restored


def test_load_clamps_to_capacity(tmp_path):
    cache = PlanCache(capacity=8)
    for i in range(6):
        cache.put((f"q{i}", "fp"), _plan(str(i)))
    path = tmp_path / "plans.json"
    cache.save(path)

    restored = PlanCache.load(path, capacity=2)
    assert len(restored) == 2
    # The two *most recent* entries survive.
    assert ("q4", "fp") in restored and ("q5", "fp") in restored


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "not-a-cache.json"
    path.write_text(json.dumps({"hello": "world"}), encoding="utf-8")
    with pytest.raises(ValueError):
        PlanCache.load(path)
    good = tmp_path / "cache.json"
    PlanCache(capacity=2).save(good)
    payload = json.loads(good.read_text(encoding="utf-8"))
    assert payload["format"] == PLAN_CACHE_FORMAT


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
    """A --plan-cache-file run without --cache-size must not truncate."""
    from repro.cli import main

    batch = tmp_path / "queries.txt"
    batch.write_text("How many players are taller than 200?\n"
                     "Who is the tallest player?\n", encoding="utf-8")
    path = tmp_path / "plans.json"
    assert main(["batch", "--dataset", "rotowire", str(batch),
                 "--cache-size", "512", "--plan-cache-file", str(path)]) == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["capacity"] == 512 and len(payload["entries"]) == 2

    # No --cache-size: the file's capacity and entries are preserved.
    assert main(["batch", "--dataset", "rotowire", str(batch),
                 "--plan-cache-file", str(path)]) == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["capacity"] == 512 and len(payload["entries"]) == 2
    assert "hit rate 100%" in capsys.readouterr().out
