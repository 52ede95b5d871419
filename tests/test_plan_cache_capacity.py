"""The plan cache holds the working set.

One default capacity (``PLAN_SPACE.capacity``) serves every session; a
loaded cache file may grow a session's cache but never shrink it; and a
metrics scrape shows each local cache's entries, capacity and evictions,
so capacity misses are visible without a traced run.
"""

import json

import pytest
from _caches import CACHE_CLASSES, key, value
from test_bound_plans import CountingBrain

from repro import Session
from repro.core.answer_cache import ANSWER_SPACE
from repro.core.batch import PLAN_SPACE
from repro.obs import render_prometheus

#: 200 distinct relational questions, more than the 128 plans the
#: default cache once held.
QUERIES = [f"How many paintings were created after {year}?"
           for year in range(1500, 1700)]


def saved_cache(cache_cls, capacity: int, tags: str, path) -> str:
    """*path* holding a *capacity* cache of one entry per tag."""
    cache = cache_cls(capacity)
    for tag in tags:
        cache.put(key(cache, tag), value(cache, tag))
    cache.save(path)
    return str(path)


def load(session: Session, name: str, path: str, **kwargs):
    """Load *path* into *session*'s *name* cache; returns that cache."""
    getattr(session, f"load_{name}_cache")(path, **kwargs)
    return getattr(session, f"{name}_cache")


def test_the_session_default_is_the_space_capacity(artwork_lake):
    with Session(artwork_lake) as session:
        assert session.plan_cache.capacity == PLAN_SPACE.capacity
        assert session.answer_cache.capacity == ANSWER_SPACE.capacity
    assert PLAN_SPACE.capacity >= len(QUERIES)


def test_a_second_pass_over_200_relational_questions_asks_nothing(
        artwork_lake):
    brain = CountingBrain()
    with Session(artwork_lake, brain=brain) as session:
        cold = session.batch(QUERIES)
        asked = brain.calls
        warm = session.batch(QUERIES)
    assert cold.num_errors == 0 and asked > 0
    assert brain.calls == asked
    assert warm.cache_hits == len(QUERIES) and warm.cache_misses == 0
    assert cold.cache_evictions == warm.cache_evictions == 0
    assert [result.describe() for result in warm.results] == \
        [result.describe() for result in cold.results]


@pytest.mark.parametrize("cache_cls", CACHE_CLASSES,
                         ids=lambda cls: cls.space.name)
def test_a_smaller_file_never_shrinks_the_session_cache(tmp_path,
                                                        rotowire_lake,
                                                        cache_cls):
    name = cache_cls.space.name
    path = saved_cache(cache_cls, 128, "abc", tmp_path / "small.json")
    with Session(rotowire_lake, **{f"{name}_cache_size": 4096}) as session:
        cache = load(session, name, path)
    assert cache.capacity == 4096 and len(cache) == 3


@pytest.mark.parametrize("cache_cls", CACHE_CLASSES,
                         ids=lambda cls: cls.space.name)
def test_a_larger_file_keeps_its_capacity_and_an_explicit_one_wins(
        tmp_path, rotowire_lake, cache_cls):
    name = cache_cls.space.name
    path = saved_cache(cache_cls, 8, "abcdef", tmp_path / "large.json")
    with Session(rotowire_lake, **{f"{name}_cache_size": 4}) as session:
        cache = load(session, name, path)
        assert cache.capacity == 8 and len(cache) == 6
        cache = load(session, name, path, capacity=2)
        assert cache.capacity == 2
        assert [entry for entry, _ in cache.items()] == \
            [key(cache, "e"), key(cache, "f")]


def test_cli_flagless_run_grows_a_smaller_file_to_the_default(tmp_path):
    from repro.cli import main

    batch = tmp_path / "queries.txt"
    batch.write_text("How many players are taller than 200?\n",
                     encoding="utf-8")
    path = tmp_path / "plans.json"
    assert main(["batch", "--dataset", "rotowire", str(batch),
                 "--cache-size", "128", "--plan-cache-file", str(path)]) == 0
    assert json.loads(path.read_text(encoding="utf-8"))["capacity"] == 128
    assert main(["batch", "--dataset", "rotowire", str(batch),
                 "--plan-cache-file", str(path)]) == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["capacity"] == PLAN_SPACE.capacity
    assert len(payload["entries"]) == 1


def test_an_evicting_session_reports_its_evictions(artwork_lake):
    with Session(artwork_lake, plan_cache_size=8) as session:
        session.batch(QUERIES[:20])
        session.batch(QUERIES[16:20])  # still cached: 4 hits
        snapshot = session.observability_snapshot()
    caches = snapshot["local_caches"]
    assert caches["plan"] == {"entries": 8, "capacity": 8, "hits": 4,
                              "misses": 20, "evictions": 12}
    assert caches["answer"]["capacity"] == ANSWER_SPACE.capacity
    exposition = render_prometheus(snapshot)
    assert "# TYPE repro_local_cache_evictions gauge" in exposition
    assert 'repro_local_cache_evictions{space="plan"} 12' in exposition
    assert 'repro_local_cache_capacity{space="plan"} 8' in exposition
    # The plain metrics snapshot is the registry's alone.
    assert "local_caches" not in session.metrics()


def test_metrics_file_carries_the_local_caches(tmp_path):
    from repro.cli import main

    batch = tmp_path / "queries.txt"
    batch.write_text("How many players are taller than 200?\n"
                     "Who is the tallest player?\n", encoding="utf-8")
    metrics = tmp_path / "metrics.json"
    assert main(["batch", "--dataset", "rotowire", str(batch),
                 "--cache-size", "1", "--metrics-file", str(metrics)]) == 0
    plan = json.loads(metrics.read_text(encoding="utf-8"))[
        "local_caches"]["plan"]
    assert plan["capacity"] == 1 and plan["evictions"] == 1
