"""Streams are seeded, goldens catch wrong answers."""

import random

import pytest

import queries as qs
from repro.core.plan import QueryResult
from repro.vision.scene import CATEGORIES
from workloads import WORKLOADS


def test_objects_are_known_to_the_vision_model():
    assert set(qs.OBJECTS) <= set(CATEGORIES)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_query_is_unique_and_has_a_golden(name):
    queries = WORKLOADS[name]().unique_queries()
    assert len(set(queries)) == len(queries)
    golden = qs.load_golden(name)
    assert {qs.golden_key(query) for query in queries} == set(golden)
    assert not [d for d in golden.values() if d.startswith("error")]


def test_relational_queries_exceed_the_default_plan_cache():
    assert len(qs.relational_queries()) > 128
    assert len(qs.warm_mixed_queries()) < 128


def test_zipf_cycle_is_one_fixed_multiset_holding_every_query():
    cycle = qs.zipf_cycle(50, 400, rank_seed=28)
    assert set(cycle) == set(range(50))
    assert cycle == qs.zipf_cycle(50, 400, rank_seed=28)
    counts = sorted((cycle.count(i) for i in range(50)), reverse=True)
    assert counts[0] > 10 * counts[-1]
    # Another ranking makes another query hot, not another multiset shape.
    other = qs.zipf_cycle(50, 400, rank_seed=29)
    assert other != cycle
    assert sorted(other.count(i) for i in range(50)) == sorted(counts)


def test_same_seed_same_stream_and_schedule():
    cycle = qs.zipf_cycle(50, 400, rank_seed=28)
    assert (qs.shuffled(cycle, random.Random(12))
            == qs.shuffled(cycle, random.Random(12)))
    assert (qs.poisson_schedule(30.0, 300, random.Random(12))
            == qs.poisson_schedule(30.0, 300, random.Random(12)))


def test_different_seed_different_order_same_multiset():
    cycle = qs.zipf_cycle(50, 400, rank_seed=28)
    one = qs.shuffled(cycle, random.Random(12))
    other = qs.shuffled(cycle, random.Random(13))
    assert one != other
    assert sorted(one) == sorted(other) == sorted(cycle)
    assert (qs.poisson_schedule(30.0, 300, random.Random(12))
            != qs.poisson_schedule(30.0, 300, random.Random(13)))


def test_poisson_schedule_is_ordered_and_near_its_rate():
    due = qs.poisson_schedule(30.0, 3000, random.Random(1))
    assert len(due) == 3000 and due == sorted(due)
    assert 0.0 < due[0] and 90.0 < due[-1] < 110.0


def test_checker_accepts_the_golden_answer():
    query = ("rotowire", "How many players are taller than 200?")
    checker = qs.AnswerChecker({qs.golden_key(query): "value:29"})
    assert checker.check(query, QueryResult(kind="value", value=29))
    assert (checker.attempted, checker.failed) == (1, 0)


def test_checker_fails_on_a_corrupted_digest():
    query = ("rotowire", "How many players are taller than 200?")
    checker = qs.AnswerChecker({qs.golden_key(query): "value:28"})
    assert not checker.check(query, QueryResult(kind="value", value=29))
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "expected value:28, got value:29" in checker.first_failure


def test_checker_fails_on_an_error_result_and_on_an_unknown_query():
    query = ("rotowire", "How many players are taller than 200?")
    checker = qs.AnswerChecker({qs.golden_key(query): "value:29"})
    assert not checker.check(query, QueryResult(kind="error", error="boom"))
    assert not checker.check(("rotowire", "never asked"),
                             QueryResult(kind="value", value=29))
    checker.fail("job timed out")
    assert (checker.attempted, checker.failed) == (3, 3)
