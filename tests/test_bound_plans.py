"""Bound plans: a plan-cache entry carries the model's discovery and
mapping replies, and a warm query pays no LLM call.

The contract under test: a stored reply is reused only when the prompt
about to be sent digests to the value the reply was stored with — so a
warm pass is byte-identical (in canonical form) to the cold pass, makes
no model call, and anything that changes a prompt (different lake
content behind the same shape fingerprint, a retry's error feedback, a
replan) goes back to the model.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.benchmarks.workloads import workload
from repro.cachenet import CacheTierServer
from repro.core.batch import PlanCache
from repro.core.interfaces import PromptMapper, PromptPlanner
from repro.core.plan import BoundPlan, BoundReply, LogicalPlan, LogicalStep
from repro.datasets import load_lake
from repro.errors import PlanParseError
from repro.llm.brain import SimulatedBrain
from repro.obs import render_prometheus
from repro.session import Session

QUERY = "How many players are taller than 200?"
TEXT_QUERY = "How many games did the Heat win?"


class CountingBrain:
    """Counts ``complete`` calls of a wrapped brain (thread-safe)."""

    def __init__(self) -> None:
        self.inner = SimulatedBrain()
        self.name = self.inner.name
        self.cost_model = self.inner.cost_model
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, messages) -> str:
        with self._lock:
            self.calls += 1
        return self.inner.complete(messages)


def canonical(report) -> str:
    return json.dumps(report.canonical_results(), sort_keys=True)


def memo_counters(result) -> dict:
    return {name: value for name, value in result.telemetry.counters.items()
            if name.startswith("binding_memo")}


@pytest.fixture(scope="module")
def rotowire():
    # load_lake (not the conftest fixture): the process backend needs
    # the lake's generation spec.
    return load_lake("rotowire")


@pytest.fixture(scope="module")
def artwork():
    return load_lake("artwork")


# ----------------------------------------------------------------------
# (a) differential: cold pass == warm pass, and warm asks nothing
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dataset", ("artwork", "rotowire"))
@pytest.mark.parametrize("backend,workers",
                         (("serial", 1), ("thread", 3), ("process", 2)))
def test_warm_pass_equals_cold_pass_and_asks_nothing(
        request, dataset, backend, workers):
    lake = request.getfixturevalue(dataset)
    queries = list(workload(dataset))
    brain = CountingBrain()
    with Session(lake, brain=brain) as session:
        cold = session.batch(queries, workers=workers, backend=backend)
        asked_cold = brain.calls
        warm = session.batch(queries, workers=workers, backend=backend)
        asked_warm = brain.calls - asked_cold
    assert cold.num_errors == 0 and warm.num_errors == 0
    assert canonical(warm) == canonical(cold)
    for mine, theirs in zip(warm.results, cold.results):
        assert ([step.to_dict() for step in mine.trace.physical_steps]
                == [step.to_dict() for step in theirs.trace.physical_steps])
        assert mine.trace.observations == theirs.trace.observations
    # The warm pass is priced at zero everywhere ...
    assert cold.telemetry.token_in > 0
    assert warm.telemetry.token_in == warm.telemetry.token_out == 0
    assert all(stat.plan_cache_hit for stat in warm.stats)
    if backend != "process":
        # ... and (where the brain lives in this process) made no call.
        assert asked_cold > 0 and asked_warm == 0


def test_memo_outcomes_are_named_in_spans_counters_and_metrics(rotowire):
    with Session(rotowire) as session:
        cold = session.query(QUERY)
        assert len(session.last_transcript) == 4  # every prompt was sent
        warm = session.query(QUERY)
        # last_transcript lists only prompts actually sent.
        assert len(session.last_transcript) == 0
        counters = session.metrics()["counters"]
        exposition = render_prometheus(session.observability_snapshot())
    assert memo_counters(cold) == {"binding_memo_misses_absent": 3}
    assert memo_counters(warm) == {"binding_memo_hits": 3}
    memo_spans = [span for span in warm.telemetry.spans
                  if span.stage in ("discovery", "mapping")]
    assert [span.stage for span in memo_spans] == \
        [span.stage for span in cold.telemetry.spans
         if span.stage in ("discovery", "mapping")]
    for span in memo_spans:
        assert span.notes == {"memo": "hit"}
        assert span.token_in == span.token_out == 0
    assert {span.notes["memo"] for span in cold.telemetry.spans
            if span.stage in ("discovery", "mapping")} == {"absent"}
    assert "memo='hit'" in warm.telemetry.render_tree()
    assert counters["binding_memo_hits_total"] == 3
    assert counters['binding_memo_misses_total{reason="absent"}'] == 3
    assert 'repro_binding_memo_misses_total{reason="absent"} 3' in exposition
    assert "repro_binding_memo_hits_total 3" in exposition


# ----------------------------------------------------------------------
# (b) exactness: the fingerprint is shape-only, observations are content
# ----------------------------------------------------------------------


def test_same_shape_lakes_sharing_a_cache_stay_exact():
    lakes = [load_lake("rotowire", seed=seed) for seed in (1, 2)]
    assert lakes[0].fingerprint() == lakes[1].fingerprint()
    assert lakes[0].content_fingerprint() != lakes[1].content_fingerprint()
    queries = [QUERY, TEXT_QUERY, "Who is the tallest player?"]
    expected = [[Session(lake).query(query) for query in queries]
                for lake in lakes]
    # The two lakes really answer differently.
    assert expected[0][1].value != expected[1][1].value

    cache = PlanCache(16)
    sessions = [Session(lake, plan_cache=cache) for lake in lakes]
    for _round in range(2):
        for session, wanted in zip(sessions, expected):
            for query, want in zip(queries, wanted):
                got = session.query(query)
                assert got.describe() == want.describe()
                assert ([s.to_dict() for s in got.trace.physical_steps]
                        == [s.to_dict() for s in want.trace.physical_steps])
                assert got.trace.observations == want.trace.observations
    # The second lake found the first lake's entry, but its mapping
    # prompts (hints and observations carry content) digest differently,
    # so those steps went back to the model.
    second = sessions[1].query(TEXT_QUERY)
    sessions[0].query(TEXT_QUERY)
    again = sessions[1].query(TEXT_QUERY)
    assert second.telemetry.plan_cache_hit and again.telemetry.plan_cache_hit
    assert memo_counters(again).get("binding_memo_misses_digest_changed")
    assert again.value == expected[1][1].value


def test_a_stale_digest_is_a_miss_not_a_wrong_answer(rotowire):
    with Session(rotowire) as session:
        want = session.query(QUERY)
        key = (QUERY, rotowire.fingerprint())
        entry = session.plan_cache.get(key)
        # Keep the replies, break every digest — and make the replies
        # wrong, so reusing one would show in the answer.
        session.plan_cache.put(key, BoundPlan(
            entry.plan,
            BoundReply("0" * 32, "Relevant Columns: ['teams.city']"),
            tuple(BoundReply("0" * 32, reply.response.replace("200", "100"))
                  for reply in entry.mappings)))
        got = session.query(QUERY)
        assert got.value == want.value
        assert memo_counters(got) == {"binding_memo_misses_digest_changed": 3}
        # The refreshed entry replaced the stale one.
        assert memo_counters(session.query(QUERY)) == {"binding_memo_hits": 3}


# ----------------------------------------------------------------------
# (c) retries, replans and errors never bind a reply
# ----------------------------------------------------------------------


class FlakyMapper(PromptMapper):
    """Fails the first mapping attempt of every query's first step."""

    def map_step(self, tables, cards, step, hints, observations,
                 transcript, error_feedback=""):
        if step.index == 1 and not error_feedback:
            # "unknown operator" makes the error analysis answer "retry
            # the step", not "backtrack to planning".
            raise PlanParseError("flaky mapper: unknown operator 'Nope'")
        return super().map_step(tables, cards, step, hints, observations,
                                transcript, error_feedback=error_feedback)


def test_retried_step_binds_nothing(rotowire):
    brain = CountingBrain()
    with Session(rotowire, mapper=FlakyMapper(brain), brain=brain) as session:
        first = session.query(QUERY)
        assert first.ok and first.trace.errors  # recovered by a retry
        entry = session.plan_cache.get((QUERY, rotowire.fingerprint()))
        assert entry.discovery is None and entry.mappings == ()
        asked = brain.calls
        second = session.query(QUERY)
        assert second.ok and second.value == first.value
        assert brain.calls > asked  # nothing bound, so the model is asked
        retry_notes = [span.notes.get("memo")
                       for span in second.telemetry.spans
                       if span.stage == "mapping" and span.step_index == 1]
        assert retry_notes == ["absent", "retry"]
        assert memo_counters(second)["binding_memo_misses_retry"] == 1


def test_replan_and_error_bind_nothing(rotowire):
    query = ("What is the average height of players in the Eastern "
             "conference?")
    poisoned = LogicalPlan(steps=[
        LogicalStep(1, "Join the 'players' and 'teams' tables on the "
                       "'team' and 'founded_year' columns.",
                    inputs=["players", "teams"], output="joined_table"),
        LogicalStep(2, "Compute the avg of the 'height_cm' column of the "
                       "'joined_table' table into the 'avg_height_cm' "
                       "column.",
                    inputs=["joined_table"], output="result_table",
                    new_columns=["avg_height_cm"])])
    key = (query, rotowire.fingerprint())
    with Session(rotowire) as session:
        session.plan_cache.put(key, poisoned)
        result = session.query(query)
        assert result.ok and result.trace.replans == 1
        entry = session.plan_cache.get(key)
        assert entry.plan != poisoned  # the recovered plan is cached ...
        assert entry.discovery is None and entry.mappings == ()  # ... bare
        # The next clean run binds it.
        assert session.query(query).value == result.value
        assert len(session.plan_cache.get(key).mappings) == len(entry.plan)

        failed = session.query("Colorless green ideas sleep furiously")
        assert failed.kind == "error"
        assert len(session.plan_cache) == 1


# ----------------------------------------------------------------------
# (d) eviction and invalidation take the replies with the plan
# ----------------------------------------------------------------------


def test_eviction_and_drop_fingerprint_drop_the_replies(rotowire):
    other = "Who is the tallest player?"
    with Session(rotowire, plan_cache_size=1) as session:
        session.query(QUERY)
        assert memo_counters(session.query(QUERY)) == {"binding_memo_hits": 3}
        session.query(other)  # evicts QUERY's entry, replies included
        assert session.plan_cache.evictions == 1
        assert memo_counters(session.query(QUERY)) == \
            {"binding_memo_misses_absent": 3}
        assert memo_counters(session.query(QUERY)) == {"binding_memo_hits": 3}
        assert session.plan_cache.drop_fingerprint(
            rotowire.fingerprint()) == 1
        assert memo_counters(session.query(QUERY)) == \
            {"binding_memo_misses_absent": 3}


# ----------------------------------------------------------------------
# (e) persistence
# ----------------------------------------------------------------------


def test_save_load_round_trips_the_replies(tmp_path, rotowire):
    path = tmp_path / "plans.json"
    with Session(rotowire) as session:
        want = session.query(TEXT_QUERY)
        session.plan_cache.put(("bare", "fp"), LogicalPlan(
            steps=[LogicalStep(1, "a step", inputs=["t"], output="out")]))
        key = (TEXT_QUERY, rotowire.fingerprint())
        assert session.save_plan_cache(path) == 2
        entry = session.plan_cache.get(key)
    saved = {item["query"]: item["plan"]
             for item in json.loads(path.read_text())["entries"]}
    # The additive key is emitted only for entries that have replies.
    assert "bindings" in saved[TEXT_QUERY] and "bindings" not in saved["bare"]
    assert len(saved[TEXT_QUERY]["bindings"]["mappings"]) == len(entry.plan)

    restored = PlanCache.load(path)
    assert restored.get(key) == entry
    brain = CountingBrain()
    with Session(rotowire, brain=brain, plan_cache=restored) as session:
        got = session.query(TEXT_QUERY)
    assert brain.calls == 0
    assert got.value == want.value
    # A plan dict without the key (every file written before bindings
    # existed) loads as a bare entry and encodes back unchanged.
    bare = BoundPlan.from_dict(saved["bare"])
    assert bare.discovery is None and bare.mappings == ()
    assert bare.to_dict() == saved["bare"] == bare.plan.to_dict()
    # The replies never leak into the plan IR or a trace payload.
    assert "bindings" not in entry.plan.to_dict()
    assert "bindings" not in json.dumps(want.to_dict())


# ----------------------------------------------------------------------
# (f) the cache tier carries the replies
# ----------------------------------------------------------------------


def test_fresh_replica_of_a_warm_tier_asks_nothing(rotowire):
    queries = [QUERY, TEXT_QUERY]
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        with Session(rotowire, cache_url=server.url) as producer:
            want = [producer.query(query) for query in queries]
        brain = CountingBrain()
        with Session(rotowire, brain=brain,
                     cache_url=server.url) as replica:
            got = [replica.query(query) for query in queries]
            counters = replica.metrics()["counters"]
        assert brain.calls == 0
        assert [r.value for r in got] == [r.value for r in want]
        assert counters["cachenet_hits"] >= len(queries)
        assert counters["binding_memo_hits_total"] > 0
        assert "token_in_total" not in counters \
            or counters["token_in_total"] == 0
    finally:
        server.stop()


# ----------------------------------------------------------------------
# (g) thread races over one shared cache
# ----------------------------------------------------------------------


def test_racing_workers_never_serve_a_reply_for_the_wrong_step(rotowire):
    queries = list(workload("rotowire"))
    with Session(rotowire) as baseline:
        want = canonical(baseline.batch(queries * 3))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # Every query is in flight on several engines at once: lookups,
        # refreshed puts and evictions (capacity < unique queries) race.
        with Session(rotowire, plan_cache_size=4) as session:
            for _pass in range(2):
                report = session.batch(queries * 3, workers=4)
                assert report.num_errors == 0
                assert canonical(report) == want
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# (h) role overrides
# ----------------------------------------------------------------------


class OpaqueMapper:
    """A Mapper that offers no prompt/read pair: its decision may depend
    on anything, so the engine must ask it every time."""

    def __init__(self, model):
        self.inner = PromptMapper(model)
        self.calls = 0

    def map_step(self, tables, cards, step, hints, observations,
                 transcript, error_feedback=""):
        self.calls += 1
        return self.inner.map_step(tables, cards, step, hints, observations,
                                   transcript, error_feedback=error_feedback)


class MarkedPlanner(PromptPlanner):
    """A PromptPlanner subclass: inherits the prompt/read pair."""


def test_role_overrides_are_memoised_or_bypassed_never_wrong(rotowire):
    want = Session(rotowire).query(QUERY)

    brain = CountingBrain()
    mapper = OpaqueMapper(brain)
    with Session(rotowire, brain=brain, mapper=mapper) as session:
        first, second = session.query(QUERY), session.query(QUERY)
        entry = session.plan_cache.get((QUERY, rotowire.fingerprint()))
    assert first.value == second.value == want.value
    assert mapper.calls == 2 * len(entry.plan)  # asked on both passes
    assert entry.discovery is None and entry.mappings == ()  # bypassed
    assert "memo" not in {key for span in second.telemetry.spans
                          if span.stage == "mapping" for key in span.notes}

    brain = CountingBrain()
    with Session(rotowire, brain=brain,
                 planner=MarkedPlanner(brain)) as session:
        first = session.query(QUERY)
        asked = brain.calls
        second = session.query(QUERY)
    assert first.value == second.value == want.value
    assert asked > 0 and brain.calls == asked  # memoised through the pair
