"""Bound plans: a plan-cache entry carries the model's planning,
discovery and mapping replies, and a warm query pays no LLM call.

The contract under test: a stored reply — the plan's too — is reused
only when the prompt about to be sent digests to the value the reply was
stored with — so a warm pass is byte-identical (in canonical form) to
the cold pass, makes no model call, and anything that changes a prompt
(different lake content under the same lake name, a lake change, a
retry's error feedback, a replan) goes back to the model.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest
from _poison import poisoned_entry

from repro.cachenet import CacheTierServer
from repro.core.answer_cache import AnswerCache
from repro.core.batch import PlanCache
from repro.core.interfaces import PromptMapper, PromptPlanner
from repro.core.parsing import parse_mapping_response
from repro.core.plan import BoundPlan, BoundReply, LogicalPlan, LogicalStep
from repro.core.prompts import build_mapping_prompt
from repro.data.catalog import DataLake
from repro.data.table import Table
from repro.datasets import load_lake
from repro.errors import PlanParseError
from repro.llm.brain import SimulatedBrain
from repro.llm.interface import (BoundReply as InterfaceBoundReply, Prompt,
                                 Section, Transcript)
from repro.obs import render_prometheus
from repro.session import Session
from repro.testing.workloads import workload

BOUND_FIXTURE = Path(__file__).parent / "fixtures" / "v1_bound_plan_cache.json"
QUERY = "How many players are taller than 200?"
TEXT_QUERY = "How many games did the Heat win?"
#: an unrelated table: adding it changes the lake, not what a query reads
WEATHER = Table.infer({"day": ["mon", "tue"], "rain_mm": [1.5, 0.0]})


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


#: the stages that ask the model through the transcript
ASKED_STAGES = ("discovery", "planning", "mapping")


def memo_spans(result, stage: str) -> list[str]:
    """The ``memo`` note of each *stage* span of *result*."""
    return [span.notes["memo"] for span in result.telemetry.spans
            if span.stage == stage]


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


def memo_misses(session) -> int:
    """Every model call a session's queries made through the transcript,
    wherever they ran (process lanes ship their metrics back)."""
    return sum(value for name, value in session.metrics()["counters"].items()
               if name.startswith("binding_memo_misses_total"))


@pytest.mark.parametrize("dataset,calls", (("artwork", 20), ("rotowire", 24)))
@pytest.mark.parametrize("backend,workers",
                         (("serial", 1), ("thread", 2), ("process", 2)))
def test_a_lake_change_re_asks_only_discovery_and_planning(
        dataset, calls, backend, workers):
    lake = load_lake(dataset, scale=2)
    queries = list(workload(dataset))
    with Session(lake) as session:
        session.batch(queries, workers=workers, backend=backend)
        lake.add_table("weather_log", WEATHER)
        before = memo_misses(session)
        changed = session.batch(queries, workers=workers, backend=backend)
        asked = memo_misses(session) - before
    assert changed.num_errors == 0
    # One discovery and one planning call per query: both prompts list
    # the lake's tables.  No mapping prompt shows the new table.
    assert asked == calls == 2 * len(queries)
    for result in changed.results:
        assert memo_spans(result, "discovery") == \
            memo_spans(result, "planning") == ["digest_changed:tables"]
        assert set(memo_spans(result, "mapping")) == {"hit"}
    with Session(lake) as fresh:
        assert canonical(changed) == canonical(fresh.batch(queries))


def test_memo_outcomes_are_named_in_spans_counters_and_metrics(rotowire):
    with Session(rotowire) as session:
        cold = session.query(QUERY)
        assert len(session.last_transcript) == 4  # every prompt was sent
        warm = session.query(QUERY)
        # last_transcript lists only prompts actually sent.
        assert len(session.last_transcript) == 0
        counters = session.metrics()["counters"]
        exposition = render_prometheus(session.observability_snapshot())
    assert memo_counters(cold) == {"binding_memo_misses_absent": 4}
    assert memo_counters(warm) == {"binding_memo_hits": 4}
    memo_spans = [span for span in warm.telemetry.spans
                  if span.stage in ASKED_STAGES]
    assert [span.stage for span in memo_spans] == \
        [span.stage for span in cold.telemetry.spans
         if span.stage in ASKED_STAGES] == \
        ["discovery", "planning", "mapping", "mapping"]
    for span in memo_spans:
        assert span.notes == {"memo": "hit"}
        assert span.token_in == span.token_out == 0
    assert {span.notes["memo"] for span in cold.telemetry.spans
            if span.stage in ASKED_STAGES} == {"absent"}
    assert "memo='hit'" in warm.telemetry.render_tree()
    assert counters["binding_memo_hits_total"] == 4
    assert counters['binding_memo_misses_total{reason="absent"}'] == 4
    assert 'repro_binding_memo_misses_total{reason="absent"} 4' in exposition
    assert "repro_binding_memo_hits_total 4" in exposition


# ----------------------------------------------------------------------
# (b) exactness: lakes share a name, prompts show content
# ----------------------------------------------------------------------


def test_same_shape_lakes_sharing_a_cache_stay_exact(monkeypatch):
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

    def check(session, query, want):
        got = session.query(query)
        assert got.describe() == want.describe()
        assert got.trace.logical_plan == want.trace.logical_plan
        assert ([s.to_dict() for s in got.trace.physical_steps]
                == [s.to_dict() for s in want.trace.physical_steps])
        assert got.trace.observations == want.trace.observations
        return got

    for _round in range(2):
        for session, wanted in zip(sessions, expected):
            for query, want in zip(queries, wanted):
                check(session, query, want)
    # Each seed names its lake, so each keeps its own entry: a switch
    # between the lakes reuses every reply.
    assert [lake.name for lake in lakes] == ["rotowire#1", "rotowire#2"]
    sessions[0].query(TEXT_QUERY)
    again = check(sessions[1], TEXT_QUERY, expected[1][1])
    assert again.telemetry.plan_cache_hit
    assert memo_counters(again).keys() == {"binding_memo_hits"}

    # Warm, and after a lake change, no query hashes the lake's shape.
    with monkeypatch.context() as patched:
        patched.setattr(DataLake, "fingerprint", _no_fingerprint)
        for session, wanted in zip(sessions, expected):
            for query, want in zip(queries, wanted):
                assert memo_counters(check(session, query, want)) \
                    .keys() == {"binding_memo_hits"}
        lakes[1].add_table("weather_log", WEATHER)
        for query, want in zip(queries, expected[1]):
            got = check(sessions[1], query, want)
            assert memo_spans(got, "discovery") == \
                memo_spans(got, "planning") == ["digest_changed:tables"]


def test_two_seeds_alternating_on_one_cache_cost_no_call_after_their_first_pass():
    # Two rotowire@2 lakes of one shape and other content (seeds 1 and
    # 2) take turns on one plan cache and one answer cache.  Each seed
    # names its lake, so after each lake's first pass every switch is
    # answered from the caches: 0 LLM calls, where one shared name cost
    # 42 of the 63 calls on every switch.
    lakes = [load_lake("rotowire", seed=seed, scale=2) for seed in (1, 2)]
    assert [lake.name for lake in lakes] == ["rotowire@2#1", "rotowire@2#2"]
    brain = CountingBrain()
    plans, answers = PlanCache(), AnswerCache()
    sessions = [Session(lake, brain=brain, plan_cache=plans,
                        answer_cache=answers) for lake in lakes]
    queries = workload("rotowire")
    first = [canonical(session.batch(queries)) for session in sessions]
    assert brain.calls > 0
    asked = brain.calls
    for _switch in range(2):
        for session, want in zip(sessions, first):
            assert canonical(session.batch(queries)) == want
    assert brain.calls == asked
    for session in sessions:
        session.close()


def _no_fingerprint(lake):
    raise AssertionError("a query path hashed the lake's shape")


def test_scales_of_one_dataset_sharing_a_cache_keep_their_entries():
    # The plan key is the lake's name; a dataset's lake at another scale
    # is named for it, so alternating scales never evict each other.
    lakes = [load_lake("rotowire"), load_lake("rotowire", scale=2)]
    assert [lake.name for lake in lakes] == ["rotowire", "rotowire@2"]
    brain = CountingBrain()
    cache = PlanCache(16)
    sessions = [Session(lake, brain=brain, plan_cache=cache)
                for lake in lakes]
    queries = [QUERY, TEXT_QUERY]
    cold = [session.batch(queries) for session in sessions]
    asked = brain.calls
    for session, want in zip(sessions, cold):
        warm = session.batch(queries)
        assert canonical(warm) == canonical(want)
        assert all(stat.plan_cache_hit for stat in warm.stats)
    assert brain.calls == asked


def test_a_stale_digest_is_a_miss_not_a_wrong_answer(rotowire):
    with Session(rotowire) as session:
        want = session.query(QUERY)
        key = (QUERY, rotowire.name)
        entry = session.plan_cache.get(key)
        # Keep the replies, break every digest but planning's — and make
        # the replies wrong, so reusing one would show in the answer.
        session.plan_cache.put(key, BoundPlan(
            entry.plan,
            BoundReply("0" * 32, "Relevant Columns: ['teams.city']"),
            tuple(BoundReply("0" * 32, reply.response.replace("200", "100"))
                  for reply in entry.mappings),
            entry.planning))
        got = session.query(QUERY)
        assert got.value == want.value
        # The stored replies kept no section digests to compare.
        assert memo_counters(got) == {
            "binding_memo_hits": 1,
            "binding_memo_misses_digest_changed": 3,
            "binding_memo_section_changed_unknown": 3}
        # The refreshed entry replaced the stale one.
        assert memo_counters(session.query(QUERY)) == {"binding_memo_hits": 4}


# ----------------------------------------------------------------------
# (c) a reply that led to a retry, a replan or an error is never bound
# ----------------------------------------------------------------------


class FlakyMapper(PromptMapper):
    """Fails the first mapping attempt of every query's first step,
    after asking the model."""

    def map_step(self, tables, cards, step, hints, observations,
                 transcript, error_feedback=""):
        decision = super().map_step(tables, cards, step, hints,
                                    observations, transcript,
                                    error_feedback=error_feedback)
        if step.index == 1 and not error_feedback:
            # "unknown operator" makes the error analysis answer "retry
            # the step", not "backtrack to planning".
            raise PlanParseError("flaky mapper: unknown operator 'Nope'")
        return decision


def test_retried_step_binds_nothing(rotowire):
    brain = CountingBrain()
    with Session(rotowire, mapper=FlakyMapper(brain), brain=brain) as session:
        first = session.query(QUERY)
        assert first.ok and first.trace.errors  # recovered by a retry
        entry = session.plan_cache.get((QUERY, rotowire.name))
        # The failed mapping reply is not bound, nor are its siblings;
        # the plan's replies are.
        assert entry.mappings == ()
        assert entry.planning is not None and entry.discovery is not None
        asked = brain.calls
        second = session.query(QUERY)
        assert second.ok and second.value == first.value
        assert second.telemetry.plan_cache_hit
        assert memo_spans(second, "discovery") == ["hit"]
        assert brain.calls > asked  # no mapping bound: the model is asked
        retry_notes = [span.notes.get("memo")
                       for span in second.telemetry.spans
                       if span.stage == "mapping" and span.step_index == 1]
        assert retry_notes == ["absent", "retry"]
        assert memo_counters(second)["binding_memo_misses_retry"] == 1


class FlakyDiscoveryPlanner(PromptPlanner):
    """Rejects its first discovery reply, after asking the model."""

    failed = False

    def discover(self, lake, query, transcript):
        hints = super().discover(lake, query, transcript)
        if not self.failed:
            self.failed = True
            raise PlanParseError("flaky discovery: no columns")
        return hints


def test_a_failed_discovery_binds_no_discovery_reply(rotowire):
    brain = SimulatedBrain()
    with Session(rotowire, planner=FlakyDiscoveryPlanner(brain),
                 brain=brain) as session:
        first = session.query(QUERY)
        assert first.ok and first.trace.errors  # planned without hints
        entry = session.plan_cache.get((QUERY, rotowire.name))
        assert entry.discovery is None and entry.planning is not None
        second = session.query(QUERY)
    assert memo_spans(second, "discovery") == ["absent"]
    assert second.value == Session(rotowire).query(QUERY).value


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
    key = (query, rotowire.name)
    with Session(rotowire) as session:
        session.plan_cache.put(key, poisoned_entry(rotowire, query,
                                                   poisoned))
        result = session.query(query)
        assert result.ok and result.trace.replans == 1
        entry = session.plan_cache.get(key)
        assert entry.plan != poisoned  # the recovered plan is cached ...
        assert entry.planning is None  # ... without the reply that failed
        # The next run asks planning afresh, without a replan, and binds.
        again = session.query(query)
        assert again.value == result.value and again.trace.replans == 0
        assert memo_spans(again, "planning") == ["absent"]
        assert session.plan_cache.get(key).planning is not None

        failed = session.query("Colorless green ideas sleep furiously")
        assert failed.kind == "error"
        assert len(session.plan_cache) == 1


# ----------------------------------------------------------------------
# (d) eviction takes the replies with the plan
# ----------------------------------------------------------------------


def test_eviction_drops_the_replies(rotowire):
    other = "Who is the tallest player?"
    with Session(rotowire, plan_cache_size=1) as session:
        session.query(QUERY)
        assert memo_counters(session.query(QUERY)) == {"binding_memo_hits": 4}
        session.query(other)  # evicts QUERY's entry, replies included
        assert session.plan_cache.evictions == 1
        assert memo_counters(session.query(QUERY)) == \
            {"binding_memo_misses_absent": 4}
        assert memo_counters(session.query(QUERY)) == {"binding_memo_hits": 4}


# ----------------------------------------------------------------------
# (e) persistence
# ----------------------------------------------------------------------


def test_save_load_round_trips_the_replies(tmp_path, rotowire):
    path = tmp_path / "plans.json"
    with Session(rotowire) as session:
        want = session.query(TEXT_QUERY)
        session.plan_cache.put(("bare", "lake"), BoundPlan(LogicalPlan(
            steps=[LogicalStep(1, "a step", inputs=["t"], output="out")])))
        key = (TEXT_QUERY, rotowire.name)
        assert session.save_plan_cache(path) == 2
        entry = session.plan_cache.get(key)
    saved = {item["query"]: item["plan"]
             for item in json.loads(path.read_text())["entries"]}
    # The additive key is emitted only for entries that have replies.
    assert "bindings" in saved[TEXT_QUERY] and "bindings" not in saved["bare"]
    assert len(saved[TEXT_QUERY]["bindings"]["mappings"]) == len(entry.plan)
    assert saved[TEXT_QUERY]["bindings"]["planning"] == \
        entry.planning.to_dict()

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
    assert bare == BoundPlan(bare.plan)
    assert bare.to_dict() == saved["bare"] == bare.plan.to_dict()
    # The replies never leak into the plan IR or a trace payload.
    assert "bindings" not in entry.plan.to_dict()
    assert "bindings" not in json.dumps(want.to_dict())


@pytest.mark.parametrize("dataset", ("artwork", "rotowire"))
def test_a_bound_plan_cache_file_from_an_earlier_release_runs_warm(
        request, dataset):
    # The fixture holds both workloads' entries, saved cold by an engine
    # that keyed plans by the lake's shape fingerprint, bound no
    # planning reply, reused replies through prompt/read method pairs on
    # the roles, sent every table and operator card in each mapping
    # prompt, and digested each prompt from its rendered text.  The
    # session re-keys its entries to the lake's name, and each plan
    # serves as an unbound planning reply; every other reply was stored
    # under a digest of the rendered text (and without section digests),
    # so discovery and each mapping step are asked again once, rebound,
    # and served from then on.
    lake = request.getfixturevalue(dataset)
    queries = list(workload(dataset))
    want = [Session(lake).query(query).describe() for query in queries]
    brain = CountingBrain()
    with Session(lake, brain=brain,
                 plan_cache=PlanCache.load(BOUND_FIXTURE)) as session:
        first = [session.query(query) for query in queries]
        steps = [len(result.trace.logical_plan) for result in first]
        assert brain.calls == sum(steps) + len(queries)
        assert [result.describe() for result in first] == want
        for result, plan_steps in zip(first, steps):
            assert result.telemetry.plan_cache_hit
            assert memo_counters(result) == {
                "binding_memo_hits": 1,
                "binding_memo_misses_digest_changed": plan_steps + 1,
                "binding_memo_section_changed_unknown": plan_steps + 1}

        second = [session.query(query) for query in queries]
    assert brain.calls == sum(steps) + len(queries)
    assert [result.describe() for result in second] == want
    for result, plan_steps in zip(second, steps):
        assert memo_counters(result) == {"binding_memo_hits": 2 + plan_steps}


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
    """A Mapper that calls the model itself instead of asking through
    the transcript: its decision may depend on anything, so it must be
    asked every time."""

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def map_step(self, tables, cards, step, hints, observations,
                 transcript, error_feedback=""):
        self.calls += 1
        messages = build_mapping_prompt(tables, cards, step, hints,
                                        observations,
                                        error_feedback=error_feedback).messages
        response = self.model.complete(messages)
        transcript.record(f"mapping:{step.index}", messages, response)
        return parse_mapping_response(response)


class ComposedMapper:
    """A Mapper that delegates to a PromptMapper it holds."""

    def __init__(self, model):
        self.inner = PromptMapper(model)

    def map_step(self, tables, cards, step, hints, observations,
                 transcript, error_feedback=""):
        return self.inner.map_step(tables, cards, step, hints, observations,
                                   transcript, error_feedback=error_feedback)


class MarkedPlanner(PromptPlanner):
    """A PromptPlanner subclass: inherits its ask through the transcript."""


def test_role_overrides_are_memoised_or_bypassed_never_wrong(rotowire):
    want = Session(rotowire).query(QUERY)

    brain = CountingBrain()
    mapper = OpaqueMapper(brain)
    with Session(rotowire, brain=brain, mapper=mapper) as session:
        first, second = session.query(QUERY), session.query(QUERY)
        entry = session.plan_cache.get((QUERY, rotowire.name))
    assert first.value == second.value == want.value
    assert mapper.calls == 2 * len(entry.plan)  # asked on both passes
    assert entry.mappings == ()  # bypassed ...
    assert "memo" not in {key for span in second.telemetry.spans
                          if span.stage == "mapping" for key in span.notes}
    # ... while the plan is still reused through its planning reply.
    assert entry.planning is not None and entry.discovery is not None
    assert memo_counters(second) == {"binding_memo_hits": 2}

    brain = CountingBrain()
    with Session(rotowire, brain=brain,
                 planner=MarkedPlanner(brain)) as session:
        first = session.query(QUERY)
        asked = brain.calls
        second = session.query(QUERY)
    assert first.value == second.value == want.value
    assert asked > 0 and brain.calls == asked  # memoised through the ask


def test_a_mapper_composing_prompt_mapper_is_memoised(rotowire):
    brain = CountingBrain()
    with Session(rotowire, brain=brain,
                 mapper=ComposedMapper(brain)) as session:
        first = session.query(QUERY)
        asked = brain.calls
        second = session.query(QUERY)
        entry = session.plan_cache.get((QUERY, rotowire.name))
    assert first.value == second.value == Session(rotowire).query(QUERY).value
    assert asked > 0 and brain.calls == asked
    assert len(entry.mappings) == len(entry.plan)
    assert memo_counters(second) == {"binding_memo_hits": 4}


# ----------------------------------------------------------------------
# (i) Transcript.ask: the one place a bound reply is reused
# ----------------------------------------------------------------------


class NumberingModel:
    """Answers every prompt with the number of the call."""

    name = "numbering"

    def __init__(self) -> None:
        self.calls = 0

    def complete(self, messages) -> str:
        self.calls += 1
        return f"reply {self.calls}"


def prompt(role: str, step: str) -> Prompt:
    return Prompt([Section.of("role", role)], [Section.of("step", step)])


PROMPT = prompt("You map steps.", "Step 1: count the rows.")


def test_prompt_digest_covers_roles_contents_and_order():
    same = prompt("You map steps.", "Step 1: count the rows.")
    assert same.digest == PROMPT.digest
    for other in (Prompt([], [Section.of("role", "You map steps."),
                              Section.of("step", "Step 1: count the rows.")]),
                  prompt("You map steps.", "Step 1: count rows."),
                  prompt("Step 1: count the rows.", "You map steps."),
                  Prompt([Section.of(
                      "role", "You map steps.Step 1: count the rows.")], [])):
        assert other.digest != PROMPT.digest
    assert BoundReply is InterfaceBoundReply


def test_ask_reuses_a_bound_reply_iff_the_digests_are_equal():
    model = NumberingModel()
    bound = BoundReply(PROMPT.digest, "stored", PROMPT.section_digests())
    transcript = Transcript(bound={"mapping:1": bound})
    assert transcript.ask(model, "mapping:1", PROMPT) == "stored"
    assert model.calls == 0 and transcript.replies["mapping:1"] is bound
    changed = Prompt(PROMPT.system, [
        *PROMPT.human, Section.of("observations", "Observation: 3 rows.")])
    assert transcript.ask(model, "mapping:1", changed) == "reply 1"
    # The miss names the first section the bound reply did not see.
    assert transcript.outcomes == ["hit", "digest_changed:observations"]
    assert transcript.replies["mapping:1"] == \
        BoundReply(changed.digest, "reply 1")
    assert transcript.replies["mapping:1"].sections == \
        changed.section_digests()


def test_ask_names_an_absent_reply_and_keeps_the_fresh_one():
    model = NumberingModel()
    transcript = Transcript(
        bound={"discovery": BoundReply(PROMPT.digest, "stored")})
    assert transcript.ask(model, "mapping:1", PROMPT) == "reply 1"
    assert transcript.outcomes == ["absent"]
    assert transcript.replies == \
        {"mapping:1": BoundReply(PROMPT.digest, "reply 1")}


def test_a_retry_is_asked_named_and_never_kept():
    model = NumberingModel()
    transcript = Transcript(
        bound={"mapping:1": BoundReply(PROMPT.digest, "stored")})
    assert transcript.ask(model, "mapping:1", PROMPT) == "stored"
    # Even with a matching digest, a retry goes to the model ...
    assert transcript.ask(model, "mapping:1", PROMPT, retry=True) == \
        "reply 1"
    assert transcript.outcomes == ["hit", "retry"]
    # ... and leaves nothing to bind for its label.
    assert transcript.replies == {"mapping:1": None}


def test_entries_list_only_prompts_actually_sent():
    model = NumberingModel()
    changed = prompt("You map steps.", "Step 2: plot it.")
    transcript = Transcript(
        bound={"mapping:1": BoundReply(PROMPT.digest, "stored",
                                       PROMPT.section_digests()),
               "mapping:2": BoundReply(PROMPT.digest, "stored",
                                       PROMPT.section_digests())})
    transcript.ask(model, "mapping:1", PROMPT)
    transcript.ask(model, "mapping:2", changed)
    transcript.ask(model, "mapping:3", PROMPT, retry=True)
    assert transcript.outcomes == ["hit", "digest_changed:step", "retry"]
    assert len(transcript) == model.calls == 2
    assert transcript.labels() == ["mapping:2", "mapping:3"]
    assert [entry.messages for entry in transcript.entries] == \
        [changed.messages, PROMPT.messages]
    assert [entry.response for entry in transcript.entries] == \
        ["reply 1", "reply 2"]
