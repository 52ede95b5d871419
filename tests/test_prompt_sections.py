"""Prompts as sections: a prompt is identified by a digest of its section
digests, each memoised on what the section shows, and its text is built
only when the model is asked.

The contract under test: a warm query renders no prompt text; equal
digests mean byte-equal messages and vice versa, over every prompt the
workloads build (cold, warm, after an unrelated table is added, on a
retry); and a digest does not depend on the process that computed it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import interfaces
from repro.core.interfaces import PromptMapper
from repro.core.prompts import ColumnHint
from repro.data import DataType, Schema, Table
from repro.datasets import load_lake
from repro.errors import PlanParseError
from repro.llm.interface import ChatMessage, Prompt, Section
from repro.session import Session
from repro.testing.workloads import workload

DATASETS = ("artwork", "rotowire")
SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_lake(dataset: str):
    """A lake of our own: some tests add a table to it."""
    return load_lake(dataset)


def must_not_render(monkeypatch) -> None:
    """Make every way to build prompt text raise."""
    def boom(*_args, **_kwargs):
        raise AssertionError("a warm query rendered prompt text")

    monkeypatch.setattr(Schema, "prompt_repr", boom)
    monkeypatch.setattr(ColumnHint, "render", boom)
    monkeypatch.setattr(ChatMessage, "render", boom)
    monkeypatch.setattr(Prompt, "messages", property(boom))
    monkeypatch.setattr(Section, "text", property(boom))


@pytest.mark.parametrize("dataset", DATASETS)
def test_a_warm_query_renders_no_prompt_text(monkeypatch, dataset):
    queries = list(workload(dataset))
    with Session(fresh_lake(dataset)) as session:
        cold = [session.query(query) for query in queries]
        with monkeypatch.context() as patched:
            must_not_render(patched)
            warm = [session.query(query) for query in queries]
    assert all(result.ok for result in cold)
    assert [r.describe() for r in warm] == [r.describe() for r in cold]
    for result in warm:
        counters = result.telemetry.counters
        assert counters.get("binding_memo_hits", 0) > 0
        assert not any(name.startswith("binding_memo_misses")
                       for name in counters)


class FlakyMapper(PromptMapper):
    """Fails the first attempt at every query's first step after the
    model answered, so the step is retried with error feedback."""

    def map_step(self, tables, cards, step, hints, observations,
                 transcript, error_feedback=""):
        decision = super().map_step(tables, cards, step, hints,
                                    observations, transcript,
                                    error_feedback=error_feedback)
        if step.index == 1 and not error_feedback:
            raise PlanParseError("flaky mapper: unknown operator 'Nope'")
        return decision


def collect_prompts(monkeypatch) -> list[Prompt]:
    """Every prompt the default roles build from now on."""
    built: list[Prompt] = []
    for name in ("build_discovery_prompt", "build_planning_prompt",
                 "build_mapping_prompt"):
        def spy(*args, _build=getattr(interfaces, name), **kwargs):
            prompt = _build(*args, **kwargs)
            built.append(prompt)
            return prompt
        monkeypatch.setattr(interfaces, name, spy)
    return built


def rendered(prompt: Prompt) -> tuple:
    return tuple((message.role.value, message.content)
                 for message in prompt.messages)


@pytest.mark.parametrize("dataset", DATASETS)
def test_equal_digests_mean_equal_messages_and_back(monkeypatch, dataset):
    queries = list(workload(dataset))
    lake = fresh_lake(dataset)
    built = collect_prompts(monkeypatch)
    with Session(lake) as session:
        cold = [session.query(query) for query in queries]
        warm = [session.query(query) for query in queries]
        lake.add_table("weather_log", Table.infer(
            {"day": ["mon", "tue"], "rain_mm": [1.5, 0.0]}))
        added = [session.query(query) for query in queries]
    with Session(lake, mapper=FlakyMapper(Session(lake).brain)) as session:
        retried = [session.query(query) for query in queries]
    assert all(r.ok for r in cold + warm + added + retried)
    assert any(r.trace.errors for r in retried)

    by_digest: dict[str, tuple] = {}
    by_text: dict[tuple, str] = {}
    for prompt in built:
        text = rendered(prompt)
        assert by_digest.setdefault(prompt.digest, text) == text
        assert by_text.setdefault(text, prompt.digest) == prompt.digest
        # The same holds section by section, in every kind of prompt, so
        # the section a miss names really is one whose text changed.
        for section in prompt.sections:
            key = (section.name, section.digest)
            assert by_digest.setdefault(key, section.text) == section.text
            assert (by_text.setdefault((section.name, section.text),
                                       section.digest) == section.digest)
    # Warm and added passes rebuilt prompts the cold pass already sent:
    # the check compared equal prompts, not only distinct ones.
    assert len(by_digest) < len(built)
    retry_prompts = [p for p in built
                     if p.section_digests().get("error")
                     != Section.of("error", "").digest]
    assert retry_prompts


_SUBPROCESS = """
import hashlib, json, sys
from repro.core import interfaces
from repro.datasets import load_lake
from repro.session import Session
from repro.testing.workloads import workload

built = []
for name in ("build_discovery_prompt", "build_planning_prompt",
             "build_mapping_prompt"):
    def spy(*args, _build=getattr(interfaces, name), **kwargs):
        prompt = _build(*args, **kwargs)
        built.append(prompt)
        return prompt
    setattr(interfaces, name, spy)
with Session(load_lake(sys.argv[1])) as session:
    for query in workload(sys.argv[1]):
        session.query(query)
print(json.dumps({hashlib.sha256(json.dumps(
    [[m.role.value, m.content] for m in p.messages]).encode()).hexdigest():
    p.digest for p in built}))
"""


def digests_by_text(prompts: list[Prompt]) -> dict[str, str]:
    return {hashlib.sha256(json.dumps(
        [[m.role.value, m.content] for m in p.messages]).encode()
    ).hexdigest(): p.digest for p in prompts}


def test_a_digest_does_not_depend_on_the_process(monkeypatch):
    dataset = "rotowire"
    built = collect_prompts(monkeypatch)
    with Session(fresh_lake(dataset)) as session:
        for query in workload(dataset):
            session.query(query)
    mine = digests_by_text(built)
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    output = subprocess.run([sys.executable, "-c", _SUBPROCESS, dataset],
                            env=env, capture_output=True, text=True,
                            check=True, timeout=300).stdout
    theirs = json.loads(output.strip().splitlines()[-1])
    assert theirs == mine


def test_a_changed_digest_names_the_first_changed_section():
    lakes = [load_lake("rotowire", seed=seed) for seed in (1, 2)]
    lakes[1].name = lakes[0].name  # one name for other content
    query = "How many games did the Heat win?"
    with Session(lakes[0]) as first:
        first.query(query)
        with Session(lakes[1], plan_cache=first.plan_cache) as second:
            result = second.query(query)
            counters = second.metrics()["counters"]
    notes = [span.notes["memo"] for span in result.telemetry.spans
             if span.stage == "mapping"]
    # Same shape, other content.  Steps 1-3 read lake tables, whose lines
    # agree, but show other example values in the hints.  Step 3 keeps
    # other rows, so from step 4 on an input table's row count — in the
    # tables section, which comes before the hints — differs first.
    assert notes == (["digest_changed:hints"] * 3
                     + ["digest_changed:tables"] * 3)
    # The planning prompt shows the same hints.
    assert [span.notes["memo"] for span in result.telemetry.spans
            if span.stage == "planning"] == ["digest_changed:hints"]
    sections = {name: value for name, value in counters.items()
                if name.startswith("binding_memo_section_changed_total")}
    assert sections == {
        'binding_memo_section_changed_total{section="hints"}': 4,
        'binding_memo_section_changed_total{section="tables"}': 3}
    assert counters['binding_memo_misses_total{reason="digest_changed"}'] == 7


def test_the_lake_memo_follows_the_lake_version(monkeypatch):
    lake = fresh_lake("rotowire")
    before = lake.fingerprint()
    block = lake.prompt_repr()
    with monkeypatch.context() as patched:
        patched.setattr(Schema, "prompt_repr", None)
        assert lake.fingerprint() == before      # memoised, not rehashed
        assert lake.prompt_repr() is block
    lake.add_table("weather_log", Table.infer({"day": ["mon"]}))
    assert lake.fingerprint() != before
    assert "weather_log = table(" in lake.prompt_repr()


def test_an_intermediate_table_is_digested_from_its_schema():
    players = fresh_lake("rotowire").table("players")
    tall = players.with_column(
        "is_tall", DataType.BOOLEAN,
        [height > 200 for height in players.column("height_cm")])
    digests = {tall.prompt_digest("t"), players.prompt_digest("t"),
               players.prompt_digest("players"),
               players.head(3).prompt_digest("t")}
    assert len(digests) == 4
    assert players.prompt_digest("t") == players.take(
        list(range(players.num_rows))).prompt_digest("t")
