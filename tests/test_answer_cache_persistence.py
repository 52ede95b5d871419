"""AnswerCache.save/load and the --answer-cache-file CLI surface (the
save/load contract shared by both spaces is in
``test_plan_cache_persistence.py``)."""

import json
from datetime import date

import pytest

from repro.cli import main
from repro.core.answer_cache import ANSWER_CACHE_FORMAT, MISS, AnswerCache
from repro.session import Session

QUERY = "How many paintings are depicting a sword?"


def test_save_load_roundtrip(tmp_path):
    cache = AnswerCache(capacity=8)
    cache.put(("fp1", "what?", "int"), 3)
    cache.put(("fp2", "when?", "str"), date(1871, 3, 2))
    cache.put(("fp3", "says?", "str"), None)  # "the text does not say"
    cache.put(("fp4", "keep?", "select"), True)
    path = tmp_path / "answers.json"
    assert cache.save(path) == 4

    loaded = AnswerCache.load(path)
    assert len(loaded) == 4
    assert loaded.capacity == 8
    assert loaded.get(("fp1", "what?", "int")) == 3
    assert loaded.get(("fp2", "when?", "str")) == date(1871, 3, 2)
    assert loaded.get(("fp3", "says?", "str")) is None
    assert loaded.get(("fp3", "says?", "str")) is not MISS
    assert loaded.get(("fp4", "keep?", "select")) is True


def test_load_truncates_to_capacity_keeping_most_recent(tmp_path):
    cache = AnswerCache(capacity=8)
    for i in range(5):
        cache.put((f"fp{i}", "q", "int"), i)
    path = tmp_path / "answers.json"
    cache.save(path)
    loaded = AnswerCache.load(path, capacity=2)
    assert len(loaded) == 2
    assert loaded.get(("fp4", "q", "int")) == 4
    assert loaded.get(("fp0", "q", "int")) is MISS


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something-else"}),
                    encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        AnswerCache.load(path)
    assert "answer-cache" in str(excinfo.value)
    assert ANSWER_CACHE_FORMAT.startswith("repro-answer-cache")


def test_warm_answers_survive_session_restart(tmp_path):
    path = tmp_path / "answers.json"
    first = Session("artwork")
    result = first.query(QUERY)
    assert first.save_answer_cache(path) == len(first.answer_cache)
    assert len(first.answer_cache) > 0

    second = Session("artwork")
    assert second.load_answer_cache(path) == len(first.answer_cache)
    before = second.answer_cache.snapshot()
    warm = second.query(QUERY)
    hits, misses, _ = second.answer_cache.snapshot()
    assert warm.value == result.value
    assert hits - before[0] > 0
    assert misses - before[1] == 0  # fully warm: zero model inferences


def test_cli_answer_cache_file_roundtrip(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text(QUERY + "\n", encoding="utf-8")
    cache_file = tmp_path / "answers.json"

    assert main(["batch", "--dataset", "artwork", "--scale", "0.25",
                 str(batch), "--answer-cache-file", str(cache_file)]) == 0
    assert cache_file.exists()
    first = capsys.readouterr().out

    # Run 2 restarts onto the process backend: the persisted answers are
    # shipped into the worker lanes, so no modality model runs at all.
    assert main(["batch", "--dataset", "artwork", "--scale", "0.25",
                 str(batch), "--answer-cache-file", str(cache_file),
                 "--backend", "process"]) == 0
    second = capsys.readouterr().out
    # Run 1 misses every (painting, question) pair; run 2 is fully warm
    # from the persisted file.
    assert "answer cache: 0 hits" in first
    assert "0 misses" in second.split("answer cache:")[1].splitlines()[0]
