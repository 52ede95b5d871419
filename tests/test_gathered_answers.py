"""A warm query gathers instead of rebuilding.

IMAGE and TEXT columns are codes into a shared pool, and a modality
step's answers are memoised per pool entry under the answer cache they
came from (:mod:`repro.operators.modality`); a join probes an index
built once per right table (its ``join_index`` memo); sample values are
read from the store.  Checked here:

- a warm pass builds nothing per row: with every key builder, hasher,
  template instantiation, join-index and string-pool order build patched
  to raise, it answers byte-identically
  (:func:`assert_warm_pass_rebuilds_nothing`, also run at scale 20 in
  CI), it builds none of the :data:`ZERO_BUILD_KINDS` memo kinds, and a
  string predicate never calls ``numpy.isin``;
- a memo only serves the cache it was filled from: another cache, a
  cleared or a loaded one counts exactly what it counts on a lake no
  memo was ever filled on, lanes agree, and the memos are not pickled;
- a cache smaller than the workload counts, evicts and orders its
  entries as the batch loop without memos did;
- ``sample_values`` equals the scan it replaced on every store type.
"""

from __future__ import annotations

import contextlib
import json
import math
import pickle
import random
import time
from datetime import date

import numpy as np
import pytest

import repro.core.answer_cache as answer_cache_module
import repro.data.columns as columns_module
import repro.operators.text_qa as text_qa_module
import repro.text.qa as text_qa_model
from repro.core.answer_cache import AnswerCache
from repro.core.batch import BatchReport
from repro.core.engine import Engine
from repro.data.columns import (DISTINCT_SCAN, BoolColumn, DateColumn,
                                FloatColumn, ImageColumn, IntColumn,
                                ObjectColumn, PooledColumn, StringColumn,
                                TextColumn)
from repro.data.datatypes import DataType
from repro.data.memo import memo_builds
from repro.data.schema import ColumnSpec, Schema
from repro.data.table import Table
from repro.datasets import load_lake
from repro.obs import QueryTelemetry
from repro.operators import (ExecutionContext, TextQAOperator,
                             VisualQAOperator)
from repro.operators.modality import BATCH_ROWS
from repro.relational import colexec
from repro.relational.sqlexec import run_sql
from repro.session import Session
from repro.testing.workloads import WORKLOADS, workload
from repro.vision import LazyImage, build_scene
from repro.vision.image import Image

#: the per-query work counters a memo must leave as they were
MODALITY_COUNTERS = ("vision_inferences", "text_inferences",
                     "answer_cache_hits", "answer_cache_misses")


def canonical(report: BatchReport) -> str:
    return json.dumps(report.canonical_results(), sort_keys=True)


def modality_counts(report: BatchReport) -> dict[str, int]:
    totals = dict.fromkeys(MODALITY_COUNTERS, 0)
    for result in report.results:
        for name in MODALITY_COUNTERS:
            totals[name] += result.telemetry.counters.get(name, 0)
    return totals


# ----------------------------------------------------------------------
# A warm pass rebuilds nothing
# ----------------------------------------------------------------------


def _refuse(what: str):
    def refuse(*_args, **_kwargs):
        raise AssertionError(f"a warm query called {what}")
    return refuse


#: ``(owner, attribute)`` of everything that builds a per-row key, a
#: join index or a string pool's order: image keys and digests, report
#: digests, instantiated questions, the join-index and the order builder.
REBUILDERS = (
    (Image, "keyed"), (Image, "fingerprint"), (LazyImage, "fingerprint"),
    (text_qa_module, "text_fingerprint"),
    (answer_cache_module, "text_fingerprint"),
    (text_qa_module, "instantiate_template"),
    (text_qa_model, "instantiate_template"),
    (colexec, "_build_join_index"),
    (columns_module, "build_pool_order"),
)

#: Memo kinds (:data:`repro.data.memo.KINDS`) a warm pass never builds:
#: each is derived once per lake table, pool or lake version.
ZERO_BUILD_KINDS = ("join_index", "hint", "tables_section", "order",
                    "answers", "join_probes", "text_fingerprint",
                    "prompt_digest", "udf")

#: Python-step questions whose step reads a fresh filtered take of a
#: lake string column on every ask.
PYTHON_QUESTIONS = tuple(
    f"What are the min, max and average year of {adjective} paintings?"
    for adjective in ("baroque", "expressionist", "impressionist",
                      "renaissance", "romantic"))


@contextlib.contextmanager
def refusing_rebuilders():
    """Every name of :data:`REBUILDERS` raises while inside."""
    saved = [(owner, name, getattr(owner, name))
             for owner, name in REBUILDERS]
    for owner, name, _ in saved:
        setattr(owner, name, _refuse(f"{owner.__name__}.{name}"))
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def assert_warm_pass_rebuilds_nothing(dataset: str,
                                     scale: float) -> dict[str, int]:
    """After one pass over *dataset*'s workload queries at *scale*, a
    second pass runs with every rebuilder patched to raise and answers
    byte-identically.  Returns the second pass's memo builds per kind."""
    queries = workload(dataset)
    with Session(load_lake(dataset, scale=scale)) as session:
        first = session.batch(queries)
        assert first.num_errors == 0
        with refusing_rebuilders():
            before = dict(memo_builds)
            second = session.batch(queries)
            after = dict(memo_builds)
    assert canonical(second) == canonical(first)
    return {kind: after[kind] - before[kind] for kind in after}


def warm_udf_values(scale: float) -> dict[str, int]:
    """Values handed to generated code by the second ask of each of
    :data:`PYTHON_QUESTIONS` at artwork@*scale*."""
    with Session(load_lake("artwork", scale=scale)) as session:
        first = session.batch(list(PYTHON_QUESTIONS))
        assert first.num_errors == 0
        second = session.batch(list(PYTHON_QUESTIONS))
    assert canonical(second) == canonical(first)
    return {query: result.telemetry.counters.get("udf_rows_evaluated", 0)
            for query, result in zip(PYTHON_QUESTIONS, second.results)}


def warm_ms_per_query(dataset: str, scale: float, passes: int = 5) -> float:
    """Best of *passes* warm passes over *dataset*'s workload queries at
    *scale*, in milliseconds per query (a report, not a gate)."""
    queries = workload(dataset)
    with Session(load_lake(dataset, scale=scale)) as session:
        session.batch(queries)
        best = math.inf
        for _ in range(passes):
            started = time.perf_counter()
            for query in queries:
                session.query(query)
            best = min(best, time.perf_counter() - started)
    return 1000.0 * best / len(queries)


@pytest.mark.parametrize("dataset", sorted(WORKLOADS))
def test_a_warm_pass_builds_no_key_and_no_join_index(dataset):
    assert_warm_pass_rebuilds_nothing(dataset, scale=2)


@pytest.mark.parametrize("dataset", sorted(WORKLOADS))
def test_a_warm_pass_builds_none_of_the_zero_build_kinds(dataset):
    builds = assert_warm_pass_rebuilds_nothing(dataset, scale=2)
    assert {kind: builds[kind] for kind in ZERO_BUILD_KINDS} \
        == dict.fromkeys(ZERO_BUILD_KINDS, 0)


def test_a_warm_ask_of_a_python_question_evaluates_no_value():
    assert warm_udf_values(scale=2) == dict.fromkeys(PYTHON_QUESTIONS, 0)


def test_a_cold_pass_builds_every_zero_build_kind():
    # The pin above is only worth something if a cold pass builds them.
    before = dict(memo_builds)
    for dataset in sorted(WORKLOADS):
        with Session(load_lake(dataset)) as session:
            session.batch(workload(dataset))
    after = dict(memo_builds)
    assert [kind for kind in ZERO_BUILD_KINDS
            if after[kind] == before[kind]] == []


def test_the_rebuilders_are_what_a_cold_pass_calls():
    # The pin above is only worth something if the patched names are
    # the ones a cold pass really goes through.
    called = set()
    saved = [(owner, name, getattr(owner, name)) for owner, name in REBUILDERS]

    def counting(label, original):
        def call(*args, **kwargs):
            called.add(label)
            return original(*args, **kwargs)
        return call
    for owner, name, original in saved:
        setattr(owner, name, counting(f"{owner.__name__}.{name}", original))
    try:
        for dataset in sorted(WORKLOADS):
            with Session(load_lake(dataset)) as session:
                session.batch(workload(dataset))
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    assert {"Image.keyed", "repro.operators.text_qa.text_fingerprint",
            "repro.operators.text_qa.instantiate_template",
            "repro.relational.colexec._build_join_index",
            "repro.data.columns.build_pool_order"} <= called


#: Artwork string predicates of each kernel shape: rank cuts, member
#: codes and per-entry LIKE, negated forms included.
STRING_PREDICATES = (
    "SELECT * FROM paintings_metadata "
    "WHERE inception BETWEEN '1700-01-01' AND '1740-12-31'",
    "SELECT title FROM paintings_metadata WHERE inception < '1600-06-15'",
    "SELECT * FROM paintings_metadata "
    "WHERE movement IN ('Impressionism', 'Baroque', 'Nope')",
    "SELECT * FROM paintings_metadata WHERE movement NOT IN ('Baroque')",
    "SELECT title FROM paintings_metadata WHERE title LIKE '%of the%'",
    "SELECT * FROM paintings_metadata WHERE genre NOT LIKE 'p%'",
)


def test_a_warm_pass_over_string_predicates_never_calls_isin(monkeypatch):
    lake = load_lake("artwork", scale=2)
    tables = {name: source.table for name, source in lake.sources.items()}
    queries = workload("artwork")  # its date range is a string BETWEEN

    def run(session):
        answers = [colexec.execute(sql, tables).fingerprint()
                   for sql in STRING_PREDICATES]
        return answers, canonical(session.batch(queries))
    with Session(lake) as session:
        first = run(session)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a string predicate called numpy.isin")
        monkeypatch.setattr(np, "isin", refuse)
        with refusing_rebuilders():
            second = run(session)
    assert second == first
    assert first[0] == [run_sql(sql, tables).fingerprint()
                        for sql in STRING_PREDICATES]


# ----------------------------------------------------------------------
# A memo serves only the cache it was filled from
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dataset", sorted(WORKLOADS))
def test_another_cleared_or_loaded_cache_counts_as_on_a_fresh_lake(
        dataset, tmp_path):
    queries = workload(dataset)
    shared = load_lake(dataset)
    warm = Session(shared)
    warm.batch(queries)
    warm.batch(queries)
    path = tmp_path / "answers.json"
    warm.answer_cache.save(path)

    def counts(lake, cache) -> dict[str, int]:
        with Session(lake, answer_cache=cache) as session:
            return modality_counts(session.batch(queries))

    cases = {
        "own cache": lambda: AnswerCache(),
        "loaded": lambda: AnswerCache.load(path),
        "evicting": lambda: AnswerCache(capacity=16),
    }
    for label, make in cases.items():
        assert counts(shared, make()) == counts(load_lake(dataset), make()), \
            label
    cold = counts(load_lake(dataset), AnswerCache())
    assert cold["vision_inferences"] + cold["text_inferences"] > 0
    # The warm session's own cache, cleared, is cold again.
    warm.answer_cache.clear()
    assert modality_counts(warm.batch(queries)) == cold
    warm.close()


#: Per pass (forward, reversed, interleaved) ``MODALITY_COUNTERS`` and the
#: cache's final ``(hits, misses, evictions)``, as the batch-at-a-time
#: loop that keyed every row in every step counted them, for answer
#: caches smaller than the workload's 360 (artwork) and 158 (rotowire)
#: keys.  Memos change none of it: a memo-served step looks its keys up
#: in the loop's order, so the LRU evicts what the loop's did.
UNDER_PRESSURE = {
    ("artwork", 16): ([(360, 0, 0, 360)] * 3, (0, 1080, 1064)),
    ("artwork", 180): ([(360, 0, 0, 360), (236, 0, 124, 236),
                        (240, 0, 120, 240)], (244, 836, 656)),
    ("rotowire", 16): ([(0, 158, 0, 158), (0, 158, 0, 158),
                        (0, 142, 16, 142)], (16, 458, 442)),
    ("rotowire", 79): ([(0, 158, 0, 158), (0, 92, 66, 92),
                        (0, 92, 66, 92)], (132, 342, 263)),
}


@pytest.mark.parametrize("dataset, capacity", sorted(UNDER_PRESSURE))
def test_a_small_cache_counts_as_the_batch_loop_did(dataset, capacity):
    queries = workload(dataset)
    cache = AnswerCache(capacity=capacity)
    with Session(load_lake(dataset), answer_cache=cache) as session:
        passes = [tuple(modality_counts(session.batch(order)).values())
                  for order in (queries, queries[::-1],
                                queries[::2] + queries[1::2])]
    assert (passes, cache.snapshot()) == UNDER_PRESSURE[dataset, capacity]


def test_a_memo_served_step_keeps_its_keys_recent():
    # Fill a cache with the workload's answers, then with unrelated
    # entries up to capacity: the workload's keys are the oldest.  A
    # warm pass served from the memos must make them the most recent
    # again, so the next fill evicts the unrelated ones, and the memos
    # outlive those evictions.
    queries = workload("artwork")
    with Session(load_lake("artwork")) as session:
        session.batch(queries)
        held = len(session.answer_cache)
    cache = AnswerCache(capacity=2 * held)
    with Session(load_lake("artwork"), answer_cache=cache) as session:
        session.batch(queries)
        cache.put_many([(("other", str(i), "int"), i) for i in range(held)])
        assert modality_counts(session.batch(queries))[
            "answer_cache_misses"] == 0
        cache.put_many([(("later", str(i), "int"), i) for i in range(held)])
        assert cache.evictions == held
        with refusing_rebuilders():
            again = modality_counts(session.batch(queries))
    assert again["vision_inferences"] == 0
    assert again["answer_cache_misses"] == 0


def test_a_memo_served_step_looks_its_keys_up_in_the_batch_order():
    # Repeats inside a batch and across batches, and a null.
    images = load_lake("artwork").table("painting_images").column("image")
    column = list(images[:BATCH_ROWS + 30])
    column[3] = None
    column[10] = column[11] = column[2]
    column[BATCH_ROWS + 5] = column[7]
    schema = Schema([ColumnSpec("image", DataType.IMAGE)])
    args = ["t", "image", "n", "How many swords are depicted?", "int"]

    def step(table: Table, cache: AnswerCache) -> dict[str, int]:
        context = ExecutionContext(tables={"t": table}, answer_cache=cache,
                                   telemetry=QueryTelemetry())
        VisualQAOperator().run(context, args)
        return context.telemetry.counters

    table = Table(schema, {"image": column})
    served = AnswerCache()
    step(table, served)
    looked_up = AnswerCache()
    looked_up.install(served.items())
    order = list(range(len(column)))[::-1] + [11, 2, 10, 3, 40]
    before = served.snapshot()
    with refusing_rebuilders():
        counters = step(table.take(order), served)   # from the memo
    # The same rows in a new pool: keyed and looked up batch by batch.
    assert step(Table(schema, {"image": [column[i] for i in order]}),
                looked_up) == counters
    assert counters == {"answer_cache_hits": len(order) - 2}
    assert [now - then for now, then in zip(served.snapshot(), before)] \
        == list(looked_up.snapshot())
    assert [key for key, _ in served.items()] \
        == [key for key, _ in looked_up.items()]


def test_text_qa_over_no_document_instantiates_nothing():
    # A template naming a missing column is only an error once a
    # question is asked; with no document none is.
    schema = Schema([ColumnSpec("report", DataType.TEXT)])
    args = ["t", "report", "points", "How many points did <nope> score?",
            "int"]
    for rows in ([], [None, None]):
        table = Table(schema, {"report": rows})
        for cache in (None, AnswerCache()):
            result = TextQAOperator().run(
                ExecutionContext(tables={"t": table}, answer_cache=cache),
                args)
            assert result.table.column("points") == [None] * len(rows)


def test_lanes_and_a_session_without_answer_cache_agree():
    for dataset in sorted(WORKLOADS):
        lake = load_lake(dataset)
        queries = workload(dataset)
        reports = {}
        for backend in ("serial", "thread", "process"):
            with Session(lake) as session:
                session.batch(queries, workers=2, backend=backend)
                reports[backend] = canonical(
                    session.batch(queries, workers=2, backend=backend))
        engine = Engine(load_lake(dataset))
        assert engine.answer_cache is None
        uncached = canonical(BatchReport(
            workload=queries,
            results=[engine.query(query) for query in queries]))
        assert reports["serial"] == reports["thread"] \
            == reports["process"] == uncached, dataset


def test_the_memos_are_not_pickled():
    lake = load_lake("artwork")
    queries = workload("artwork")
    with Session(lake) as session:
        session.batch(queries)
        images = lake.table("painting_images").storage("image")
        assert isinstance(images, ImageColumn)
        assert len(images.memo)   # filled by the pass
        before = (len(pickle.dumps(lake)),
                  len(pickle.dumps(session.answer_cache.items())))
        session.batch(queries)
        after = (len(pickle.dumps(lake)),
                 len(pickle.dumps(session.answer_cache.items())))
    assert after == before
    copy = pickle.loads(pickle.dumps(lake))
    stored = copy.table("painting_images").storage("image")
    assert len(stored.memo) == 0
    assert copy.table("painting_images").column("image") \
        == lake.table("painting_images").column("image")


# ----------------------------------------------------------------------
# sample_values reads the store
# ----------------------------------------------------------------------


def scanned_samples(table: Table, name: str, limit: int) -> list[object]:
    """What ``sample_values`` computed before it read the store: a scan
    over the decoded values."""
    modality = table.dtype(name).is_modality
    seen: list[object] = []
    for value in table.column(name):
        if value is None:
            continue
        display = (repr(value) if modality
                   and not isinstance(value, str) else value)
        if display not in seen and display == display:
            seen.append(display)
        if len(seen) >= limit:
            break
    return seen


class Doc(str):
    """A ``str`` subclass: a TEXT column holding one is object storage."""


def _images():
    scenes = [LazyImage(build_scene({"dog": 1}, seed=seed), path=f"img/{seed}")
              for seed in range(6)]
    twin = LazyImage(scenes[0]._scene, path=scenes[0].path)  # same repr
    return scenes + [twin]


def _value_pools():
    images = _images()
    return {
        DataType.INTEGER: (IntColumn, [0, 1, -5, 7, 2 ** 40, 3]),
        DataType.FLOAT: (FloatColumn, [0.0, -0.0, 1.5, float("nan"),
                                       float("inf"), 2.25]),
        DataType.BOOLEAN: (BoolColumn, [True, False]),
        DataType.DATE: (DateColumn, [date(2020, 1, d) for d in range(1, 7)]),
        DataType.STRING: (StringColumn, ["a", "b", "", "é", "a b", "z"]),
        DataType.TEXT: (TextColumn, ["first report.", "second.", "", "x"]),
        DataType.IMAGE: (ImageColumn, images),
    }


def _columns(pool: list, rng: random.Random):
    """Short, long, NULL-heavy, few-distinct and late-distinct columns
    drawn from *pool*, so both the scan and the numpy path run."""
    long = DISTINCT_SCAN * 3
    yield []
    yield [None, None]
    yield [pool[0]] * 5 + [None]
    for size in (3, 9, 40, long):
        for nulls in (0.0, 0.3):
            for distinct in (1, 2, len(pool)):
                choices = pool[:distinct]
                yield [None if rng.random() < nulls else rng.choice(choices)
                       for _ in range(size)]
    # Distinct values that only appear after the scanned prefix.
    yield [pool[0]] * long + list(pool[1:]) + [None]
    yield [None] * long + [pool[-1], pool[0]]


@pytest.mark.parametrize("dtype", list(_value_pools()))
def test_sample_values_equal_the_scan_on_every_store(dtype):
    store, pool = _value_pools()[dtype]
    rng = random.Random(dtype.value)
    for values in _columns(pool, rng):
        table = Table(Schema([ColumnSpec("c", dtype)]), {"c": list(values)})
        storage = table.storage("c")
        assert isinstance(storage, store) or not any(
            value is not None for value in values)
        for limit in (1, 2, 3, 5):
            got = table.sample_values("c", limit)
            want = scanned_samples(table, "c", limit)
            # Type-exact: 1, 1.0 and True are not interchangeable.
            assert [(type(v), repr(v)) for v in got] \
                == [(type(v), repr(v)) for v in want], (dtype, values, limit)
    if dtype is DataType.IMAGE:
        assert not any(image.rendered for image in pool)


def test_sample_values_equal_the_scan_on_object_storage():
    rng = random.Random(5)
    pool = [1, 1.0, True, "1", None, float("nan"), Doc("d"), (1, 2), -0.0,
            0.0]
    for dtype in (DataType.INTEGER, DataType.STRING, DataType.TEXT):
        for size in (4, 30, DISTINCT_SCAN * 2):
            values = [rng.choice(pool) for _ in range(size)] + [Doc("d")]
            table = Table(Schema([ColumnSpec("c", dtype)]), {"c": values})
            assert isinstance(table.storage("c"), ObjectColumn)
            for limit in (1, 3, 4):
                got = table.sample_values("c", limit)
                want = scanned_samples(table, "c", limit)
                assert [(type(v), repr(v)) for v in got] \
                    == [(type(v), repr(v)) for v in want]


def test_a_take_shares_the_pool_and_its_memo():
    images = _images()
    table = Table(Schema([ColumnSpec("image", DataType.IMAGE)]),
                  {"image": images + [images[2], None]})
    storage = table.storage("image")
    assert isinstance(storage, PooledColumn)
    assert storage.codes.tolist() == [0, 1, 2, 3, 4, 5, 6, 2, -1]
    taken = table.take([7, 2, 8]).storage("image")
    assert taken.pool is storage.pool
    assert taken.memo.get("answers", "probe", dict) \
        is storage.memo.get("answers", "probe", dict)
    assert taken.materialize() == [images[2], images[2], None]
