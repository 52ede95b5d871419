"""Differential tests for the batched modality layer.

The batch path (one ``get_many`` / one model call on the distinct misses /
one ``put_many`` per batch of rows; one segmentation per image) replaced a
row-at-a-time loop and a per-category detector.  Both are kept *here* as
references, and the product is required to agree with them exactly:
detections, answers, result tables, observations, cache counters,
telemetry counters and what ends up on a cache tier.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from scipy import ndimage

from repro import load_lake
from repro.cachenet import CacheClient, CacheTierServer, RemoteAnswerCache
from repro.core.answer_cache import MISS, AnswerCache, text_fingerprint
from repro.data.datatypes import DataType
from repro.data.schema import Schema
from repro.data.table import Table
from repro.errors import OperatorError
from repro.obs import LOCALITY_COUNTERS, MetricsRegistry, QueryTelemetry
from repro.operators import (ExecutionContext, ImageSelectOperator,
                             TextQAOperator, VisualQAOperator)
from repro.operators.modality import BATCH_ROWS
from repro.operators.visual_qa import answer_dtype, cast_answer
from repro.session import Session
from repro.text.qa import BartQASim, instantiate_template
from repro.vision import (CATEGORIES, Blip2Sim, Image, LazyImage,
                          build_scene, categories_in_phrase, glyph_mask,
                          render_scene)
from repro.vision.blip import (_COUNT_PATTERNS, _WHAT_PATTERN,
                               _YESNO_PATTERNS, MEMO_IMAGES)


# ----------------------------------------------------------------------
# Reference: the per-category, per-call detector the LUT kernel replaced
# ----------------------------------------------------------------------

class ReferenceBlip:
    """``Blip2Sim`` as it was before batching: every call re-segments the
    raster once per category and parses the question again."""

    def __init__(self, tolerance=30, min_area=5, miss_probability=0.0,
                 seed=0):
        self.tolerance = tolerance
        self.min_area = min_area
        self.miss_probability = miss_probability
        self._rng = random.Random(seed)

    def detect(self, image):
        found = []
        pixels = image.pixels.astype(np.int16)
        for category in CATEGORIES.values():
            color = np.array(category.color, dtype=np.int16)
            mask = (np.abs(pixels - color[None, None, :])
                    <= self.tolerance).all(axis=2)
            if not mask.any():
                continue
            labelled, count = ndimage.label(mask)
            for index in range(1, count + 1):
                component = labelled == index
                area = int(component.sum())
                if area < self.min_area:
                    continue
                ys, xs = np.nonzero(component)
                found.append((category.name, float(xs.mean()),
                              float(ys.mean()), area))
        if self.miss_probability > 0.0:
            found = [d for d in found
                     if self._rng.random() >= self.miss_probability]
        return found

    def depicted(self, image):
        return list(dict.fromkeys(d[0] for d in self.detect(image)))

    def answer(self, image, question):
        question = question.strip()
        if not question:
            raise OperatorError("empty VQA question", operator="VisualQA")
        for pattern in _COUNT_PATTERNS:
            match = pattern.search(question)
            if match:
                wanted = categories_in_phrase(match.group("rest"))
                if not wanted:
                    raise OperatorError("unresolved", operator="VisualQA")
                return sum(1 for d in self.detect(image)
                           if d[0] == wanted[0].name)
        if _WHAT_PATTERN.search(question):
            return ", ".join(self.depicted(image)) or "nothing"
        for pattern in _YESNO_PATTERNS:
            match = pattern.search(question)
            if match:
                wanted = categories_in_phrase(match.group("rest"))
                if not wanted:
                    raise OperatorError("unresolved", operator="VisualQA")
                present = self.depicted(image)
                return ("yes" if all(c.name in present for c in wanted)
                        else "no")
        wanted = categories_in_phrase(question)
        if wanted:
            present = self.depicted(image)
            return "yes" if all(c.name in present for c in wanted) else "no"
        raise OperatorError("not understood", operator="VisualQA")

    def matches_description(self, image, description):
        wanted = categories_in_phrase(description)
        if not wanted:
            raise OperatorError("unresolved", operator="Image Select")
        present = set(self.depicted(image))
        return all(c.name in present for c in wanted)


def as_tuples(detections):
    return [(d.category, d.cx, d.cy, d.area) for d in detections]


@pytest.fixture(scope="module")
def artwork_x2():
    return load_lake("artwork", scale=2)


@pytest.fixture(scope="module")
def paintings(artwork_x2):
    return artwork_x2.table("painting_images").column("image")


QUESTIONS = ("How many swords are depicted?", "What is depicted?",
             "Is a crown depicted?", "number of dogs",
             "Does the painting show a skull and a sword?",
             "madonna and child")


def test_lut_detector_equals_the_per_category_reference(paintings):
    reference = ReferenceBlip()
    model = Blip2Sim()
    batched = model.detect_many(paintings)
    assert len(batched) == 240
    for image, detections in zip(paintings, batched):
        eager = image.loaded()
        assert as_tuples(detections) == reference.detect(eager)
        assert as_tuples(model.detect(eager)) == as_tuples(detections)
    assert model.images_encoded == 240        # the second pass was memo hits
    assert not any(image.rendered for image in paintings)


def test_detector_handles_other_tolerances_areas_and_frame_sizes():
    scenes = [build_scene({"sword": 2, "dog": 1, "sun": 1}, seed=seed,
                          width=size, height=size)
              for seed, size in ((1, 32), (2, 32), (3, 48), (4, 64))]
    images = [render_scene(scene, path=f"img/{i}.png")
              for i, scene in enumerate(scenes)]
    speckled = images[0].pixels.copy()
    speckled[0, 0] = CATEGORIES["sword"].color     # one pixel: below min_area
    speckled[5:7, 5:8] = CATEGORIES["sun"].color   # six pixels: a component
    images.append(Image(speckled, path="img/speckled.png"))
    images.append(Image(np.zeros((8, 8, 3), dtype=np.uint8), path="blank"))
    for tolerance, min_area in ((30, 5), (8, 1), (60, 12), (30, 0)):
        reference = ReferenceBlip(tolerance=tolerance, min_area=min_area)
        model = Blip2Sim(tolerance=tolerance, min_area=min_area)
        for image, detections in zip(images, model.detect_many(images)):
            assert as_tuples(detections) == reference.detect(image)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_noisy_model_follows_the_reference_call_for_call(paintings, seed):
    """The miss-probability filter is drawn per call on top of the memo,
    so a noisy model consumes its RNG exactly as before — across batch
    and single-image entry points, repeated images and all questions."""
    images = [image.loaded() for image in paintings[:40]]
    reference = ReferenceBlip(miss_probability=0.3, seed=seed)
    model = Blip2Sim(miss_probability=0.3, seed=seed)
    for question in QUESTIONS:
        assert (model.answer_many(images, question)
                == [reference.answer(image, question) for image in images])
        assert (model.matches_description(images[3], "sword and crown")
                == reference.matches_description(images[3],
                                                 "sword and crown"))
        assert (model.matches_many(images[:9] + images[:2], "a halo")
                == [reference.matches_description(image, "a halo")
                    for image in images[:9] + images[:2]])
        assert model.count(images[5], "sword") == sum(
            1 for d in reference.detect(images[5]) if d[0] == "sword")
        assert (model.depicted_categories(images[6])
                == reference.depicted(images[6]))
        assert model.answer(images[7], question) == reference.answer(
            images[7], question)
    assert model.images_encoded == 40


def test_question_errors_are_raised_as_before(paintings):
    model = Blip2Sim()
    image = paintings[0]
    for bad in ("", "   ", "How many unicorns are depicted?",
                "Is a unicorn depicted?", "Tell me a story"):
        with pytest.raises(OperatorError):
            model.answer(image, bad)
    with pytest.raises(OperatorError):
        model.matches_description(image, "unicorns")
    # No image, no parse: an empty column never raised on a bad question.
    assert model.answer_many([], "Tell me a story") == []
    assert model.matches_many([], "unicorns") == []


def test_detection_memo_is_bounded(paintings):
    model = Blip2Sim()
    rng = np.random.default_rng(0)
    images = [Image(rng.integers(0, 255, size=(4, 4, 3), dtype=np.uint8),
                    path=f"noise/{i}") for i in range(MEMO_IMAGES + 50)]
    assert model.detect_many(images) == [[] for _ in images]
    assert len(model._memo) == MEMO_IMAGES
    assert model.images_encoded == len(images)


# ----------------------------------------------------------------------
# Reference: the row-at-a-time get / infer / put loop
# ----------------------------------------------------------------------

def sequential_answers(context, items, infer_one, counter):
    """What each modality operator's ``run`` used to do per row."""
    cache = context.answer_cache
    answers = []
    for item in items:
        if item is None:
            answers.append(None)
            continue
        key, subject = item
        if cache is not None:
            cached = cache.get(key)
            context.record_answer_lookup(cached is not MISS)
            if cached is not MISS:
                answers.append(cached)
                continue
        answer = infer_one(subject)
        context.count(counter)
        if cache is not None:
            cache.put(key, answer)
        answers.append(answer)
    return answers


def image_table(images) -> Table:
    schema = Schema.of(("row", DataType.INTEGER), ("image", DataType.IMAGE))
    return Table.from_rows(schema, list(enumerate(images)))


def column_with_nulls_and_repeats(paintings) -> list:
    """Like an image column after an outer join onto a many-side: gaps,
    and the same painting on several rows — within one batch of rows and
    across batches."""
    fresh = [LazyImage(image._scene, path=image.path)
             for image in paintings[:BATCH_ROWS + 30]]
    column = list(fresh)
    column[3] = None
    column[10] = fresh[2]                  # repeat inside the first batch
    column[11] = fresh[2]
    column[BATCH_ROWS + 5] = fresh[7]      # repeat across batches
    column.append(None)
    return column


def run_both(operator, args, table, make_cache, reference_items, infer_one,
             counter, noise_seed=None):
    """Run *operator* over the batch seam and the reference loop side by
    side, each with its own cache, telemetry and model."""
    def context():
        vision = (Blip2Sim() if noise_seed is None
                  else Blip2Sim(miss_probability=0.25, seed=noise_seed))
        return ExecutionContext(tables={"t": table}, vision_model=vision,
                                text_model=BartQASim(),
                                answer_cache=make_cache(),
                                telemetry=QueryTelemetry())
    batched, sequential = context(), context()
    result = operator.run(batched, args)
    expected = sequential_answers(
        sequential, reference_items(sequential),
        lambda subject: infer_one(sequential, subject), counter)
    assert batched.telemetry.counters == sequential.telemetry.counters
    if batched.answer_cache is not None:
        assert (batched.answer_cache.snapshot()
                == sequential.answer_cache.snapshot())
        assert (dict(batched.answer_cache.items())
                == dict(sequential.answer_cache.items()))
    return result, expected, batched, sequential


VQA_ARGS = ["t", "image", "swords", "How many swords are depicted?", "int"]


def vqa_reference(table):
    question, answer_type = VQA_ARGS[3], VQA_ARGS[4]

    def items(_context):
        return [None if image is None
                else ((image.fingerprint(), question, answer_type), image)
                for image in table.column("image")]

    def infer_one(context, image):
        return cast_answer(context.vision_model.answer(image, question),
                           answer_type, "Visual Question Answering")
    return items, infer_one


def prewarmed(paintings):
    """A cache that already holds every third answer of the column."""
    cache = AnswerCache()
    model = Blip2Sim()
    for image in paintings[:BATCH_ROWS + 30:3]:
        cache.put((image.fingerprint(), VQA_ARGS[3], "int"),
                  model.answer(image, VQA_ARGS[3]))
    return cache


@pytest.mark.parametrize("cache_kind", ["none", "cold", "prewarmed", "tiny"])
@pytest.mark.parametrize("noise_seed", [None, 5])
def test_visual_qa_batch_equals_the_sequential_loop(paintings, cache_kind,
                                                    noise_seed):
    table = image_table(column_with_nulls_and_repeats(paintings))
    make_cache = {"none": lambda: None, "cold": AnswerCache,
                  "prewarmed": lambda: prewarmed(paintings),
                  # smaller than a batch: answers must still agree, the
                  # counters are only promised below capacity
                  "tiny": lambda: AnswerCache(capacity=16)}[cache_kind]
    items, infer_one = vqa_reference(table)
    if cache_kind == "tiny":
        batched = ExecutionContext(tables={"t": table},
                                   answer_cache=make_cache())
        result = VisualQAOperator().run(batched, VQA_ARGS)
        expected = sequential_answers(
            ExecutionContext(), items(None),
            lambda image: infer_one(batched, image), "vision_inferences")
        assert result.table.column("swords") == expected
        return
    result, expected, batched, _ = run_both(
        VisualQAOperator(), VQA_ARGS, table, make_cache, items, infer_one,
        "vision_inferences", noise_seed)
    assert result.table == table.with_column("swords", answer_dtype("int"),
                                             expected)
    assert result.observation == (
        "New column 'swords' has been added to the table. Example values: "
        f"{result.table.sample_values('swords')}")
    rows = sum(image is not None for image in table.column("image"))
    counters = batched.telemetry.counters
    if cache_kind == "none":
        assert counters == {"vision_inferences": rows}
    else:
        assert (counters["answer_cache_hits"]
                + counters["answer_cache_misses"]) == rows
        assert (counters["vision_inferences"]
                == counters["answer_cache_misses"])
    # One render per lazy image, and none of them kept by the column.
    assert not any(image.rendered for image in table.column("image")
                   if image is not None)


def test_image_select_batch_equals_the_sequential_loop(paintings):
    table = image_table(column_with_nulls_and_repeats(paintings))
    args = ["t", "image", "a sword"]

    def items(_context):
        return [None if image is None
                else ((image.fingerprint(), "a sword", "select"), image)
                for image in table.column("image")]

    def infer_one(context, image):
        return context.vision_model.matches_description(image, "a sword")
    result, expected, _, _ = run_both(
        ImageSelectOperator(), args, table, AnswerCache, items, infer_one,
        "vision_inferences")
    assert result.table == table.filter([bool(keep) for keep in expected])
    assert result.observation == (
        f"Image Select kept {result.table.num_rows} of {table.num_rows} "
        "rows matching 'a sword'.")


def test_text_qa_batch_equals_the_sequential_loop():
    lake = load_lake("rotowire", scale=1)
    reports = lake.table("game_reports")
    text_column = next(name for name in reports.column_names
                      if reports.dtype(name) is DataType.TEXT)
    teams = lake.table("teams").column("name")
    rows = []
    for index, document in enumerate(reports.column(text_column)[:40]):
        rows.append((teams[index % len(teams)], document))
    rows[4] = ("Heat", None)
    rows.append(rows[0])                      # the same report and team twice
    table = Table.from_rows(
        Schema.of(("name", DataType.STRING), ("report", DataType.TEXT)), rows)
    template = "How many points did <name> score?"
    args = ["t", "report", "points", template, "int"]

    def items(_context):
        return [None if row["report"] is None else (
            (text_fingerprint(str(row["report"])),
             instantiate_template(template, row), "int"),
            (str(row["report"]), instantiate_template(template, row)))
            for row in table.rows()]

    def infer_one(context, asked):
        return cast_answer(context.text_model.answer(*asked), "int",
                           "Text Question Answering")
    for make_cache in (lambda: None, AnswerCache):
        result, expected, _, _ = run_both(
            TextQAOperator(), args, table, make_cache, items, infer_one,
            "text_inferences")
        assert result.table.column("points") == expected
        assert any(answer is not None for answer in expected)


def test_non_image_cells_are_operator_errors_for_both_operators(paintings):
    """Image Select used to let a non-image cell escape as
    ``AttributeError``; the engine can only retry or replan on an
    ``OperatorError``."""
    table = image_table([paintings[0], "not-an-image", paintings[1]])
    for operator, args in ((VisualQAOperator(), VQA_ARGS),
                           (ImageSelectOperator(), ["t", "image", "sword"])):
        for cache in (None, AnswerCache()):
            context = ExecutionContext(tables={"t": table},
                                       answer_cache=cache)
            with pytest.raises(OperatorError, match="holds str, not images"):
                operator.run(context, args)
    with pytest.raises(OperatorError, match="needs an IMAGE column"):
        ImageSelectOperator().run(
            ExecutionContext(tables={"t": table}), ["t", "row", "sword"])
    with pytest.raises(OperatorError, match="needs a TEXT column"):
        TextQAOperator().run(
            ExecutionContext(tables={"t": table}),
            ["t", "row", "new", "Who won?", "str"])


# ----------------------------------------------------------------------
# Against a cache tier
# ----------------------------------------------------------------------

@pytest.fixture()
def tier():
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    yield server
    server.stop()


def counting(client: CacheClient) -> list[dict]:
    """Record every RPC payload *client* sends."""
    sent: list[dict] = []
    original = client.request

    def request(payload, **kwargs):
        sent.append(payload)
        return original(payload, **kwargs)
    client.request = request
    return sent


def answer_rpcs(sent: list[dict]) -> list[str]:
    return [payload["op"] for payload in sent
            if payload.get("space") == "answer"]


def test_remote_batch_equals_the_sequential_loop_and_fills_the_tier(
        paintings, tier):
    table = image_table(column_with_nulls_and_repeats(paintings))
    items, infer_one = vqa_reference(table)
    other = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    clients = []
    try:
        def remote_cache(server):
            def make():
                client = CacheClient(server.url)
                clients.append(client)
                return RemoteAnswerCache(client, metrics=MetricsRegistry())
            return make
        makers = iter((remote_cache(tier), remote_cache(other)))
        _, _, batched, sequential = run_both(
            VisualQAOperator(), VQA_ARGS, table, lambda: next(makers)(),
            items, infer_one, "vision_inferences")
        assert (dict(tier.answers.items()) == dict(other.answers.items())
                == dict(batched.answer_cache.items()))
        assert tier.answers.snapshot() == other.answers.snapshot()

        def tier_counters(context):
            return {name: value for name, value in context.answer_cache
                    ._metrics.snapshot()["counters"].items()
                    if name in ("cachenet_hits", "cachenet_misses")}
        assert tier_counters(batched) == tier_counters(sequential)

        # A fresh replica reads the column back: one mget per batch of
        # rows, nothing inferred, nothing written.
        replica_client = CacheClient(tier.url)
        clients.append(replica_client)
        sent = counting(replica_client)
        replica = ExecutionContext(
            tables={"t": table}, telemetry=QueryTelemetry(),
            answer_cache=RemoteAnswerCache(replica_client))
        again = VisualQAOperator().run(replica, VQA_ARGS)
        assert again.table.column("swords") == [
            None if item is None else batched.answer_cache.get(item[0])
            for item in items(None)]
        assert "vision_inferences" not in replica.telemetry.counters
        batches = math.ceil(table.num_rows / BATCH_ROWS)
        assert answer_rpcs(sent) == ["mget"] * batches
    finally:
        for client in clients:
            client.close()
        other.stop()


def test_cold_query_on_a_tier_costs_two_rpcs_per_batch_and_one_render(tier):
    lake = load_lake("artwork", scale=0.5)
    images = lake.table("painting_images").column("image")
    assert 0 < len(images) <= BATCH_ROWS
    renders = []
    original = LazyImage.loaded

    def loaded(self):
        if not self.rendered:
            renders.append(self.path)
        return original(self)
    with Session(lake, cache_url=tier.url) as session:
        sent = counting(session._cache_client)
        LazyImage.loaded = loaded
        try:
            first = session.query("How many paintings are depicting a sword?")
            asked = answer_rpcs(sent)
            second = session.query(
                "How many paintings are depicting a crown?")
        finally:
            LazyImage.loaded = original
        assert first.ok and second.ok
        # One modality step per query: an mget that misses, an mput.
        assert asked == ["mget", "mput"]
        assert answer_rpcs(sent) == ["mget", "mput"] * 2
        # Each lazy image was rendered once — to fingerprint it — and that
        # raster also fed the model; the second question needed neither.
        assert sorted(renders) == sorted(image.path for image in images)
        assert not any(image.rendered for image in images)
        assert len(tier.answers) == 2 * len(images)


def test_tier_stopped_mid_query_degrades_without_changing_answers(
        artwork_lake):
    queries = ["How many paintings are depicting a sword?",
               "List the titles of paintings depicting a crown."]
    with Session(artwork_lake) as local:
        expected = [local.query(query) for query in queries]
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        session = Session(artwork_lake, cache_url=server.url)
        client = session._cache_client
        client.retries = 0
        client.connect_timeout = 0.2
        client.request_timeout = 0.5
        client.down_cooldown = 30.0
        original = client.mget

        def mget_after_the_tier_died(space, keys, ns=None):
            if space == "answer":
                server.stop()
            return original(space, keys, ns=ns)
        client.mget = mget_after_the_tier_died
        before = session.metrics()["counters"].get("cachenet_fallbacks", 0)
        results = [session.query(query) for query in queries]
        for result, wanted in zip(results, expected):
            assert result.ok
            assert result.value == wanted.value
            assert result.table == wanted.table
        counters = session.metrics()["counters"]
        images = artwork_lake.table("painting_images").num_rows
        batches = math.ceil(images / BATCH_ROWS)
        fallbacks = counters["cachenet_fallbacks"] - before
        # One per failed batch RPC — an mget and an mput per batch of
        # rows in each query — never one per image; the other three are
        # the plan cache's (put; get and put).
        assert fallbacks == 2 * (2 * batches) + 3
        assert fallbacks < images
        # The local front still holds what the dead tier never received.
        assert session.answer_cache.snapshot()[1] == 2 * images
        assert len(session.answer_cache) == 2 * images
        session.close()
    finally:
        server.stop()


def test_remote_cache_counts_one_fallback_per_failed_batch():
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    client = CacheClient(server.url, retries=0, connect_timeout=0.2,
                         request_timeout=0.5, down_cooldown=30.0)
    metrics = MetricsRegistry()
    cache = RemoteAnswerCache(client, capacity=64, metrics=metrics)
    keys = [(f"fp{i}", "q", "int") for i in range(20)]
    cache.put_many((key, i) for i, key in enumerate(keys[:10]))
    assert dict(server.answers.items()) == {key: i for i, key
                                           in enumerate(keys[:10])}
    server.stop()
    client._drop_socket()
    found = cache.get_many(keys)             # 10 local hits, 10 to a dead tier
    assert found == list(range(10)) + [MISS] * 10
    cache.put_many((key, -1) for key in keys[10:])
    assert cache.get_many(keys[10:]) == [-1] * 10
    assert metrics.snapshot()["counters"]["cachenet_fallbacks"] == 2
    assert cache.snapshot() == (20, 10, 0)
    cache.put_many([])                       # nothing to say: no RPC, no count
    assert metrics.snapshot()["counters"]["cachenet_fallbacks"] == 2
    client.close()


def test_get_many_counts_per_key_and_takes_the_lock_once():
    cache = AnswerCache(capacity=3)
    keys = [(f"fp{i}", "q", "int") for i in range(4)]
    cache.put_many(zip(keys[:3], "abc"))
    assert cache.get_many([keys[0], keys[3], keys[2]]) == ["a", MISS, "c"]
    assert cache.snapshot() == (2, 1, 0)
    # Hits were refreshed in request order, so keys[1] is now the oldest.
    cache.put(keys[3], "d")
    assert keys[1] not in cache and cache.evictions == 1
    assert cache.get(keys[0]) == "a" and cache.get(keys[1]) is MISS
    assert cache.get_many([]) == []


def test_new_modality_counters_are_locality_counters():
    """Anything the seam records varies with cache locality and must be
    blanked from ``canonical_results()``."""
    telemetry = QueryTelemetry()
    table = image_table([render_scene(build_scene({"sword": 1}, seed=1))])
    VisualQAOperator().run(
        ExecutionContext(tables={"t": table}, answer_cache=AnswerCache(),
                         telemetry=telemetry), VQA_ARGS)
    assert telemetry.counters and set(telemetry.counters) <= LOCALITY_COUNTERS


# ----------------------------------------------------------------------
# Bounding-box glyph rasterization
# ----------------------------------------------------------------------

def full_frame_mask(height, width, shape, cx, cy, size):
    """``glyph_mask`` as it was: evaluated over the whole frame."""
    ys, xs = np.mgrid[0:height, 0:width]
    dx = xs - cx
    dy = ys - cy
    if shape == "circle":
        return dx * dx + dy * dy <= size * size
    if shape == "square":
        return (np.abs(dx) <= size) & (np.abs(dy) <= size)
    if shape == "diamond":
        return np.abs(dx) + np.abs(dy) <= size
    if shape == "cross":
        thickness = max(1, size // 2)
        return (((np.abs(dx) <= thickness) & (np.abs(dy) <= size))
                | ((np.abs(dy) <= thickness) & (np.abs(dx) <= size)))
    inside = (dy >= -size) & (dy <= size)
    return inside & (np.abs(dx) <= (dy + size) / 2.0)


@pytest.mark.parametrize("shape", ["circle", "square", "diamond", "cross",
                                   "triangle"])
def test_bounding_box_glyph_equals_the_full_frame_mask(shape):
    rng = random.Random(shape)
    cases = [(64, 64, 32, 32, 4), (64, 64, 0, 0, 5), (64, 64, 63, 63, 5),
             (64, 64, 2, 61, 3), (64, 64, -3, 30, 5), (64, 64, 30, 70, 4),
             (64, 64, 200, 200, 3), (32, 48, 10, 31, 0), (9, 7, 4, 3, 1)]
    cases += [(rng.choice((64, 32, 20)), rng.choice((64, 33, 12)),
               rng.randint(-8, 70), rng.randint(-8, 70), rng.randint(0, 9))
              for _ in range(300)]
    for height, width, cx, cy, size in cases:
        mask = glyph_mask(height, width, shape, cx, cy, size)
        expected = full_frame_mask(height, width, shape, cx, cy, size)
        assert mask.dtype == expected.dtype and mask.shape == expected.shape
        assert np.array_equal(mask, expected), (height, width, cx, cy, size)


def test_unknown_glyph_shape_is_rejected():
    with pytest.raises(ValueError, match="unknown glyph shape"):
        glyph_mask(8, 8, "hexagon", 4, 4, 2)


def test_keyed_renders_a_lazy_image_once_and_keeps_only_the_digest():
    scene = build_scene({"sword": 2, "dog": 1}, seed=99, width=32, height=32)
    eager = render_scene(scene, path="img/1.png")
    lazy = LazyImage(scene, path="img/1.png")
    view = lazy.keyed()
    assert view is not lazy and not lazy.rendered
    assert view.fingerprint() == lazy.fingerprint() == eager.fingerprint()
    assert np.array_equal(view.pixels, eager.pixels)
    assert lazy.keyed() is lazy                # digest known: nothing to load
    twin = lazy.loaded()
    assert twin is not lazy and not lazy.rendered
    assert twin.fingerprint() == eager.fingerprint()
    lazy.pixels                                # a reader that does retain
    assert lazy.loaded() is lazy and lazy.keyed() is lazy
    rendered_first = LazyImage(scene, path="img/1.png")
    rendered_first.pixels
    assert rendered_first.keyed() is rendered_first
    assert rendered_first.fingerprint() == eager.fingerprint()
    assert eager.keyed() is eager and eager.loaded() is eager


def test_word_index_resolves_names_synonyms_and_naive_plurals():
    from repro.vision import category_for_word
    for category in CATEGORIES.values():
        assert category_for_word(category.name) is category
        assert category_for_word(f" {category.name.upper()}S ") is category
        for synonym in category.synonyms:
            assert category_for_word(synonym).name == category.name
    assert category_for_word("crosses").name == "cross"
    assert category_for_word("unicorn") is None
    assert category_for_word("") is None
    assert [c.name for c in categories_in_phrase(
        "Swords, a blade and the Madonna with child; more swords")] == [
            "sword", "madonna", "child"]
