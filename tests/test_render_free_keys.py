"""A fresh replica keys its lake images without rendering them.

A session with a cache tier keeps a render map (the ``render`` space,
:class:`~repro.core.answer_cache.RenderCache`): a lazy image's scene key
(:meth:`~repro.vision.renderer.LazyImage.map_key`) to its raster digest.
VQA and Image Select look an un-keyed lazy image up there before they
render it, so a replica that joins a warm tier answers from the tier
without a single render.  Checked here:

- a fresh replica with ``render_scene`` and ``build_scene`` patched to
  raise answers the artwork workload byte-identically to a cold
  session, and its metrics read 0 renders and 0 answer misses;
- a stopped tier falls back to rendering, counted, with the same answers;
- scene keys tell paths and scenes apart, and a lake image's key is
  its scene recipe's: keying it builds no scene;
- a cold pass renders each image once, as before the map existed, and
  so does an answer miss on an image keyed from the map;
- serial, thread and process lanes agree and none of them renders;
- a digest from the map only keys answers: ``fingerprint()`` still
  renders and hashes the raster;
- a replica asks the map once per image, not once per image per
  question: the digest it served is kept per pool entry.
"""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.cachenet.server import CacheTierServer
from repro.datasets import load_lake
from repro.obs import QueryTelemetry
from repro.operators import ExecutionContext, ImageSelectOperator
from repro.session import Session
from repro.testing.workloads import workload
from repro.vision import (LazyImage, SceneRecipe, build_scene, renderer,
                          scene)

SCALE = 1


def canonical(report) -> str:
    return json.dumps(report.canonical_results(), sort_keys=True)


@contextlib.contextmanager
def counting_renders():
    """Record the path of every raster rendered while inside."""
    paths: list[str] = []
    original = renderer.render_scene

    def render(scene, path=""):
        paths.append(path)
        return original(scene, path)
    renderer.render_scene = render
    try:
        yield paths
    finally:
        renderer.render_scene = original


@contextlib.contextmanager
def refusing_renders():
    """Make every render and every scene build raise while inside."""
    render, build = renderer.render_scene, scene.build_scene

    def refuse(*_args, **_kwargs):
        raise AssertionError("a replica over a warm tier rendered an "
                             "image or built a scene")
    renderer.render_scene = scene.build_scene = refuse
    try:
        yield
    finally:
        renderer.render_scene, scene.build_scene = render, build


def image_count() -> int:
    return load_lake("artwork", scale=SCALE).table(
        "painting_images").num_rows


@pytest.fixture(scope="module")
def cold():
    """The artwork workload answered by a session without a tier."""
    with Session(load_lake("artwork", scale=SCALE)) as session:
        report = session.batch(workload("artwork"))
    assert report.num_errors == 0
    return canonical(report)


@pytest.fixture
def warm_tier():
    """A tier one replica has filled by answering the workload cold."""
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    with Session(load_lake("artwork", scale=SCALE),
                 cache_url=server.url) as session:
        session.batch(workload("artwork"))
    yield server
    server.stop()


def test_a_fresh_replica_renders_nothing_and_answers_as_a_cold_session(
        cold, warm_tier):
    assert len(warm_tier.renders) == image_count()
    with Session(load_lake("artwork", scale=SCALE),
                 cache_url=warm_tier.url) as replica:
        with refusing_renders():
            report = replica.batch(workload("artwork"))
        snapshot = replica.observability_snapshot()
    assert canonical(report) == cold
    counters = snapshot["counters"]
    assert counters.get("images_rendered_total", 0) == 0
    assert counters.get("answer_cache_misses", 0) == 0
    # One lookup per image, not one per image per image question.
    assert counters["image_keys_from_map_total"] == image_count()
    render = snapshot["local_caches"]["render"]
    assert render["entries"] == image_count()
    assert render["misses"] == 0


def test_a_stopped_tier_falls_back_to_rendering(cold, warm_tier):
    url = warm_tier.url
    warm_tier.stop()
    with Session(load_lake("artwork", scale=SCALE), cache_url=url) as replica:
        with counting_renders() as rendered:
            report = replica.batch(workload("artwork"))
        counters = replica.metrics()["counters"]
    assert canonical(report) == cold
    assert counters["cachenet_fallbacks"] > 0
    assert "image_keys_from_map_total" not in counters
    assert counters["images_rendered_total"] == len(rendered)
    assert sorted(rendered) == sorted(set(rendered))  # each image once
    assert len(rendered) == image_count()


def test_scene_keys_tell_paths_and_scenes_apart():
    one, two = build_scene({"dog": 1}, seed=1), build_scene({"dog": 1}, seed=2)
    keys = {LazyImage(scene, path=path).map_key()
            for scene in (one, two) for path in ("a.png", "b.png")}
    assert len(keys) == 4
    # The path is length-prefixed: no path absorbs the scene's repr.
    assert (renderer.scene_key(one, "a") != renderer.scene_key(one, "a ")
            != renderer.scene_key(one, ""))
    # An equal scene on an equal path is the same raster: one key.
    twin = build_scene({"dog": 1}, seed=1)
    assert (LazyImage(twin, path="a.png").map_key()
            == LazyImage(one, path="a.png").map_key())


def test_a_scene_key_names_the_renderer_version(monkeypatch):
    spec = build_scene({"sword": 2}, seed=3)
    recipe = SceneRecipe((("sword", 2),), seed=3)
    before = [renderer.scene_key(spec, "x.png"),
              renderer.scene_key(recipe, "x.png")]
    monkeypatch.setattr(renderer, "RENDER_VERSION",
                        renderer.RENDER_VERSION + 1)
    after = [renderer.scene_key(spec, "x.png"),
             renderer.scene_key(recipe, "x.png")]
    assert not set(before) & set(after)


def test_a_recipe_key_names_every_argument_and_builds_no_scene():
    recipe = SceneRecipe((("dog", 1), ("sword", 2)), seed=5)

    def key(recipe, path="a.png"):
        return LazyImage(recipe, path=path).map_key()
    with refusing_renders():
        # Equal recipes on one path name one raster: one key.
        assert key(recipe) == key(SceneRecipe((("dog", 1), ("sword", 2)),
                                              seed=5))
        changed = [SceneRecipe(recipe.counts, seed=6),
                   SceneRecipe((("dog", 1), ("sword", 3)), seed=5),
                   SceneRecipe((("dog", 1),), seed=5),
                   SceneRecipe(recipe.counts, seed=5, width=32)]
        keys = {key(recipe), key(recipe, "b.png"),
                *(key(other) for other in changed)}
        assert len(keys) == 2 + len(changed)


def test_a_keyed_or_rendered_image_needs_no_map():
    image = LazyImage(build_scene({"dog": 1}, seed=4), path="d.png")
    assert image.map_key() is not None
    image.fingerprint()
    assert image.map_key() is None
    rendered = LazyImage(build_scene({"dog": 1}, seed=4), path="d.png")
    assert rendered.pixels is not None  # materialises the raster
    assert rendered.map_key() is None
    assert renderer.render_scene(build_scene({}, seed=0)).map_key() is None


def test_an_answer_miss_renders_a_map_keyed_image_once(warm_tier):
    """The map names every image, but the tier has no answer to a new
    question: each image is rendered once, for its digest and for the
    model alike."""
    lake = load_lake("artwork", scale=SCALE)
    with Session(lake, cache_url=warm_tier.url) as replica:
        with counting_renders() as rendered:
            result = replica.query("How many paintings are depicting a skull?")
        counters = result.trace.telemetry.counters
    assert result.ok
    assert counters["answer_cache_misses"] == image_count()
    assert counters["image_keys_from_map"] == image_count()
    assert len(rendered) == len(set(rendered)) == image_count()
    assert counters["images_rendered"] == image_count()


#: Image questions asked of one replica, in order: the ``query`` ones
#: plan to Visual Question Answering (the artwork workload's two, then one
#: the tier cannot answer), the others run Image Select on the lake's
#: image table directly.  With the images each should render.
IMAGE_QUESTIONS = (
    ("query", "How many paintings are depicting a sword?", 0),
    ("select", "a crown", SCALE * 120),   # no answer in the tier
    ("query", "How many paintings are depicting a dog?", 0),
    ("select", "a crown", 0),
    ("query", "How many paintings are depicting a skull?", SCALE * 120),
)


def test_a_replica_asks_the_map_once_per_image_across_questions(warm_tier):
    """The first image question keys every image from the map; later
    ones, Image Select's included, key them from the digests the pool
    kept.  An answer miss still renders each image once, for the model."""
    lake = load_lake("artwork", scale=SCALE)
    with Session(lake, cache_url=warm_tier.url) as replica:
        from_map, renders = [], []
        for kind, question, _ in IMAGE_QUESTIONS:
            with counting_renders() as rendered:
                if kind == "query":
                    result = replica.query(question)
                    assert result.ok
                    assert ("Visual Question Answering"
                            in result.trace.operators_used())
                    counters = result.trace.telemetry.counters
                else:
                    context = ExecutionContext(
                        tables={"paintings": lake.table("painting_images")},
                        answer_cache=replica.answer_cache,
                        render_cache=replica.render_cache,
                        telemetry=QueryTelemetry())
                    ImageSelectOperator().run(
                        context, ["paintings", "image", question])
                    counters = context.telemetry.counters
            from_map.append(counters.get("image_keys_from_map", 0))
            renders.append(len(rendered))
        total = replica.metrics()["counters"]
    assert image_count() == SCALE * 120
    assert from_map == [image_count()] + [0] * (len(IMAGE_QUESTIONS) - 1)
    assert renders == [expected for _, _, expected in IMAGE_QUESTIONS]
    assert total["image_keys_from_map_total"] == image_count()


def test_a_cleared_render_map_drops_the_kept_digests(warm_tier):
    with Session(load_lake("artwork", scale=SCALE),
                 cache_url=warm_tier.url) as replica:
        replica.query("How many paintings are depicting a sword?")
        replica.render_cache.clear()
        result = replica.query("How many paintings are depicting a dog?")
    assert result.trace.telemetry.counters["image_keys_from_map"] \
        == image_count()


@pytest.mark.parametrize("with_tier", [False, True])
def test_a_cold_pass_renders_each_image_once(with_tier):
    server = (CacheTierServer(bind="tcp://127.0.0.1:0").start()
              if with_tier else None)
    try:
        with Session(load_lake("artwork", scale=SCALE),
                     cache_url=server.url if server else None) as session:
            with counting_renders() as rendered:
                report = session.batch(workload("artwork"))
            counters = session.metrics()["counters"]
    finally:
        if server is not None:
            server.stop()
    assert report.num_errors == 0
    assert len(rendered) == len(set(rendered)) == image_count()
    assert counters["images_rendered_total"] == image_count()
    assert "image_keys_from_map_total" not in counters


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_lanes_agree_and_none_renders(cold, warm_tier, backend):
    with Session(load_lake("artwork", scale=SCALE),
                 cache_url=warm_tier.url) as replica:
        report = replica.batch(workload("artwork"),
                               workers=1 if backend == "serial" else 2,
                               backend=backend)
        counters = replica.metrics()["counters"]
    assert report.num_errors == 0
    assert canonical(report) == cold
    assert counters.get("images_rendered_total", 0) == 0
    assert counters.get("answer_cache_misses", 0) == 0
    assert counters["image_keys_from_map_total"] > 0


def test_a_map_keyed_image_still_renders_for_its_fingerprint(warm_tier):
    lake = load_lake("artwork", scale=SCALE)
    with Session(lake, cache_url=warm_tier.url) as replica:
        with refusing_renders():
            replica.query("How many paintings are depicting a sword?")
    images = list(lake.table("painting_images").column("image"))
    assert not any(image.rendered for image in images)
    image = images[0]
    digest = warm_tier.renders.get((image.map_key(),))
    with counting_renders() as rendered:
        assert image.fingerprint() == digest
    assert rendered == [image.path]
    # The lake's content fingerprint hashes rasters, not map entries.
    with counting_renders() as rendered:
        lake.table("painting_images").fingerprint()
    assert len(rendered) == len(images) - 1
