"""The raster kernel (:func:`repro.vision.renderer.render_scene`) is pinned.

Every image fingerprint, answer-cache key and scene key depends on the
exact bytes a scene renders to, and :data:`~repro.vision.renderer.
RENDER_VERSION` names those bytes.  A faster kernel must therefore draw
the very same rasters.  Checked here:

- one sha256 over the (dtype, shape, bytes) of every raster of a seeded
  hostile scene set: every category, glyphs past each frame edge and
  wholly outside it, overlapping glyphs, sizes 0 to 9 (and a few
  negative or large ones), frames 1 px high or wide;
- the memoised glyph stamps are read-only;
- threads rendering the same scenes agree byte for byte.

A change to any raster must bump ``RENDER_VERSION`` and re-pin
:data:`HOSTILE_DIGEST` (and ``PINNED_FINGERPRINTS`` in
``test_streaming_lakes.py``) in the same change.
"""

from __future__ import annotations

import hashlib
import random
import sys
import threading

import numpy as np
import pytest

from repro.vision import renderer
from repro.vision.renderer import render_scene
from repro.vision.scene import CATEGORIES, SceneObject, SceneSpec

#: sha256 of :func:`hostile_scenes` rendered, see :func:`raster_digest`.
HOSTILE_DIGEST = (
    "8e73d53ebdc2dd49c6f780b68d5917d5cfd4ddb6dcbc45cb61d045c1fba49142")

FRAMES = ((64, 64), (1, 64), (64, 1), (1, 1), (2, 3), (17, 9), (9, 31),
          (5, 64))


def edge_scenes() -> list[SceneSpec]:
    """Per category and per size 0 and 9: a glyph across each frame edge
    and corner, one wholly outside, and two overlapping in the middle."""
    scenes = []
    for index, name in enumerate(sorted(CATEGORIES)):
        for size in (0, 9):
            for height, width in ((20, 24), (1, 24), (20, 1)):
                spots = [(-3, height // 2), (width + 2, height // 2),
                         (width // 2, -3), (width // 2, height + 2),
                         (0, 0), (width - 1, height - 1), (-1, height),
                         (width + size + 5, -size - 5),
                         (width // 2, height // 2),
                         (width // 2 + 1, height // 2 - 1)]
                scenes.append(SceneSpec(
                    width=width, height=height,
                    background_seed=index * 100 + size * 10 + height,
                    objects=[SceneObject(name, cx, cy, size)
                             for cx, cy in spots]))
    return scenes


def random_scenes(count: int = 400, seed: int = 56) -> list[SceneSpec]:
    """Seeded scenes of mixed frames and up to 8 glyphs anywhere within
    12 px of the frame, so many overlap or cross an edge."""
    rng = random.Random(seed)
    names = sorted(CATEGORIES)
    scenes = []
    for _ in range(count):
        height, width = rng.choice(FRAMES)
        objects = [SceneObject(rng.choice(names),
                               rng.randint(-12, width + 11),
                               rng.randint(-12, height + 11),
                               rng.randint(0, 9))
                   for _ in range(rng.randint(0, 8))]
        scenes.append(SceneSpec(width=width, height=height,
                                background_seed=rng.randrange(2 ** 31),
                                objects=objects))
    return scenes


def odd_size_scenes() -> list[SceneSpec]:
    """Per category, glyphs of negative size and of sizes past any
    stamp memo (one as large as the frame), centred and across edges."""
    return [SceneSpec(width=48, height=40, background_seed=index,
                      objects=[SceneObject(name, 24, 20, -4),
                               SceneObject(name, -6, 33, 40),
                               SceneObject(name, 30, 12, 61)])
            for index, name in enumerate(sorted(CATEGORIES))]


def hostile_scenes() -> list[SceneSpec]:
    return edge_scenes() + random_scenes() + odd_size_scenes()


def raster_digest(scenes: list[SceneSpec]) -> str:
    """sha256 over each raster's dtype, shape and bytes, in order."""
    digest = hashlib.sha256()
    for scene in scenes:
        pixels = render_scene(scene, path="hostile.png").pixels
        digest.update(str(pixels.dtype).encode("ascii"))
        digest.update(repr(pixels.shape).encode("ascii"))
        digest.update(pixels.tobytes())
    return digest.hexdigest()


def test_hostile_scene_set_covers_its_cases():
    scenes = hostile_scenes()
    objects = [(scene, obj) for scene in scenes for obj in scene.objects]
    assert {obj.category for _, obj in objects} == set(CATEGORIES)
    assert {obj.size for _, obj in objects} >= set(range(10))
    assert any(scene.height == 1 for scene in scenes)
    assert any(scene.width == 1 for scene in scenes)
    assert any(obj.cx < 0 for _, obj in objects)
    assert any(obj.cy < 0 for _, obj in objects)
    assert any(obj.cx >= scene.width for scene, obj in objects)
    assert any(obj.cy >= scene.height for scene, obj in objects)


def test_hostile_rasters_are_pinned():
    assert renderer.RENDER_VERSION == 1
    assert raster_digest(hostile_scenes()) == HOSTILE_DIGEST


def test_memoised_stamps_and_colours_are_read_only():
    render_scene(edge_scenes()[0])
    assert renderer._STAMPS and renderer._COLORS
    for stamp, count in renderer._STAMPS.values():
        assert stamp.dtype == bool and not stamp.flags.writeable
        assert count == np.count_nonzero(stamp)
        with pytest.raises(ValueError):
            stamp[0, 0] = not stamp[0, 0]
    for color in renderer._COLORS.values():
        assert color.dtype == np.int16 and not color.flags.writeable


def test_threads_render_the_same_scenes_byte_for_byte():
    scenes = random_scenes(count=120, seed=7)
    expected = [render_scene(scene).pixels.tobytes() for scene in scenes]
    renderer._STAMPS.clear()  # the threads build the stamps, racing
    results: dict[int, list[bytes]] = {}
    start = threading.Barrier(4, timeout=30)

    def render(index: int) -> None:
        start.wait()
        results[index] = [render_scene(scene).pixels.tobytes()
                          for scene in scenes]

    threads = [threading.Thread(target=render, args=(index,))
               for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[index] for index in range(4)] == [expected] * 4


def test_the_stamp_memo_keeps_no_size_past_its_limit():
    # Larger glyphs are stamped from a mask built afresh; the pin covers
    # their bytes.
    for scene in odd_size_scenes():
        render_scene(scene)
    assert max(abs(size) for _, size in renderer._STAMPS) \
        <= renderer.STAMP_MAX_SIZE
