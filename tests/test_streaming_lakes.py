"""Lake generation: pinned fingerprints, lazy image decode, memory budget.

The contract: each lake table is packed once from whole columns, every
raster is deferred, so a stress-scale artwork lake costs megabytes, not
gigabytes — and generation reproduces its fingerprints byte for byte
(old plan and answer caches key on them).
"""

import tracemalloc

import pytest

from repro.data.catalog import DataLake
from repro.datasets import load_lake
from repro.vision import LazyImage, build_scene, render_scene


# ----------------------------------------------------------------------
# Pinned lake fingerprints
# ----------------------------------------------------------------------

#: ``load_lake`` (shape, content) fingerprints per (dataset, scale).  A
#: change to the seeded draw order, the column packing or the string
#: pools moves them.  The scale-500 point runs in the CI soak only.
PINNED_FINGERPRINTS = {
    ("artwork", 1): ("7657e9626134d345", "e40269b91c6c7b86"),
    ("artwork", 50): ("81962cfc5609a953", "341e542c1a35906a"),
    ("artwork", 500): ("1b92aa0dd151d18a", "9733c3088f82db56"),
    ("rotowire", 1): ("ed5845d1756e02e7", "7610edb6e4f81201"),
    ("rotowire", 50): ("2ffade5600d01484", "a86a0bf710eefa59"),
}


def assert_pinned(lake: DataLake, dataset: str, scale: float) -> None:
    """*lake* carries the pinned fingerprints of *dataset* at *scale*."""
    assert ((lake.fingerprint(), lake.content_fingerprint())
            == PINNED_FINGERPRINTS[dataset, scale]), (dataset, scale)


@pytest.mark.parametrize("dataset,scale", [
    point for point in PINNED_FINGERPRINTS if point[1] <= 50])
def test_lake_fingerprints_are_pinned(dataset, scale):
    assert_pinned(load_lake(dataset, scale=scale), dataset, scale)


# ----------------------------------------------------------------------
# Lazy image decode
# ----------------------------------------------------------------------


def make_scene():
    return build_scene({"sword": 2, "dog": 1}, seed=99, width=32, height=32)


def test_lazy_image_matches_eager_render():
    scene = make_scene()
    lazy = LazyImage(scene, path="img/1.png")
    eager = render_scene(scene, path="img/1.png")
    assert not lazy.rendered
    assert (lazy.width, lazy.height) == (eager.width, eager.height)
    assert not lazy.rendered          # size comes from the scene spec
    assert lazy == eager              # forces the render
    assert lazy.rendered
    assert lazy.to_dict() == eager.to_dict()


def test_lazy_image_fingerprint_never_caches_the_raster():
    scene = make_scene()
    lazy = LazyImage(scene, path="img/1.png")
    eager = render_scene(scene, path="img/1.png")
    assert lazy.fingerprint() == eager.fingerprint()
    assert not lazy.rendered          # transient render, digest kept
    assert lazy.fingerprint() == eager.fingerprint()  # memoized


def test_artwork_lake_defers_rendering_through_fingerprints():
    lake = load_lake("artwork", scale=0.5)
    images = lake.sources["painting_images"].table
    lake.fingerprint()
    lake.content_fingerprint()
    stored = images.column("image")
    assert all(isinstance(image, LazyImage) for image in stored)
    assert not any(image.rendered for image in stored)
    # First pixel access renders exactly that image.
    assert stored[0].pixels.shape == (64, 64, 3)
    assert stored[0].rendered and not stored[1].rendered


# ----------------------------------------------------------------------
# Per-row memory budget
# ----------------------------------------------------------------------

#: Traced-peak budget per painting: 320 MB over a scale-500 lake (60,000
#: paintings), ≈ 5.6 KB.  One eagerly rendered 64×64×3 raster alone is
#: 12,288 B, so the budget fails at any scale if images ever render
#: eagerly again; the generator holds scene specs + typed columns
#: (~1.4 KB per painting traced).
BUDGET_BYTES_PER_ROW = 320 * 1024 * 1024 / 60_000


def assert_artwork_generation_in_budget(scale: float) -> DataLake:
    """Generate the artwork lake at *scale* under tracemalloc, assert
    nothing rendered and the traced peak stays within the per-row budget,
    and return the lake.  Tier-1 runs it at scale 100; the CI soak
    (``fuzz``) job at scale 500.
    """
    tracemalloc.start()
    try:
        lake = load_lake("artwork", scale=scale)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    metadata = lake.sources["paintings_metadata"].table
    images = lake.sources["painting_images"].table
    rows = metadata.num_rows
    assert rows == images.num_rows == round(120 * scale)
    assert not any(image.rendered for image in images.iter_column("image"))
    budget = BUDGET_BYTES_PER_ROW * rows
    assert peak < budget, (f"traced peak {peak / 1e6:.1f} MB over the "
                           f"{budget / 1e6:.1f} MB budget for {rows} rows")
    return lake


def test_scale_100_artwork_generation_stays_in_budget():
    assert_artwork_generation_in_budget(100)      # 12,000 paintings
