"""Streaming, sharded lake generation and lazy image decode.

The contract: generation feeds seeded row streams through bounded
ingestion shards and defers every raster, so a stress-scale artwork lake
costs megabytes, not gigabytes — while staying fingerprint-identical to
the eager, one-shot generation it replaced (old caches key on those
fingerprints).
"""

import tracemalloc

import pytest

from repro.data.schema import ColumnSpec, Schema
from repro.data.datatypes import DataType
from repro.data.table import Table
from repro.datasets import load_lake
from repro.datasets.artwork import generate_artwork_dataset
from repro.datasets.rotowire import generate_rotowire_dataset
from repro.datasets.streaming import ShardedTableBuilder
from repro.vision import LazyImage, build_scene, render_scene


# ----------------------------------------------------------------------
# ShardedTableBuilder
# ----------------------------------------------------------------------


def make_schema() -> Schema:
    return Schema([ColumnSpec("n", DataType.INTEGER),
                   ColumnSpec("s", DataType.STRING)])


def test_builder_rejects_non_positive_shard_rows():
    with pytest.raises(ValueError):
        ShardedTableBuilder(make_schema(), shard_rows=0)


def test_builder_empty_finish_is_empty_table():
    table = ShardedTableBuilder(make_schema()).finish()
    assert table.num_rows == 0
    assert table.column_names == ["n", "s"]


def test_builder_matches_from_rows_for_every_shard_size():
    rows = [(i, f"row-{i}") for i in range(25)]
    expected = Table.from_rows(make_schema(), rows)
    for shard_rows in (1, 2, 7, 25, 1000):
        builder = ShardedTableBuilder(make_schema(), shard_rows=shard_rows)
        for row in rows:
            builder.add(row)
        table = builder.finish()
        assert table.equals(expected)
        assert table.fingerprint() == expected.fingerprint()


# ----------------------------------------------------------------------
# Sharded generation == one-shot generation, fingerprint for fingerprint
# ----------------------------------------------------------------------


def test_artwork_sharded_equals_one_shot():
    sharded = generate_artwork_dataset(scale=2, shard_rows=7)
    one_shot = generate_artwork_dataset(scale=2, shard_rows=10 ** 6)
    assert sharded.metadata.fingerprint() == one_shot.metadata.fingerprint()
    assert sharded.images.fingerprint() == one_shot.images.fingerprint()


def test_rotowire_sharded_equals_one_shot():
    sharded = generate_rotowire_dataset(scale=2, shard_rows=5)
    one_shot = generate_rotowire_dataset(scale=2, shard_rows=10 ** 6)
    for name in ("teams", "players", "teams_to_games", "players_to_games",
                 "game_reports"):
        assert (getattr(sharded, name).fingerprint()
                == getattr(one_shot, name).fingerprint()), name


def test_shard_size_is_not_part_of_the_lake_spec():
    # shard_rows is a memory knob, not a generation parameter: the spec
    # (dataset, seed, scale) alone must keep rebuilding identical lakes.
    lake = load_lake("rotowire", scale=0.2)
    assert lake.spec.build().fingerprint() == lake.fingerprint()


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
#: eagerly again; the streaming generator holds scene specs + typed
#: columns (~1.5–2.2 KB per painting traced).
BUDGET_BYTES_PER_ROW = 320 * 1024 * 1024 / 60_000


def assert_artwork_generation_in_budget(scale: float) -> None:
    """Generate the artwork lake at *scale* under tracemalloc and assert
    nothing rendered and the traced peak stays within the per-row budget.
    Tier-1 runs it at scale 100; the CI soak (``fuzz``) job at scale 500.
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


def test_scale_100_artwork_generation_stays_in_budget():
    assert_artwork_generation_in_budget(100)      # 12,000 paintings
