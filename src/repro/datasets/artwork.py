"""The artwork dataset (tables + images), Wikidata-style.

Mirrors the paper's first dataset: a ``paintings_metadata`` table (title,
artist, inception, movement, genre, img_path) extracted "for all Wikidata
entities that are instances of 'painting'", plus a ``painting_images``
collection presented as a special two-column table (img_path, image).

The generator is fully synthetic and seeded.  Scene contents are drawn from
genre-correlated object pools, but titles are sampled *independently* of the
actual scene so that answering "what is depicted" from the title column is
genuinely wrong (the paper's *Data Misunderstanding* failure of
ChatGPT-3.5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date
from typing import Iterator

from repro.data import (ColumnSpec, DataLake, DataSource, DataType,
                        ForeignKey, Schema, SourceKind, Table)
from repro.vision import LazyImage, SceneRecipe, SceneSpec

MOVEMENT_ERAS = {
    "Renaissance": (1420, 1600),
    "Baroque": (1600, 1750),
    "Romanticism": (1750, 1850),
    "Impressionism": (1850, 1900),
    "Expressionism": (1900, 1950),
}

GENRE_OBJECT_POOLS = {
    "religious art": ["madonna", "child", "halo", "cross", "angel"],
    "portrait": ["crown", "sword", "dog", "skull"],
    "landscape": ["tree", "mountain", "sun", "boat"],
    "still life": ["flower", "skull", "bird"],
    "history painting": ["sword", "horse", "crown", "boat"],
}

_TITLE_HEADS = ("Madonna", "Landscape", "Portrait", "Study", "Allegory",
                "Vision", "Scene", "Morning", "Evening", "The Garden",
                "The Battle", "Still Life", "The Harbor", "The Feast")
_TITLE_TAILS = ("of the Meadow", "with Saints", "at Dusk", "in Blue",
                "of a Nobleman", "of the North", "by the Sea", "in Spring",
                "of the Rocks", "with Flowers", "of Victory", "at the Gate")

_ARTIST_FIRST = ("Giovanni", "Pieter", "Claude", "Artemisia", "Diego",
                 "Élisabeth", "Caspar", "Berthe", "Edvard", "Sofonisba")
_ARTIST_LAST = ("Bellini", "Bruegel", "Moreau", "Gentileschi", "Velázquez",
                "Vigée", "Friedrich", "Morisot", "Munch", "Anguissola")


@dataclass
class ArtworkDataset:
    """Generated tables, images, and per-image ground-truth scenes."""

    metadata: Table
    images: Table
    #: each image path's scene recipe, the one its lazy image renders
    recipes: dict[str, SceneRecipe]
    seed: int

    @property
    def scenes(self) -> dict[str, SceneSpec]:
        """Each image path's ground-truth scene, built on every access."""
        return {path: recipe.build()
                for path, recipe in self.recipes.items()}

    def as_lake(self) -> DataLake:
        """Package both sources as a data lake (the planner's view)."""
        lake = DataLake(name="artwork")
        lake.add(DataSource(
            "paintings_metadata", self.metadata, kind=SourceKind.TABLE,
            description=("Metadata about paintings exhibited in the museum: "
                         "title, artist, inception date, art movement, genre "
                         "and the path of the painting's image.")))
        lake.add(DataSource(
            "painting_images", self.images, kind=SourceKind.IMAGE_COLLECTION,
            description=("Digitized images of the paintings; one row per "
                         "painting image.")))
        return lake


def _painting_stream(num_paintings: int, seed: int,
                     image_size: int) -> Iterator[tuple]:
    """Seeded per-painting row stream.

    Yields ``(title, artist, inception, movement, genre, img_path,
    recipe)`` one painting at a time — the RNG draw order per painting is
    frozen (old caches key on lake fingerprints), so extend only by
    appending draws at the end of the loop body.  The scene itself is
    not built here: the :class:`~repro.vision.SceneRecipe` holds the
    ``build_scene`` arguments, its seed drawn where the scene's would
    be, and paintings that draw equal counts share one counts tuple.
    """
    rng = random.Random(seed)
    movements = list(MOVEMENT_ERAS)
    genres = list(GENRE_OBJECT_POOLS)
    interned: dict[tuple, tuple] = {}
    for index in range(num_paintings):
        movement = rng.choice(movements)
        genre = rng.choice(genres)
        year_low, year_high = MOVEMENT_ERAS[movement]
        year = rng.randint(year_low, year_high - 1)
        month = rng.randint(1, 12)
        day = rng.randint(1, 28)
        inception = date(year, month, day).isoformat()

        # Title sampled independently of the scene (see module docstring).
        title = f"{rng.choice(_TITLE_HEADS)} {rng.choice(_TITLE_TAILS)}"
        artist = f"{rng.choice(_ARTIST_FIRST)} {rng.choice(_ARTIST_LAST)}"
        img_path = f"img/{index + 1}.png"

        pool = GENRE_OBJECT_POOLS[genre]
        object_counts: dict[str, int] = {}
        for category in rng.sample(pool, k=rng.randint(1, min(3, len(pool)))):
            object_counts[category] = rng.randint(1, 3)
        counts = tuple(sorted(object_counts.items()))
        recipe = SceneRecipe(interned.setdefault(counts, counts),
                             rng.randrange(2 ** 31), image_size, image_size)
        yield (title, artist, inception, movement, genre, img_path, recipe)


#: The seed a lake is generated from when none is given.
DEFAULT_SEED = 7


def generate_artwork_dataset(num_paintings: int = 120,
                             seed: int = DEFAULT_SEED,
                             image_size: int = 64, scale: float = 1.0,
                             ) -> ArtworkDataset:
    """Generate a seeded artwork dataset of ``num_paintings * scale``
    paintings.

    *scale* is the stress-lake multiplier exposed as ``--scale`` on the CLI
    (``scale=100`` → 12,000 paintings).  Generation is deterministic in
    ``(seed, scale)``: the same pair always produces byte-identical tables
    and rasters.  The seeded row stream is split into one list per
    column, and each table is packed once into typed columnar storage.
    Each image cell is a :class:`~repro.vision.LazyImage` over its scene
    recipe that builds the scene and rasterizes on pixel access — a
    scale-1000 lake never materializes its scenes or its rasters.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    num_paintings = max(1, round(num_paintings * scale))

    metadata_schema = Schema(
        [ColumnSpec("title", DataType.STRING, "title of the painting"),
         ColumnSpec("artist", DataType.STRING, "name of the painter"),
         ColumnSpec("inception", DataType.STRING,
                    "date the painting was created, as YYYY-MM-DD"),
         ColumnSpec("movement", DataType.STRING,
                    "art movement the painting belongs to"),
         ColumnSpec("genre", DataType.STRING, "genre of the painting"),
         ColumnSpec("img_path", DataType.STRING,
                    "path of the painting's image file")],
        description="metadata of the paintings in the museum",
        foreign_keys=[ForeignKey("img_path", "painting_images", "img_path")])
    images_schema = Schema(
        [ColumnSpec("img_path", DataType.STRING, "path of the image file"),
         ColumnSpec("image", DataType.IMAGE, "the painting image")],
        description="images of the paintings",
        foreign_keys=[ForeignKey("img_path", "paintings_metadata",
                                 "img_path")])

    metadata: list[list[object]] = [[] for _ in metadata_schema.columns]
    images: list[LazyImage] = []
    recipes: dict[str, SceneRecipe] = {}
    for *row, recipe in _painting_stream(num_paintings, seed, image_size):
        for column, value in zip(metadata, row):
            column.append(value)
        img_path = row[-1]
        recipes[img_path] = recipe
        images.append(LazyImage(recipe, path=img_path))
    img_paths = metadata[-1]    # packing copies, so both tables may share it
    return ArtworkDataset(
        metadata=Table(metadata_schema,
                       dict(zip(metadata_schema.column_names, metadata))),
        images=Table(images_schema, {"img_path": img_paths, "image": images}),
        recipes=recipes, seed=seed)
