"""Synthetic multi-modal datasets mirroring the paper's two workloads."""

from repro.data.catalog import DataLake
from repro.datasets import artwork, rotowire
from repro.datasets.artwork import (ArtworkDataset, GENRE_OBJECT_POOLS,
                                    MOVEMENT_ERAS, generate_artwork_dataset)
from repro.datasets.rotowire import (RotowireDataset, TEAMS,
                                     generate_rotowire_dataset)


#: Each dataset's generator and its default seed.
_GENERATORS = {
    "artwork": (generate_artwork_dataset, artwork.DEFAULT_SEED),
    "rotowire": (generate_rotowire_dataset, rotowire.DEFAULT_SEED),
}

DATASET_NAMES = tuple(sorted(_GENERATORS))


def load_lake(name: str, seed: int | None = None,
              scale: float = 1.0) -> DataLake:
    """Generate the named dataset and package it as a :class:`DataLake`.

    Entry point used by the CLI, the repo benchmark, and the test
    harness; *seed* of ``None`` means the dataset's default seed, *scale*
    multiplies the dataset's base cardinality (10k+ paintings / 1k+ games
    are a ``--scale`` flag away).  Generation is deterministic in
    ``(name, seed, scale)``.  A lake at another scale is named
    ``<name>@<scale>``, and one from another seed than the dataset's
    default ``<name>#<seed>`` (``rotowire@2#1``), so each keeps its own
    plan-cache entries.
    """
    if name not in _GENERATORS:
        raise KeyError(f"unknown dataset {name!r}; available: "
                       f"{', '.join(DATASET_NAMES)}")
    generator, default_seed = _GENERATORS[name]
    if seed is None:
        seed = default_seed
    lake = generator(seed=seed, scale=scale).as_lake()
    if scale != 1.0:
        lake.name += f"@{scale:g}"
    if seed != default_seed:
        lake.name += f"#{seed}"
    return lake


__all__ = [
    "ArtworkDataset",
    "DATASET_NAMES",
    "GENRE_OBJECT_POOLS",
    "MOVEMENT_ERAS",
    "RotowireDataset",
    "TEAMS",
    "generate_artwork_dataset",
    "generate_rotowire_dataset",
    "load_lake",
]
