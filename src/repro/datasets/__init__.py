"""Synthetic multi-modal datasets mirroring the paper's two workloads."""

from dataclasses import dataclass

from repro.data.catalog import DataLake
from repro.datasets.artwork import (ArtworkDataset, GENRE_OBJECT_POOLS,
                                    MOVEMENT_ERAS, generate_artwork_dataset)
from repro.datasets.rotowire import (RotowireDataset, TEAMS,
                                     generate_rotowire_dataset)


_GENERATORS = {
    "artwork": generate_artwork_dataset,
    "rotowire": generate_rotowire_dataset,
}

DATASET_NAMES = tuple(sorted(_GENERATORS))


@dataclass(frozen=True)
class LakeSpec:
    """Picklable generation recipe for a lake: ``(dataset, seed, scale)``.

    Generation is deterministic in these three parameters, so a spec is a
    complete, tiny substitute for the lake itself.  The process execution
    backend sends a spec through the pipe and has each worker rebuild its
    own lake via :meth:`build` — 10k-row tables and rendered images never
    get pickled.  ``seed=None`` means the dataset's own default seed.
    """

    dataset: str
    seed: int | None = None
    scale: float = 1.0

    def build(self) -> DataLake:
        """Regenerate the lake this spec describes."""
        return load_lake(self.dataset, seed=self.seed, scale=self.scale)

    def to_dict(self) -> dict:
        return {"dataset": self.dataset, "seed": self.seed,
                "scale": self.scale}

    @classmethod
    def from_dict(cls, data: dict) -> "LakeSpec":
        return cls(dataset=data["dataset"], seed=data.get("seed"),
                   scale=data.get("scale", 1.0))


def load_lake(name: str, seed: int | None = None,
              scale: float = 1.0) -> DataLake:
    """Generate the named dataset and package it as a :class:`DataLake`.

    Entry point used by the CLI, the repo benchmark, and the test
    harness; *seed* of ``None`` means the dataset's default seed, *scale*
    multiplies the dataset's base cardinality (10k+ paintings / 1k+ games
    are a ``--scale`` flag away).  The returned lake carries its
    :class:`LakeSpec` in ``lake.spec``, which is what makes it eligible
    for the process execution backend (workers regenerate the lake from
    the spec instead of receiving it over the pipe).
    """
    if name not in _GENERATORS:
        raise KeyError(f"unknown dataset {name!r}; available: "
                       f"{', '.join(DATASET_NAMES)}")
    generator = _GENERATORS[name]
    kwargs: dict[str, object] = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    lake = generator(**kwargs).as_lake()
    lake.spec = LakeSpec(dataset=name, seed=seed, scale=scale)
    return lake


__all__ = [
    "ArtworkDataset",
    "DATASET_NAMES",
    "GENRE_OBJECT_POOLS",
    "LakeSpec",
    "MOVEMENT_ERAS",
    "RotowireDataset",
    "TEAMS",
    "generate_artwork_dataset",
    "generate_rotowire_dataset",
    "load_lake",
]
