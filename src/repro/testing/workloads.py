"""Fixed query workloads, one per dataset.

Each workload mixes the three result kinds (value / table / plot) and both
cache axes: repeated queries exercise the plan cache, and modality-heavy
queries (VQA over every painting, TextQA over every report) exercise the
answer cache.  Alongside single-table queries they cover the widened
grammar: cross-column joins (players ⋈ teams on ``team = name``),
multi-measure aggregates and typed date-range filters.

The cross-backend parity suite, the cache-tier tests and the CI smoke
steps all draw their queries from here, so the lists are fixed.
"""

from __future__ import annotations

#: Unique queries per dataset; :func:`workload` repeats the whole list.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "artwork": (
        "How many paintings are depicting a sword?",
        "How many paintings are depicting a dog?",
        "List the titles of paintings depicting a crown.",
        "How many paintings belong to the 'Impressionism' movement?",
        "For each movement, how many paintings are there?",
        "What is the earliest inception date of all paintings?",
        "Plot the number of paintings for each century.",
        "What are the min, max and average year of impressionist "
        "paintings?",
        "For each movement, what are the earliest and latest inception "
        "dates?",
        "How many paintings were created between 1880 and 1895?",
    ),
    "rotowire": (
        "How many players are taller than 200?",
        "How many games did the Heat win?",
        "List the names of players taller than 200.",
        "Who is the tallest player?",
        "Plot the average height of players per position.",
        "Plot the total number of points scored by each team.",
        "What is the average height of players in the Eastern conference?",
        "How many players play for teams in the Atlantic division?",
        "Plot the number of players for each division.",
        "What is the average number of points scored by players on teams "
        "founded before 1970?",
        "What are the minimum and maximum height of players in the "
        "Western conference?",
        "How many games took place in November 2018?",
    ),
}


def workload_datasets() -> tuple[str, ...]:
    """Datasets that have a fixed workload, sorted.

    The cross-backend parity suite iterates this: every backend must
    produce identical results for every full workload listed here.
    """
    return tuple(sorted(WORKLOADS))


def workload(dataset: str, repeats: int = 1) -> list[str]:
    """The fixed workload of *dataset*, repeated *repeats* times."""
    if dataset not in WORKLOADS:
        raise KeyError(f"no workload for dataset {dataset!r}; "
                       f"available: {', '.join(sorted(WORKLOADS))}")
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    return list(WORKLOADS[dataset]) * repeats
