"""Benchmark inputs and expected answers.

Queries are expanded from natural-language templates the simulated
planner's grammar covers; every expansion below was checked to produce
the same answer on the default relational engine and on a cache-less
sqlite session (``run.py --write-golden`` re-checks before it writes).
The workload seed shapes only the *order* of a stream: lakes are always
generated at the datasets' default seed and every block of a workload
runs the same multiset of queries, so goldens and per-block statistics
hold for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.core.plan import QueryResult
from repro.datasets import MOVEMENT_ERAS
from repro.vision.scene import CATEGORIES

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: A query is ``(dataset, text)``.
Query = tuple[str, str]

#: Depicted objects asked about.  An object outside the vision model's
#: category registry is not an error to the planner — the depicts-filter
#: silently drops and the query returns the row count — so membership is
#: enforced here.
OBJECTS = ("sword", "crown", "skull")
_unknown = [name for name in OBJECTS if name not in CATEGORIES]
if _unknown:
    raise ValueError(f"objects outside repro.vision.scene.CATEGORIES: "
                     f"{_unknown}")

_ARTISTS_FIRST = ("Giovanni", "Pieter", "Claude", "Artemisia", "Diego",
                  "Caspar", "Berthe", "Edvard", "Sofonisba")
_ARTISTS_LAST = ("Bellini", "Bruegel", "Moreau", "Gentileschi", "Friedrich",
                 "Morisot", "Munch", "Anguissola")
_GENRES = ("still life", "religious art", "landscape", "portrait",
           "history painting")
_ADJECTIVES = ("renaissance", "baroque", "romantic", "impressionist",
               "expressionist")
_DIVISIONS = ("Atlantic", "Central", "Southeast", "Southwest", "Pacific",
              "Northwest")
_MONTHS = (("October", 2018), ("November", 2018), ("December", 2018),
           ("January", 2019), ("February", 2019), ("March", 2019))


def _artwork_multimodal() -> list[str]:
    queries = []
    for name in OBJECTS:
        queries += [
            f"How many paintings are depicting a {name}?",
            f"List the titles of paintings depicting a {name}.",
            f"Plot the number of paintings depicting a {name} for each "
            f"century.",
        ]
    queries += [
        "What is the total number of swords depicted in all paintings?",
        "For each century, what is the number of swords depicted?",
    ]
    return queries


def _artwork_relational_small() -> list[str]:
    queries = [f"How many paintings belong to the '{movement}' movement?"
               for movement in MOVEMENT_ERAS]
    queries += [f"How many paintings were created between {low} and {high}?"
                for low, high in ((1880, 1895), (1600, 1650), (1500, 1700))]
    queries += [
        "For each movement, how many paintings are there?",
        "For each genre, how many paintings are there?",
        "What is the earliest inception date of all paintings?",
        "What are the min, max and average year of impressionist "
        "paintings?",
        "For each movement, what are the earliest and latest inception "
        "dates?",
        "Plot the number of paintings for each century.",
        "Plot the number of paintings for each movement.",
    ]
    return queries


def _rotowire_mixed() -> list[str]:
    queries = [f"How many games did the {team} win?"
               for team in ("Heat", "Celtics", "Lakers", "Spurs")]
    for height in (190, 200, 205):
        queries += [f"How many players are taller than {height}?",
                    f"List the names of players taller than {height}."]
    queries += [
        "Who is the tallest player?",
        "Who is the shortest player?",
        "Plot the average height of players per position.",
        "Plot the total number of points scored by each team.",
        "Plot the number of players for each division.",
        "What is the average height of players in the Eastern conference?",
        "What is the average height of players in the Western conference?",
        "How many players play for teams in the Atlantic division?",
        "How many players play for teams in the Pacific division?",
        "What is the average number of points scored by players on teams "
        "founded before 1970?",
        "What are the minimum and maximum height of players in the "
        "Western conference?",
        "How many games took place in November 2018?",
        "How many games took place in January 2019?",
        "For each nationality, how many players are there?",
    ]
    return queries


def warm_mixed_queries() -> list[Query]:
    """About 50 unique multimodal + relational queries over both lakes;
    fits the 128-entry plan cache."""
    artwork = _artwork_multimodal() + _artwork_relational_small()
    return ([("artwork", q) for q in artwork]
            + [("rotowire", q) for q in _rotowire_mixed()])


def serve_queries() -> list[Query]:
    """The artwork half of the warm mix (one served session, one lake)."""
    return [("artwork", q)
            for q in _artwork_multimodal() + _artwork_relational_small()]


def first_ask_queries() -> list[Query]:
    """24 unique queries a fresh replica is asked once each: three need
    image inference, four need text inference, the rest are relational."""
    artwork = [
        "How many paintings are depicting a sword?",
        "List the titles of paintings depicting a sword.",
        "How many paintings are depicting a crown?",
        "What is the total number of swords depicted in all paintings?",
        "How many paintings belong to the 'Impressionism' movement?",
        "For each movement, how many paintings are there?",
        "What is the earliest inception date of all paintings?",
        "What are the min, max and average year of impressionist "
        "paintings?",
        "For each movement, what are the earliest and latest inception "
        "dates?",
        "How many paintings were created between 1880 and 1895?",
        "Plot the number of paintings for each century.",
        "For each genre, how many paintings are there?",
    ]
    rotowire = [
        "How many games did the Heat win?",
        "How many games did the Lakers win?",
        "Plot the total number of points scored by each team.",
        "What is the average number of points scored by players on teams "
        "founded before 1970?",
        "How many players are taller than 200?",
        "List the names of players taller than 200.",
        "Who is the tallest player?",
        "Plot the average height of players per position.",
        "What is the average height of players in the Eastern conference?",
        "How many players play for teams in the Atlantic division?",
        "What are the minimum and maximum height of players in the "
        "Western conference?",
        "How many games took place in November 2018?",
    ]
    return ([("artwork", q) for q in artwork]
            + [("rotowire", q) for q in rotowire])


def relational_queries() -> list[Query]:
    """218 unique relational-only queries, 161 of them on the
    artwork lake — more than its session's 128-entry plan cache holds, so
    a cycle sees hits, misses and evictions there (rotowire's 57 fit)."""
    artwork = [f"How many paintings belong to the '{movement}' movement?"
               for movement in MOVEMENT_ERAS]
    artwork += [
        "For each movement, how many paintings are there?",
        "For each genre, how many paintings are there?",
        "For each artist, how many paintings are there?",
        "For each century, how many paintings are there?",
        "For each decade, how many paintings are there?",
        "What is the earliest inception date of all paintings?",
        "For each movement, what are the earliest and latest inception "
        "dates?",
        "How many distinct artists are there?",
        "What is the title of the oldest painting?",
    ]
    for adjective in _ADJECTIVES:
        artwork += [
            f"What are the earliest and latest inception dates of "
            f"{adjective} paintings?",
            f"What are the min, max and average year of {adjective} "
            f"paintings?",
        ]
    for genre in _GENRES:
        artwork += [f"How many {genre} paintings are there?",
                    f"List the titles of {genre} paintings."]
    for low in range(1450, 1900, 25):
        for span in (10, 40):
            artwork.append(f"How many paintings were created between "
                           f"{low} and {low + span}?")
        artwork.append(f"List the titles and artists of paintings created "
                       f"between {low} and {low + 5}.")
    for year in (1500, 1650, 1800):
        artwork += [f"How many paintings were created after {year}?",
                    f"How many paintings were created before {year}?"]
    for first in _ARTISTS_FIRST[:6]:
        for last in _ARTISTS_LAST:
            artwork.append(
                f"How many paintings were painted by {first} {last}?")
    for first in _ARTISTS_FIRST[6:]:
        for last in _ARTISTS_LAST:
            artwork.append(
                f"List the titles of paintings painted by {first} {last}.")

    rotowire = []
    for height in range(188, 212, 3):
        rotowire += [f"How many players are taller than {height}?",
                     f"List the names of players taller than {height}."]
    rotowire += [f"How many players play for teams in the {division} "
                 f"division?" for division in _DIVISIONS]
    rotowire += [f"How many games took place in {month} {year}?"
                 for month, year in _MONTHS]
    for conference in ("Eastern", "Western"):
        rotowire += [
            f"What is the average height of players in the {conference} "
            f"conference?",
            f"What are the minimum and maximum height of players in the "
            f"{conference} conference?",
        ]
    for year in (1947, 1960, 1967, 1972):
        rotowire += [
            f"How many players play for teams founded before {year}?",
            f"What is the average height of players on teams founded "
            f"after {year}?",
        ]
    rotowire += [
        "Who is the tallest player?",
        "Who is the shortest player?",
        "For each position, what is the average height of players?",
        "For each nationality, how many players are there?",
        "For each conference, how many teams are there?",
        "For each team, how many players are there?",
        "For each division, what is the average height of players?",
        "How many teams were founded before 1950?",
        "List the names of teams founded between 1960 and 1970.",
        "How many games took place between November 2018 and January "
        "2019?",
        "How many games took place before December 2018?",
        "How many players from France are taller than 200?",
    ]
    return ([("artwork", q) for q in artwork]
            + [("rotowire", q) for q in rotowire])


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------

def zipf_cycle(num_queries: int, cycle_len: int, rank_seed: int) -> list[int]:
    """Indices of one cycle: the query at popularity rank *r* appears
    ``max(1, round(cycle_len * w_r))`` times, ``w_r`` ∝ 1/r (Zipf 1.0).

    Every cycle holds every query at least once and is the same multiset
    for every workload seed, so per-block statistics are comparable.
    *rank_seed* fixes which query is hot.  It is a constant of the
    workload, never the run's seed: were the hot query to change between
    runs, latency would.
    """
    ranking = list(range(num_queries))
    random.Random(rank_seed).shuffle(ranking)
    total = sum(1.0 / rank for rank in range(1, num_queries + 1))
    cycle: list[int] = []
    for rank, index in enumerate(ranking, start=1):
        cycle += [index] * max(1, round(cycle_len / (rank * total)))
    return cycle


def shuffled(cycle: list[int], rng: random.Random) -> list[int]:
    """A seeded permutation of *cycle* (the only thing the seed shapes)."""
    order = list(cycle)
    rng.shuffle(order)
    return order


def poisson_schedule(rate_per_s: float, count: int,
                     rng: random.Random) -> list[float]:
    """Due times (seconds from phase start) of the first *count* arrivals
    of a Poisson process."""
    due, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate_per_s)
        due.append(now)
    return due


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------

def digest(result: QueryResult) -> str:
    """Canonical digest of one answer: kind + value / table fingerprint /
    plot spec.  An error result digests to ``error:<message>`` and so
    never matches a golden."""
    if result.kind == "value":
        return f"value:{result.value!r}"
    if result.kind == "table" and result.table is not None:
        return f"table:{result.table.num_rows}:{result.table.fingerprint()}"
    if result.kind == "plot" and result.plot is not None:
        spec = json.dumps(result.plot.to_dict(), sort_keys=True)
        return f"plot:{hashlib.sha256(spec.encode('utf-8')).hexdigest()[:24]}"
    return f"error:{result.error}"


def golden_key(query: Query) -> str:
    return f"{query[0]}|{query[1]}"


def load_golden(workload: str) -> dict[str, str]:
    with open(GOLDEN_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def write_golden(workload: str, answers: dict[str, str]) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / f"{workload}.json", "w",
              encoding="utf-8") as handle:
        json.dump(answers, handle, indent=1, sort_keys=True)
        handle.write("\n")


class AnswerChecker:
    """Compares every answer of a run with the workload's goldens."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def check(self, query: Query, result: QueryResult) -> bool:
        """Count one answered query; ``False`` when it is wrong."""
        expected = self.golden.get(golden_key(query))
        got = digest(result)
        if expected is not None and got == expected:
            self.attempted += 1
            return True
        self.fail(f"{golden_key(query)}: expected {expected}, got {got}")
        return False

    def fail(self, reason: str) -> None:
        """Count one failed operation (wrong answer, or no result at all:
        refused, timed out, transport error)."""
        self.attempted += 1
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = reason
