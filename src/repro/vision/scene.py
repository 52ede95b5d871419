"""Scene specifications for synthetic artwork images.

A :class:`SceneSpec` is the *ground truth* of one painting: which objects it
depicts and where.  The renderer turns it into pixels; the simulated vision
model must recover the objects from those pixels alone.  Ground truth is
kept by the dataset generator for oracle evaluation — it is never shown to
the vision model or the planner.

Each object category has a unique glyph colour.  Colours are chosen with
pairwise L-infinity distance >= 60 and far from the background gray band, so
that colour segmentation with tolerance 30 cannot confuse categories.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Category:
    """One detectable object category."""

    name: str
    color: tuple[int, int, int]
    shape: str  # circle | square | diamond | cross | triangle
    synonyms: tuple[str, ...] = ()


#: The category registry.  Names double as the canonical noun used in
#: questions ("How many swords are depicted?").
CATEGORIES: dict[str, Category] = {c.name: c for c in [
    Category("madonna", (0, 0, 255), "circle", ("madonnas", "mary", "virgin")),
    Category("child", (255, 128, 255), "circle", ("children", "infant", "baby")),
    Category("halo", (255, 255, 0), "circle", ("halos", "haloes", "nimbus")),
    Category("sword", (0, 255, 255), "cross", ("swords", "blade", "blades")),
    Category("dog", (128, 64, 0), "square", ("dogs", "hound", "hounds")),
    Category("crown", (255, 0, 0), "triangle", ("crowns",)),
    Category("flower", (255, 0, 128), "diamond", ("flowers", "blossom",
                                                  "blossoms", "rose", "roses")),
    Category("tree", (0, 128, 0), "triangle", ("trees",)),
    Category("boat", (128, 0, 255), "square", ("boats", "ship", "ships")),
    Category("mountain", (0, 255, 0), "triangle", ("mountains",)),
    Category("sun", (255, 255, 255), "circle", ("suns",)),
    Category("cross", (0, 0, 128), "cross", ("crosses", "crucifix")),
    Category("bird", (128, 255, 128), "diamond", ("birds", "dove", "doves")),
    Category("horse", (64, 16, 16), "square", ("horses",)),
    Category("angel", (255, 128, 0), "circle", ("angels",)),
    Category("skull", (192, 192, 192), "diamond", ("skulls",)),
]}


def _word_index() -> dict[str, Category]:
    """Every noun that names a category: canonical names first, then
    synonyms (the earlier category wins a shared one), then the naive
    plural ``name + "s"``."""
    words: dict[str, Category] = dict(CATEGORIES)
    for category in CATEGORIES.values():
        for synonym in category.synonyms:
            words.setdefault(synonym, category)
    for category in CATEGORIES.values():
        words.setdefault(category.name + "s", category)
    return words


_WORDS = _word_index()
_WORD_RE = re.compile(r"[A-Za-z]+")


def category_for_word(word: str) -> Category | None:
    """Resolve a (possibly plural / synonym) noun to a category."""
    return _WORDS.get(word.strip().lower())


def categories_in_phrase(phrase: str) -> list[Category]:
    """All categories mentioned in a free-text phrase, in order, de-duplicated.

    Used both by the simulated vision model (to understand questions) and by
    the NL intent parser (to spot multi-modal predicates such as
    "depicting Madonna and Child").
    """
    found: dict[str, Category] = {}
    for word in _WORD_RE.findall(phrase.lower()):
        category = _WORDS.get(word)
        if category is not None:
            found.setdefault(category.name, category)
    return list(found.values())


@dataclass(frozen=True)
class SceneObject:
    """One object instance placed in a scene."""

    category: str
    cx: int
    cy: int
    size: int  # radius-ish extent in pixels

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")


@dataclass
class SceneSpec:
    """Ground truth of one synthetic painting."""

    width: int = 64
    height: int = 64
    background_seed: int = 0
    objects: list[SceneObject] = field(default_factory=list)

    def count(self, category: str) -> int:
        return sum(1 for o in self.objects if o.category == category)

    @property
    def categories(self) -> list[str]:
        seen: list[str] = []
        for obj in self.objects:
            if obj.category not in seen:
                seen.append(obj.category)
        return seen

    def build(self) -> SceneSpec:
        """This scene: a spec is already built (see :class:`SceneRecipe`)."""
        return self


@dataclass(frozen=True, slots=True)
class SceneRecipe:
    """The arguments of one :func:`build_scene` call, kept in place of
    the scene it builds: a lake holds one per painting and builds the
    scene only when the painting is rendered.

    *counts* is ``sorted(object_counts.items())`` as a tuple, so equal
    recipes have equal reprs and a generator can share one tuple among
    the paintings that draw the same counts.
    """

    counts: tuple[tuple[str, int], ...]
    seed: int
    width: int = 64
    height: int = 64

    def build(self) -> SceneSpec:
        """The scene these arguments place, built afresh."""
        return build_scene(dict(self.counts), self.seed, self.width,
                           self.height)


def build_scene(object_counts: dict[str, int], seed: int,
                width: int = 64, height: int = 64,
                min_size: int = 3, max_size: int = 5) -> SceneSpec:
    """Place the requested objects without overlap via rejection sampling.

    If an object genuinely cannot be placed after many attempts it is
    dropped — and therefore also absent from the returned ground truth, so
    spec and pixels always agree.  Draws go through ``randrange``;
    ``randint(a, b)`` is defined as ``randrange(a, b + 1)``, so both
    spellings draw one stream, and that stream is pinned (every lake
    image's raster follows from it).
    """
    randrange = random.Random(seed).randrange
    scene = SceneSpec(width=width, height=height,
                      background_seed=randrange(2 ** 31))
    placed: list[SceneObject] = []
    for category, count in sorted(object_counts.items()):
        for _ in range(count):
            size = randrange(min_size, max_size + 1)
            position = _find_spot(randrange, placed, size, width, height)
            if position is not None:
                placed.append(SceneObject(category, position[0],
                                          position[1], size))
    scene.objects = placed
    return scene


def _find_spot(randrange, placed: list[SceneObject], size: int,
               width: int, height: int,
               attempts: int = 200) -> tuple[int, int] | None:
    """A centre farther (L-infinity) from each placed centre than the
    two sizes plus 2, or ``None`` after *attempts* draws."""
    margin = size + 1
    for _ in range(attempts):
        cx = randrange(margin, width - margin)
        cy = randrange(margin, height - margin)
        for other in placed:
            gap = size + other.size + 2
            if abs(cx - other.cx) <= gap and abs(cy - other.cy) <= gap:
                break
        else:
            return cx, cy
    return None
