"""Simulated BLIP-2: Visual Question Answering and image-select over rasters.

The real CAESURA prototype uses BLIP-2 [Li et al., 2023] for its VisualQA
and Image Select operators.  This simulator reproduces the operator
*contract* — (image, natural-language question) → typed answer — with a
pixel-level detector:

1. colour segmentation: per category, mask pixels within L∞ tolerance of the
   category colour;
2. connected-component labelling: 4-connected row runs of each mask,
   joined by vectorised union-find (numpy only, :func:`_label_runs`);
3. components above a minimum area count as object instances.

The detector sees only :attr:`Image.pixels`; the scene ground truth stays in
the dataset generator.  An optional miss-probability noise model lets
robustness experiments degrade the "model".

Like the real model, the work splits into a question-independent *encode*
(segmenting a raster into detections — BLIP-2's image embedding) and a
cheap question-dependent *read*.  The encode runs once per image: its
noise-free detections are kept in a bounded memo keyed by
:meth:`Image.fingerprint`, and every entry point — single image or batch —
reads from it.  Segmentation is one pass for all categories: a pixel's
category bitmask is three table lookups (one 256-entry table per channel,
bit *k* set where the channel value is within tolerance of category *k*'s
colour) ANDed together, computed over a stack of rasters at a time.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import OperatorError
from repro.vision.image import Image
from repro.vision.scene import CATEGORIES, Category, categories_in_phrase

COLOR_TOLERANCE = 30
MIN_COMPONENT_AREA = 5

#: Rasters segmented per stacked pass.  A pass allocates each raster's
#: category bitmask and one mask plane per (raster, category present) —
#: about two per artwork raster, 20 KB each at 64 x 64 with their
#: temporaries; labelling then holds a few integers per foreground row
#: run, not a dense label plane.  This keeps the transient near 1 MB;
#: larger stacks are no faster.
SEGMENT_CHUNK = 16
#: Images whose detections one model keeps (well under 1 KB each).
MEMO_IMAGES = 2048

_COUNT_PATTERNS = (
    re.compile(r"how many\b(?P<rest>.*)", re.IGNORECASE),
    re.compile(r"(?:what is the )?number of\b(?P<rest>.*)", re.IGNORECASE),
    re.compile(r"count (?:the |of )?(?P<rest>.*)", re.IGNORECASE),
)
_YESNO_PATTERNS = (
    re.compile(r"^(?:is|are)\b(?P<rest>.*)", re.IGNORECASE),
    re.compile(r"^(?:does|do) the (?:image|painting|picture) (?:show|depict|"
               r"contain)\b(?P<rest>.*)", re.IGNORECASE),
)
_WHAT_PATTERN = re.compile(
    r"what (?:is|objects? (?:are|is)) (?:depicted|shown|visible)",
    re.IGNORECASE)


@dataclass(frozen=True)
class Detection:
    """One detected object instance."""

    category: str
    cx: float
    cy: float
    area: int


class Blip2Sim:
    """Simulated BLIP-2 visual model (detection + VQA + yes/no select).

    One instance is one loaded model: it is not thread-safe, and the
    engine keeps one per lane for its lifetime.
    """

    def __init__(self, tolerance: int = COLOR_TOLERANCE,
                 min_area: int = MIN_COMPONENT_AREA,
                 miss_probability: float = 0.0, seed: int = 0):
        if not 0.0 <= miss_probability <= 1.0:
            raise ValueError("miss_probability must be within [0, 1]")
        self.tolerance = tolerance
        self.min_area = min_area
        self.miss_probability = miss_probability
        self._rng = random.Random(seed)
        self._categories = list(CATEGORIES.values())
        #: category k's bit in a pixel's category bitmask
        self._bits = (1 << np.arange(len(self._categories))).astype(
            np.uint16)
        self._luts = _channel_tables(self._categories, tolerance)
        #: image fingerprint → its noise-free detections, in LRU order
        self._memo: OrderedDict[str, tuple[Detection, ...]] = OrderedDict()
        #: rasters segmented so far (memo misses), for tests and profiles
        self.images_encoded = 0

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def detect(self, image: Image) -> list[Detection]:
        """All object instances found in *image*, every category."""
        return self.detect_many([image])[0]

    def detect_many(self, images: Sequence[Image]) -> list[list[Detection]]:
        """:meth:`detect` for each image; the miss-probability filter is
        drawn per image in order, exactly as one call per image would."""
        encoded = self._encode(images)
        if self.miss_probability <= 0.0:
            return [list(detections) for detections in encoded]
        return [[d for d in detections
                 if self._rng.random() >= self.miss_probability]
                for detections in encoded]

    def _encode(self, images: Sequence[Image]) -> list[tuple[Detection, ...]]:
        """Noise-free detections per image, segmenting only rasters the
        memo lacks — :data:`SEGMENT_CHUNK` at a time, read through
        :meth:`Image.loaded` so a lazy lake image never keeps its pixels.
        An image is hashed through :meth:`Image.keyed`, so one whose
        digest is not known yet is rendered once for both the hash and
        the segmentation."""
        memo = self._memo
        images = [image.keyed() for image in images]
        fingerprints = [image.fingerprint() for image in images]
        found: dict[str, tuple[Detection, ...]] = {}
        unseen: dict[str, Image] = {}
        for fingerprint, image in zip(fingerprints, images):
            if fingerprint in memo:
                memo.move_to_end(fingerprint)
                found[fingerprint] = memo[fingerprint]
            else:
                # The first of equal images: a rendered twin before the
                # lazy image it was keyed from.
                unseen.setdefault(fingerprint, image)
        pending = list(unseen.items())
        for start in range(0, len(pending), SEGMENT_CHUNK):
            chunk = pending[start:start + SEGMENT_CHUNK]
            rasters = [image.loaded().pixels for _, image in chunk]
            for (fingerprint, _), detections in zip(chunk,
                                                    self._segment(rasters)):
                found[fingerprint] = memo[fingerprint] = detections
        self.images_encoded += len(pending)
        while len(memo) > MEMO_IMAGES:
            memo.popitem(last=False)
        return [found[fingerprint] for fingerprint in fingerprints]

    def _segment(self,
                 rasters: list[np.ndarray]) -> list[tuple[Detection, ...]]:
        """Detections of each ``(H, W, 3)`` ``uint8`` raster: categories
        in registry order, components in raster-scan order."""
        out: list[tuple[Detection, ...]] = []
        for _, run in itertools.groupby(rasters, key=lambda r: r.shape):
            out.extend(self._segment_stack(np.stack(list(run))))
        return out

    def _segment_stack(self,
                       stack: np.ndarray) -> list[tuple[Detection, ...]]:
        count, height, width, _ = stack.shape
        red, green, blue = self._luts
        # bit k of a pixel: (|pixel - colour_k| <= tolerance).all()
        bits = red.take(stack[..., 0])
        bits &= green.take(stack[..., 1])
        bits &= blue.take(stack[..., 2])
        present = np.bitwise_or.reduce(bits.reshape(count, -1), axis=1)
        # One plane per (raster, category whose bit occurs in it), labelled
        # in a single call; labels come out plane by plane, scan order.
        raster_of, category_of = np.nonzero(present[:, None] & self._bits)
        if not len(raster_of):
            return [()] * count
        planes = (bits[raster_of]
                  & self._bits[category_of][:, None, None]) != 0
        start, length, label = _label_runs(planes)
        plane, offset = np.divmod(start, height * width)
        ys, xs = np.divmod(offset, width)
        # Per component (labels 1..n, slot 0 empty): pixel count and
        # coordinate sums, added up a row run at a time (a run covers
        # xs .. xs + length - 1 on row ys).  Every partial sum is an
        # integer, so the centroids are exact.
        area = np.bincount(label, weights=length).astype(np.intp)
        sum_x = np.bincount(label, weights=length * (2 * xs + length - 1) // 2)
        sum_y = np.bincount(label, weights=length * ys)
        plane_of = np.zeros(len(area), dtype=np.intp)
        plane_of[label] = plane
        kept = np.flatnonzero(area >= max(self.min_area, 1))
        planes_kept = plane_of[kept]
        found: list[list[Detection]] = [[] for _ in range(count)]
        for raster, category, cx, cy, pixels in zip(
                raster_of[planes_kept].tolist(),
                category_of[planes_kept].tolist(),
                (sum_x[kept] / area[kept]).tolist(),
                (sum_y[kept] / area[kept]).tolist(),
                area[kept].tolist()):
            found[raster].append(Detection(self._categories[category].name,
                                           cx, cy, pixels))
        return [tuple(detections) for detections in found]

    def count(self, image: Image, category: str) -> int:
        return sum(1 for d in self.detect(image) if d.category == category)

    def depicted_categories(self, image: Image) -> list[str]:
        return _depicted(self.detect(image))

    # ------------------------------------------------------------------
    # Visual Question Answering
    # ------------------------------------------------------------------

    def answer(self, image: Image, question: str) -> object:
        """Answer a natural-language *question* about *image*.

        Supported question families (mirroring BLIP-2 usage in the paper):
        counting ("How many swords are depicted?"), yes/no ("Is Madonna and
        Child depicted?") and open listing ("What is depicted?").
        Yes/no answers are the literal strings ``"yes"`` / ``"no"`` — the
        interleaved mapping phase relies on observing those values.
        """
        return self.answer_many([image], question)[0]

    def answer_many(self, images: Sequence[Image],
                    question: str) -> list[object]:
        """:meth:`answer` for each image; *question* is parsed once."""
        if not images:
            return []
        read = _question_reader(question)
        return [read(detections) for detections in self.detect_many(images)]

    # ------------------------------------------------------------------
    # Image Select
    # ------------------------------------------------------------------

    def matches_description(self, image: Image, description: str) -> bool:
        """True when every object mentioned in *description* is depicted.

        Backs the Image Select operator ("select images showing Madonna and
        Child").
        """
        return self.matches_many([image], description)[0]

    def matches_many(self, images: Sequence[Image],
                     description: str) -> list[bool]:
        """:meth:`matches_description` for each image."""
        if not images:
            return []
        categories = categories_in_phrase(description)
        if not categories:
            raise OperatorError(
                f"Image Select cannot resolve description {description!r}",
                operator="Image Select")
        wanted = {c.name for c in categories}
        return [wanted <= {d.category for d in detections}
                for detections in self.detect_many(images)]


def _channel_tables(categories: list[Category],
                    tolerance: int) -> np.ndarray:
    """``tables[channel][value]``: bit *k* set where *value* is within
    *tolerance* of category *k*'s colour in that channel."""
    if len(categories) > 16:
        raise ValueError("the uint16 category bitmask holds 16 categories")
    values = np.arange(256)
    tables = np.zeros((3, 256), dtype=np.uint16)
    for bit, category in enumerate(categories):
        for channel, level in enumerate(category.color):
            tables[channel] |= (
                (np.abs(values - level) <= tolerance).astype(np.uint16)
                << np.uint16(bit))
    return tables


def _label_runs(
        planes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected components of a ``(planes, H, W)`` stack of 0/1 masks:
    4-connectivity inside a plane, none between planes.

    Returns ``(start, length, label)`` per row run of foreground pixels,
    runs in raster-scan order of the whole stack: the flat index of the
    run's first pixel, its length, and its component, numbered 1..n in
    raster-scan order of each component's first pixel — the numbering a
    raster-scan flood fill gives, which fixes detection order.

    Work is proportional to the foreground.  Each run is joined to the
    runs it overlaps in the row above; the joins are merged by hooking
    the larger of two roots under the smaller and pointer jumping, so a
    component's root is its first run and numbering roots in run order
    reproduces the scan-order numbering.
    """
    _, height, width = planes.shape
    pixel = np.flatnonzero(planes)
    if not len(pixel):
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, empty
    breaks = np.empty(len(pixel), dtype=bool)
    breaks[0] = True
    np.not_equal(np.diff(pixel), 1, out=breaks[1:])
    breaks |= pixel % width == 0
    first = np.flatnonzero(breaks)
    start = pixel[first]
    length = np.diff(first, append=len(pixel))
    # Runs are sorted and disjoint, so the runs overlapping a run's
    # columns one row up are lo .. hi - 1.  The first row of a plane has
    # nothing above it.
    above = start - width
    lo = np.searchsorted(start + length - 1, above)
    hi = np.searchsorted(start, above + length - 1, side="right")
    joins = np.where((start // width) % height != 0, hi - lo, 0)
    runs = np.arange(len(start))
    src = np.repeat(runs, joins)
    dst = np.repeat(lo - np.cumsum(joins) + joins, joins) + np.arange(len(src))
    root = runs.copy()
    while len(src):
        a, b = root[src], root[dst]
        apart = a != b
        src, dst = src[apart], dst[apart]
        np.minimum.at(root, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    return start, length, np.cumsum(root == runs)[root]


def _depicted(detections: list[Detection]) -> list[str]:
    """Distinct categories among *detections*, first-seen order."""
    return list(dict.fromkeys(d.category for d in detections))


def _question_reader(
        question: str) -> Callable[[list[Detection]], object]:
    """Parse *question* into a function from one image's detections to
    its answer."""
    question = question.strip()
    if not question:
        raise OperatorError("empty VQA question", operator="VisualQA")

    def mentioned(phrase: str) -> list[Category]:
        categories = categories_in_phrase(phrase)
        if not categories:
            raise OperatorError(
                f"VQA cannot resolve object in question {question!r}",
                operator="VisualQA")
        return categories

    def all_depicted(categories: list[Category]):
        wanted = {c.name for c in categories}
        return lambda detections: (
            "yes" if wanted <= {d.category for d in detections} else "no")

    for pattern in _COUNT_PATTERNS:
        match = pattern.search(question)
        if match:
            counted = mentioned(match.group("rest"))[0].name
            return lambda detections: sum(
                1 for d in detections if d.category == counted)

    if _WHAT_PATTERN.search(question):
        return lambda detections: ", ".join(_depicted(detections)) or "nothing"

    for pattern in _YESNO_PATTERNS:
        match = pattern.search(question)
        if match:
            return all_depicted(mentioned(match.group("rest")))

    # Fall back: any mentioned category → yes/no on all of them.
    categories = categories_in_phrase(question)
    if categories:
        return all_depicted(categories)
    raise OperatorError(
        f"VQA does not understand question {question!r}",
        operator="VisualQA")
