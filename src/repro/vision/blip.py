"""Simulated BLIP-2: Visual Question Answering and image-select over rasters.

The real CAESURA prototype uses BLIP-2 [Li et al., 2023] for its VisualQA
and Image Select operators.  This simulator reproduces the operator
*contract* — (image, natural-language question) → typed answer — with a
pixel-level detector:

1. colour segmentation: per category, mask pixels within L∞ tolerance of the
   category colour;
2. connected-component labelling (``scipy.ndimage.label``);
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
from scipy import ndimage

from repro.errors import OperatorError
from repro.vision.image import Image
from repro.vision.scene import CATEGORIES, Category, categories_in_phrase

COLOR_TOLERANCE = 30
MIN_COMPONENT_AREA = 5

#: Rasters segmented per stacked pass.  The label planes, not the pixels,
#: are what a pass allocates (a few per raster, 24 KB each at 64 x 64), so
#: this bounds the transient at about 2 MB; larger stacks are no faster.
SEGMENT_CHUNK = 16
#: Images whose detections one model keeps (well under 1 KB each).
MEMO_IMAGES = 2048

#: 4-connectivity inside a raster, none between the rasters of a stack.
_IN_PLANE = np.zeros((3, 3, 3), dtype=bool)
_IN_PLANE[1] = ndimage.generate_binary_structure(2, 1)

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
        self._shifts = np.arange(len(self._categories), dtype=np.uint16)
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
        :meth:`Image.loaded` so a lazy lake image never keeps its pixels."""
        memo = self._memo
        fingerprints = [image.fingerprint() for image in images]
        found: dict[str, tuple[Detection, ...]] = {}
        unseen: dict[str, Image] = {}
        for fingerprint, image in zip(fingerprints, images):
            if fingerprint in memo:
                memo.move_to_end(fingerprint)
                found[fingerprint] = memo[fingerprint]
            else:
                unseen[fingerprint] = image
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
        bits = red[stack[..., 0]] & green[stack[..., 1]] & blue[stack[..., 2]]
        present = np.bitwise_or.reduce(bits.reshape(count, -1), axis=1)
        # One plane per (raster, category whose bit occurs in it), labelled
        # in a single call; labels come out plane by plane, scan order.
        raster_of, category_of = np.nonzero(
            (present[:, None] >> self._shifts) & 1)
        if not len(raster_of):
            return [()] * count
        planes = (bits[raster_of]
                  >> self._shifts[category_of][:, None, None]) & 1
        labelled, components = ndimage.label(planes, structure=_IN_PLANE)
        flat = labelled.ravel()
        pixel = np.flatnonzero(flat)
        label = flat[pixel]
        plane, offset = np.divmod(pixel, height * width)
        ys, xs = np.divmod(offset, width)
        area = np.bincount(label, minlength=components + 1)
        sum_x = np.bincount(label, weights=xs, minlength=components + 1)
        sum_y = np.bincount(label, weights=ys, minlength=components + 1)
        plane_of = np.zeros(components + 1, dtype=np.intp)
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
