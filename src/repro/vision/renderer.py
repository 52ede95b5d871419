"""Rasterize scene specifications into RGB images.

The background is a muted gray texture (channels in [90, 140] with ±10
jitter).  Each object is drawn as a solid glyph in its category colour with
small per-pixel jitter (±8) — close enough that the simulated vision model's
colour segmentation (tolerance 30) detects it, far enough from every other
category colour (pairwise L∞ ≥ 60) that no confusion is possible.
"""

from __future__ import annotations

import numpy as np

from repro.vision.image import Image
from repro.vision.scene import CATEGORIES, SceneObject, SceneSpec

BACKGROUND_LOW = 90
BACKGROUND_HIGH = 140
COLOR_JITTER = 8


def render_scene(scene: SceneSpec, path: str = "") -> Image:
    """Render *scene* into an :class:`Image`."""
    rng = np.random.default_rng(scene.background_seed)
    base = rng.integers(BACKGROUND_LOW, BACKGROUND_HIGH,
                        size=(scene.height, scene.width, 1), dtype=np.int16)
    jitter = rng.integers(-10, 11, size=(scene.height, scene.width, 3),
                          dtype=np.int16)
    pixels = np.clip(base + jitter, 0, 255)

    for obj in scene.objects:
        _draw_object(pixels, obj, rng)
    return Image(pixels.astype(np.uint8), path=path)


class LazyImage(Image):
    """An :class:`Image` whose raster is rendered on first pixel access.

    Streaming lake generation stores one of these per painting instead of
    an eagerly rendered raster: the scene spec it wraps is a few dozen
    bytes, so a scale-1000 image collection fits in memory while the
    rasters (12 KB each) only ever exist for images a query touches.

    Rendering is deterministic in the scene spec, so every derived value
    (pixels, :meth:`fingerprint`, ``to_dict``) is byte-identical with the
    eager ``render_scene(scene, path)`` image.  :meth:`fingerprint` on an
    un-rendered image hashes a *transient* raster and keeps only the
    digest — a full-lake content fingerprint pass stays one-raster-peak
    instead of materializing the whole collection.
    """

    def __init__(self, scene: SceneSpec, path: str = ""):
        # Deliberately no super().__init__: pixels is lazy here.
        self._scene = scene
        self._pixels: np.ndarray | None = None
        self.path = path
        self._fingerprint: str | None = None

    @property
    def pixels(self) -> np.ndarray:
        if self._pixels is None:
            self._pixels = render_scene(self._scene, path=self.path).pixels
        return self._pixels

    @property
    def rendered(self) -> bool:
        """Whether the raster has been materialized (tests/telemetry)."""
        return self._pixels is not None

    @property
    def height(self) -> int:
        return self._scene.height

    @property
    def width(self) -> int:
        return self._scene.width

    def loaded(self) -> Image:
        """The rendered image; a transient eager twin while this one is
        un-rendered, so the lake never retains a raster for a reader."""
        if self._pixels is not None:
            return self
        twin = render_scene(self._scene, path=self.path)
        twin._fingerprint = self._fingerprint
        return twin

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            if self._pixels is None:
                self.keyed()  # hash a transient twin; keep only the digest
            else:
                super().fingerprint()
        return self._fingerprint


def _draw_object(pixels: np.ndarray, obj: SceneObject,
                 rng: np.random.Generator) -> None:
    category = CATEGORIES[obj.category]
    rows, columns, mask = _glyph_patch(pixels.shape[0], pixels.shape[1],
                                       category.shape, obj.cx, obj.cy,
                                       obj.size)
    count = int(mask.sum())
    if count == 0:
        return
    color = np.array(category.color, dtype=np.int16)
    noise = rng.integers(-COLOR_JITTER, COLOR_JITTER + 1,
                         size=(count, 3), dtype=np.int16)
    pixels[rows, columns][mask] = np.clip(color[None, :] + noise, 0, 255)


def glyph_mask(height: int, width: int, shape: str,
               cx: int, cy: int, size: int) -> np.ndarray:
    """Boolean mask of the glyph footprint (shared with tests)."""
    rows, columns, patch = _glyph_patch(height, width, shape, cx, cy, size)
    mask = np.zeros((height, width), dtype=bool)
    mask[rows, columns] = patch
    return mask


def _glyph_patch(height: int, width: int, shape: str, cx: int, cy: int,
                 size: int) -> tuple[slice, slice, np.ndarray]:
    """The glyph inside its bounding box, clipped to the frame.

    Returns ``(rows, columns, mask)`` with ``mask`` covering
    ``frame[rows, columns]``.  No glyph reaches further than *reach*
    pixels from its centre, so everything outside the box is background
    and the row-major order of the set pixels is that of the whole frame.
    """
    thickness = max(1, size // 2)
    reach = max(abs(size), thickness) if shape == "cross" else abs(size)
    rows = slice(max(cy - reach, 0), max(min(cy + reach + 1, height), 0))
    columns = slice(max(cx - reach, 0), max(min(cx + reach + 1, width), 0))
    dy = np.arange(rows.start, rows.stop)[:, None] - cy
    dx = np.arange(columns.start, columns.stop)[None, :] - cx
    if shape == "circle":
        mask = dx * dx + dy * dy <= size * size
    elif shape == "square":
        mask = (np.abs(dx) <= size) & (np.abs(dy) <= size)
    elif shape == "diamond":
        mask = np.abs(dx) + np.abs(dy) <= size
    elif shape == "cross":
        vertical = (np.abs(dx) <= thickness) & (np.abs(dy) <= size)
        horizontal = (np.abs(dy) <= thickness) & (np.abs(dx) <= size)
        mask = vertical | horizontal
    elif shape == "triangle":
        mask = ((dy >= -size) & (dy <= size)
                & (np.abs(dx) <= (dy + size) / 2.0))
    else:
        raise ValueError(f"unknown glyph shape {shape!r}")
    return rows, columns, mask
