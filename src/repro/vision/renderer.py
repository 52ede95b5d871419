"""Rasterize scene specifications into RGB images.

The background is a muted gray texture (channels in [90, 140) with ±10
jitter).  Each object is drawn as a solid glyph in its category colour with
small per-pixel jitter (±8) — close enough that the simulated vision model's
colour segmentation (tolerance 30) detects it, far enough from every other
category colour (pairwise L∞ ≥ 60) that no confusion is possible.

The kernel draws from one ``default_rng(background_seed)``, in a fixed
order: the gray level per pixel, the jitter per channel, then per glyph
one jitter per set pixel.  Every raster is a function of the scene alone,
and its bytes are pinned (``tests/test_render_kernel.py``): a change to
any of them must bump :data:`RENDER_VERSION`.  A glyph is stamped from
its mask over its bounding box, memoised per (shape, size) and sliced
where the glyph crosses a frame edge.

A lazy image also has a *scene key* (:meth:`LazyImage.map_key`): a digest
of what its raster is rendered from (a lake image's
:class:`~repro.vision.scene.SceneRecipe`), under which a render map (the
``render`` cache space, :mod:`repro.core.answer_cache`) keeps the
raster's digest, so a process that never built the scene nor rendered
the image can still name it.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from repro.vision.image import Image
from repro.vision.scene import CATEGORIES, SceneObject, SceneRecipe, SceneSpec

BACKGROUND_LOW = 90
BACKGROUND_HIGH = 140
COLOR_JITTER = 8

#: Part of every scene key: bump it with any change to this module, to
#: :data:`~repro.vision.scene.CATEGORIES` or to the placement of
#: :func:`~repro.vision.scene.build_scene` that changes a raster, so no
#: render map serves a digest of the old pixels (a recipe's key names
#: only the arguments of ``build_scene``, not the scene they place).
RENDER_VERSION = 1

_TALLY = threading.local()


def renders_in_thread() -> int:
    """How many rasters :func:`render_scene` has made in the calling
    thread; a step reads the difference around its own work."""
    return getattr(_TALLY, "count", 0)


def scene_key(scene: SceneSpec | SceneRecipe, path: str) -> str:
    """Digest of everything the raster of
    ``render_scene(scene.build(), path)`` is made from: *path*, the repr
    of *scene* (a spec, or the recipe that builds one) and
    :data:`RENDER_VERSION`.  The path is length-prefixed, so no two
    (path, scene) pairs share a key; a recipe is keyed without building
    its scene."""
    text = f"{RENDER_VERSION}:{len(path)}:{path}{scene!r}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def render_scene(scene: SceneSpec, path: str = "") -> Image:
    """Render *scene* into an :class:`Image`."""
    _TALLY.count = renders_in_thread() + 1
    rng = np.random.default_rng(scene.background_seed)
    base = rng.integers(BACKGROUND_LOW, BACKGROUND_HIGH,
                        size=(scene.height, scene.width, 1), dtype=np.int16)
    pixels = rng.integers(-10, 11, size=(scene.height, scene.width, 3),
                          dtype=np.int16)
    pixels += base  # in [80, 149]: nothing to clip

    for obj in scene.objects:
        _draw_object(pixels, obj, rng)
    return Image(pixels.astype(np.uint8), path=path)


class LazyImage(Image):
    """An :class:`Image` whose raster is rendered on first pixel access.

    It wraps what its raster is rendered from: a
    :class:`~repro.vision.scene.SceneSpec`, or a
    :class:`~repro.vision.scene.SceneRecipe` whose scene is built only
    when the image renders.  Lake generation stores one of these per
    painting over a recipe (a few dozen bytes), so a scale-1000 image
    collection fits in memory while the scenes and the rasters (12 KB
    each) only ever exist for images a query touches.

    Rendering is deterministic in the scene, so every derived value
    (pixels, :meth:`fingerprint`, ``to_dict``) is byte-identical with the
    eager ``render_scene(scene.build(), path)`` image.
    :meth:`fingerprint` on an un-rendered image hashes a *transient*
    raster and keeps only the digest — a full-lake content fingerprint
    pass stays one-raster-peak instead of materializing the whole
    collection.  Nor is a built scene kept: each render builds it afresh.
    """

    def __init__(self, scene: SceneSpec | SceneRecipe, path: str = ""):
        # Deliberately no super().__init__: pixels is lazy here.
        self._scene = scene  # what the raster is rendered from
        self._pixels: np.ndarray | None = None
        self.path = path
        self._fingerprint: str | None = None
        self._scene_key: str | None = None

    @property
    def pixels(self) -> np.ndarray:
        if self._pixels is None:
            self._pixels = self._render().pixels
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
        twin = self._render()
        twin._fingerprint = self._fingerprint
        return twin

    def _render(self) -> Image:
        return render_scene(self._scene.build(), path=self.path)

    def map_key(self) -> str | None:
        """The :func:`scene_key` while keying this image would render
        it (no digest and no raster yet), else ``None``."""
        if self._fingerprint is not None or self._pixels is not None:
            return None
        if self._scene_key is None:
            self._scene_key = scene_key(self._scene, self.path)
        return self._scene_key

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            if self._pixels is None:
                self.keyed()  # hash a transient twin; keep only the digest
            else:
                super().fingerprint()
        return self._fingerprint


#: Glyph sizes whose stamps are memoised; a larger glyph's stamp is
#: built afresh, so the memo stays under 0.5 MB whatever a scene holds.
STAMP_MAX_SIZE = 32

_STAMPS: dict[tuple[str, int], tuple[np.ndarray, int]] = {}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: Each category's colour as an int16 array.
_COLORS = {name: _read_only(np.array(category.color, dtype=np.int16))
           for name, category in CATEGORIES.items()}


def _draw_object(pixels: np.ndarray, obj: SceneObject,
                 rng: np.random.Generator) -> None:
    category = CATEGORIES[obj.category]
    height, width = pixels.shape[0], pixels.shape[1]
    cx, cy = obj.cx, obj.cy
    stamp, count = _stamp(category.shape, obj.size)
    reach = stamp.shape[0] // 2
    top, left = cy - reach, cx - reach
    r0, r1 = max(top, 0), min(cy + reach + 1, height)
    c0, c1 = max(left, 0), min(cx + reach + 1, width)
    if r0 >= r1 or c0 >= c1:
        return  # wholly outside the frame
    mask = stamp
    if (r1 - r0, c1 - c0) != stamp.shape:  # cut by a frame edge
        mask = stamp[r0 - top:r1 - top, c0 - left:c1 - left]
        count = int(np.count_nonzero(mask))
    if count == 0:
        return
    noise = rng.integers(-COLOR_JITTER, COLOR_JITTER + 1,
                         size=(count, 3), dtype=np.int16)
    noise += _COLORS[obj.category]
    pixels[r0:r1, c0:c1][mask] = np.clip(noise, 0, 255, out=noise)


def _stamp(shape: str, size: int) -> tuple[np.ndarray, int]:
    """The glyph's mask over its whole bounding box (a read-only square
    of side ``2 * reach + 1``, centred on the glyph) and its pixel count,
    memoised per (*shape*, *size*) for the life of the process while
    ``abs(size) <= STAMP_MAX_SIZE``."""
    stamp = _STAMPS.get((shape, size))
    if stamp is None:
        reach = _reach(shape, size)
        side = 2 * reach + 1
        _, _, mask = _glyph_patch(side, side, shape, reach, reach, size)
        stamp = (_read_only(mask), int(np.count_nonzero(mask)))
        if abs(size) <= STAMP_MAX_SIZE:
            stamp = _STAMPS.setdefault((shape, size), stamp)
    return stamp


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
    reach = _reach(shape, size)
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
        thickness = max(1, size // 2)
        vertical = (np.abs(dx) <= thickness) & (np.abs(dy) <= size)
        horizontal = (np.abs(dy) <= thickness) & (np.abs(dx) <= size)
        mask = vertical | horizontal
    elif shape == "triangle":
        mask = ((dy >= -size) & (dy <= size)
                & (np.abs(dx) <= (dy + size) / 2.0))
    else:
        raise ValueError(f"unknown glyph shape {shape!r}")
    return rows, columns, mask


def _reach(shape: str, size: int) -> int:
    """How far from its centre a glyph's pixels may lie."""
    if shape == "cross":
        return max(abs(size), max(1, size // 2))
    return abs(size)
