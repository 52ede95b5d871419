"""The IMAGE modality object: a raster image backed by a numpy array."""

from __future__ import annotations

import base64
import hashlib

import numpy as np


class Image:
    """An RGB raster image (``uint8``, shape ``(height, width, 3)``).

    Instances populate the ``image`` column of image-collection tables.  The
    simulated vision model (:class:`repro.vision.blip.Blip2Sim`) consumes
    only :attr:`pixels` — never any scene metadata — so information must be
    recovered from the raster itself.
    """

    def __init__(self, pixels: np.ndarray, path: str = ""):
        pixels = np.asarray(pixels)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ValueError(
                f"expected (H, W, 3) RGB array, got shape {pixels.shape}")
        self.pixels = pixels.astype(np.uint8, copy=False)
        self.path = path
        self._fingerprint: str | None = None

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    def copy(self) -> "Image":
        return Image(self.pixels.copy(), path=self.path)

    def fingerprint(self) -> str:
        """Content digest of the raster (answer-cache key component).

        Computed lazily from path, shape, and pixel bytes, then memoized —
        images are immutable by convention, like :class:`~repro.data.table.
        Table` columns.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(self.path.encode("utf-8"))
            digest.update(repr(self.pixels.shape).encode("ascii"))
            digest.update(self.pixels.tobytes())
            self._fingerprint = digest.hexdigest()[:24]
        return self._fingerprint

    def loaded(self) -> "Image":
        """This image with its raster in memory — itself, for an eager
        image.  A reader that wants pixels without making the lake keep
        them (:class:`~repro.vision.renderer.LazyImage`) goes through
        here."""
        return self

    def keyed(self) -> "Image":
        """An equal image whose :meth:`fingerprint` is already memoized.

        When hashing needs the raster anyway (no digest yet) the
        :meth:`loaded` image is returned, so a caller that keys a batch
        and then shows the cache misses to a model renders each lazy
        image once, not twice.
        """
        if self._fingerprint is not None:
            return self
        view = self.loaded()
        self._fingerprint = view.fingerprint()
        return view

    def to_dict(self) -> dict:
        """JSON-safe lossless encoding (raw pixel bytes, base64)."""
        return {
            "path": self.path,
            "height": self.height,
            "width": self.width,
            "pixels_b64": base64.b64encode(self.pixels.tobytes())
                          .decode("ascii"),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Image":
        raw = base64.b64decode(data["pixels_b64"])
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(
            (data["height"], data["width"], 3))
        return cls(pixels.copy(), path=data.get("path", ""))

    def __repr__(self) -> str:
        label = self.path or "unnamed"
        return f"<Image {self.width}x{self.height} {label}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return (self.path == other.path
                and np.array_equal(self.pixels, other.pixels))

    def __hash__(self) -> int:
        return hash((self.path, self.pixels.tobytes()))
