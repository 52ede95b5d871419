"""Vision substrate: synthetic raster images + simulated BLIP-2 model."""

from repro.vision.blip import Blip2Sim, Detection
from repro.vision.image import Image
from repro.vision.renderer import LazyImage, glyph_mask, render_scene
from repro.vision.scene import (CATEGORIES, Category, SceneObject,
                                SceneRecipe, SceneSpec, build_scene,
                                categories_in_phrase, category_for_word)

__all__ = [
    "Blip2Sim",
    "CATEGORIES",
    "Category",
    "Detection",
    "Image",
    "LazyImage",
    "SceneObject",
    "SceneRecipe",
    "SceneSpec",
    "build_scene",
    "categories_in_phrase",
    "category_for_word",
    "glyph_mask",
    "render_scene",
]
