"""Rasterise scenes to RGB arrays (the synthetic stand-in for MS-COCO images).

Each category renders as a distinct filled glyph in the object's colour,
so a small CNN can recover category (shape), colour, size and position —
exactly the attribute classes the referring-expression grammar uses.
Images are ``(3, H, W)`` arrays in ``[0, 1]``, in the compute dtype
(float32), with light sensor noise and a dark textured background.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.autograd import get_default_dtype
from repro.data.scenes import COLOR_VALUES, Scene, SceneObject
from repro.utils.seeding import spawn_rng

#: Standard deviation of the Gaussian sensor noise on every render.
NOISE_STD = 0.02


def _normalized_grid(height: int, width: int):
    """Coordinate grids in [-1, 1] spanning the glyph's bounding box."""
    ys = np.linspace(-1.0, 1.0, height)[:, None] * np.ones((1, width))
    xs = np.linspace(-1.0, 1.0, width)[None, :] * np.ones((height, 1))
    return xs, ys


def _glyph_circle(h: int, w: int) -> np.ndarray:
    xs, ys = _normalized_grid(h, w)
    return xs**2 + ys**2 <= 1.0


def _glyph_vertical_capsule(h: int, w: int) -> np.ndarray:
    """Person: narrow vertical ellipse body plus a head blob on top."""
    xs, ys = _normalized_grid(h, w)
    body = (xs / 0.55) ** 2 + ((ys - 0.25) / 0.75) ** 2 <= 1.0
    head = (xs / 0.35) ** 2 + ((ys + 0.65) / 0.35) ** 2 <= 1.0
    return body | head


def _glyph_horizontal_rect(h: int, w: int) -> np.ndarray:
    """Car: wide rectangle body with a flat cabin bump."""
    xs, ys = _normalized_grid(h, w)
    body = (np.abs(xs) <= 0.95) & (ys >= -0.1) & (ys <= 0.9)
    cabin = (np.abs(xs) <= 0.5) & (ys >= -0.8) & (ys < -0.1)
    return body | cabin


def _glyph_horizontal_ellipse(h: int, w: int) -> np.ndarray:
    xs, ys = _normalized_grid(h, w)
    return (xs / 0.95) ** 2 + (ys / 0.6) ** 2 <= 1.0


def _glyph_square(h: int, w: int) -> np.ndarray:
    xs, ys = _normalized_grid(h, w)
    return (np.abs(xs) <= 0.8) & (np.abs(ys) <= 0.8)


def _glyph_cross(h: int, w: int) -> np.ndarray:
    xs, ys = _normalized_grid(h, w)
    return (np.abs(xs) <= 0.3) | (np.abs(ys) <= 0.3)


def _glyph_triangle(h: int, w: int) -> np.ndarray:
    xs, ys = _normalized_grid(h, w)
    return (ys >= -0.9) & (np.abs(xs) <= (ys + 0.9) / 1.9)


def _glyph_diamond(h: int, w: int) -> np.ndarray:
    xs, ys = _normalized_grid(h, w)
    return np.abs(xs) + np.abs(ys) <= 1.0


def _glyph_truck(h: int, w: int) -> np.ndarray:
    """Truck: tall box trailer with a shorter cab at the front."""
    xs, ys = _normalized_grid(h, w)
    trailer = (xs >= -0.95) & (xs <= 0.45) & (ys >= -0.85) & (ys <= 0.9)
    cab = (xs > 0.45) & (xs <= 0.95) & (ys >= -0.2) & (ys <= 0.9)
    return trailer | cab


def _glyph_cone(h: int, w: int) -> np.ndarray:
    """Traffic cone: narrow triangle on a flat base strip."""
    xs, ys = _normalized_grid(h, w)
    body = (ys >= -0.9) & (ys <= 0.6) & (np.abs(xs) <= 0.15 + 0.5 * (ys + 0.9) / 1.5)
    base = (ys > 0.6) & (ys <= 0.9) & (np.abs(xs) <= 0.85)
    return body | base


#: Category name -> glyph mask factory.
GLYPHS: Dict[str, Callable[[int, int], np.ndarray]] = {
    "person": _glyph_vertical_capsule,
    "car": _glyph_horizontal_rect,
    "dog": _glyph_horizontal_ellipse,
    "ball": _glyph_circle,
    "cup": _glyph_square,
    "chair": _glyph_cross,
    "plant": _glyph_triangle,
    "lamp": _glyph_diamond,
    # Driving-scenario categories (repro.scenarios.driving).
    "truck": _glyph_truck,
    "cone": _glyph_cone,
}


def render_object(canvas: np.ndarray, obj: SceneObject) -> None:
    """Paint ``obj`` onto a ``(3, H, W)`` canvas in place."""
    _, canvas_h, canvas_w = canvas.shape
    x1 = int(np.clip(np.floor(obj.box[0]), 0, canvas_w - 1))
    y1 = int(np.clip(np.floor(obj.box[1]), 0, canvas_h - 1))
    x2 = int(np.clip(np.ceil(obj.box[2]), x1 + 1, canvas_w))
    y2 = int(np.clip(np.ceil(obj.box[3]), y1 + 1, canvas_h))
    glyph = GLYPHS[obj.category](y2 - y1, x2 - x1)
    color = np.asarray(COLOR_VALUES[obj.color])
    region = canvas[:, y1:y2, x1:x2]
    region[:, glyph] = color[:, None]


def render_scene(scene: Scene, rng: np.random.Generator = None) -> np.ndarray:
    """Render a scene to a ``(3, H, W)`` image in ``[0, 1]``.

    The background is a dim horizontal gradient (so absolute position is
    weakly visible to the CNN, as in natural photographs) plus Gaussian
    sensor noise of standard deviation :data:`NOISE_STD`.  The scene is
    painted, noised and clipped in place on one float64 canvas, and only
    the result is rounded to the compute dtype: each pixel is the
    rounding of the float64 pixel, and no float64 temporary outlives the
    call.
    """
    rng = rng if rng is not None else spawn_rng("render")
    canvas = np.zeros((3, scene.height, scene.width))
    gradient = np.linspace(0.08, 0.16, scene.width)[None, None, :]
    canvas += gradient
    for obj in scene.objects:
        render_object(canvas, obj)
    if NOISE_STD > 0:
        canvas += rng.normal(0.0, NOISE_STD, size=canvas.shape)
    np.clip(canvas, 0.0, 1.0, out=canvas)
    return canvas.astype(get_default_dtype())
