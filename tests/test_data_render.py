"""Scene rasterisation."""

import numpy as np
import pytest

from repro.data import COLOR_VALUES, Scene, SceneGenerator, SceneObject
from repro.data import render
from repro.data.render import GLYPHS, render_object, render_scene


def render_scene_float64(scene, noise_std=0.02, rng=None):
    """Reference render kept in float64 from canvas to clip."""
    canvas = np.zeros((3, scene.height, scene.width))
    canvas += np.linspace(0.08, 0.16, scene.width)[None, None, :]
    for obj in scene.objects:
        render_object(canvas, obj)
    if noise_std > 0:
        canvas = canvas + rng.normal(0.0, noise_std, size=canvas.shape)
    return np.clip(canvas, 0.0, 1.0)


def scene_with(category="ball", color="red", box=(10, 10, 30, 30)):
    obj = SceneObject(category=category, color=color, box=np.asarray(box, dtype=float))
    return Scene(48, 72, [obj])


def test_output_shape_and_range():
    image = render_scene(scene_with(), rng=np.random.default_rng(0))
    assert image.shape == (3, 48, 72)
    assert image.min() >= 0.0 and image.max() <= 1.0


def test_object_pixels_take_color(monkeypatch):
    monkeypatch.setattr(render, "NOISE_STD", 0.0)
    image = render_scene(scene_with("cup", "blue"))
    center = image[:, 20, 20]
    assert np.allclose(center, COLOR_VALUES["blue"])


def test_background_darker_than_objects(monkeypatch):
    monkeypatch.setattr(render, "NOISE_STD", 0.0)
    image = render_scene(scene_with(color="white"))
    assert image[:, 0, 0].mean() < 0.2


def test_every_category_has_distinct_glyph():
    masks = {name: fn(16, 16) for name, fn in GLYPHS.items()}
    names = list(masks)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            assert not np.array_equal(masks[names[i]], masks[names[j]])


def test_glyphs_nonempty_at_small_sizes():
    for name, fn in GLYPHS.items():
        assert fn(8, 8).sum() > 0, name


def test_render_object_clips_to_canvas():
    canvas = np.zeros((3, 20, 20))
    obj = SceneObject("ball", "red", np.array([15.0, 15.0, 30.0, 30.0]))
    render_object(canvas, obj)  # must not raise
    assert canvas.sum() > 0


def test_determinism_with_seeded_rng():
    a = render_scene(scene_with(), rng=np.random.default_rng(5))
    b = render_scene(scene_with(), rng=np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_noise_controlled_by_std(monkeypatch):
    monkeypatch.setattr(render, "NOISE_STD", 0.0)
    clean = render_scene(scene_with())
    monkeypatch.setattr(render, "NOISE_STD", 0.05)
    noisy = render_scene(scene_with(), rng=np.random.default_rng(1))
    assert not np.array_equal(clean, noisy)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("noise_std", [0.0, 0.02, 0.3])
def test_image_is_the_float32_rounding_of_the_float64_render(seed, noise_std,
                                                            monkeypatch):
    monkeypatch.setattr(render, "NOISE_STD", noise_std)
    generator = SceneGenerator(rng=np.random.default_rng(seed))
    for index in range(4):
        scene = generator.generate()
        image = render_scene(scene, rng=np.random.default_rng([seed, index]))
        reference = render_scene_float64(scene, noise_std=noise_std,
                                         rng=np.random.default_rng([seed, index]))
        assert image.dtype == np.float32
        assert image.tobytes() == reference.astype(np.float32).tobytes()
