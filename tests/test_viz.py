"""Visualisation: ASCII renderings and PPM output."""

import numpy as np
import pytest

from repro.viz import (
    draw_box,
    overlay_attention,
    render_attention_ascii,
    save_ppm,
)
from repro.viz import ascii as ascii_module


@pytest.fixture
def image(rng):
    return rng.random((3, 24, 36))


class TestAsciiAttention:
    def test_dimensions(self):
        art = render_attention_ascii(np.random.default_rng(0).random((4, 6)))
        lines = art.splitlines()
        assert len(lines) == 4
        assert all(len(line) == 12 for line in lines)

    def test_hot_cell_uses_darker_char(self, monkeypatch):
        monkeypatch.setattr(ascii_module, "CELL_WIDTH", 1)
        attention = np.zeros((3, 3))
        attention[1, 1] = 1.0
        art = render_attention_ascii(attention)
        assert art.splitlines()[1][1] == "@"

    def test_box_markers_drawn(self):
        art = render_attention_ascii(np.zeros((4, 6)), box=np.array([8, 8, 24, 24]),
                                     stride=8.0)
        assert "[" in art and "]" in art

    def test_constant_map_no_crash(self):
        render_attention_ascii(np.ones((3, 3)))


class TestPPM:
    def test_file_format(self, image, tmp_path):
        path = str(tmp_path / "out.ppm")
        save_ppm(path, image)
        with open(path, "rb") as handle:
            header = handle.readline()
            dims = handle.readline()
            maxval = handle.readline()
            payload = handle.read()
        assert header.strip() == b"P6"
        assert dims.strip() == b"36 24"
        assert maxval.strip() == b"255"
        assert len(payload) == 24 * 36 * 3

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            save_ppm(str(tmp_path / "x.ppm"), np.zeros((24, 36)))

    def test_values_clipped(self, tmp_path):
        path = str(tmp_path / "clip.ppm")
        save_ppm(path, np.full((3, 2, 2), 5.0))
        with open(path, "rb") as handle:
            handle.readline(); handle.readline(); handle.readline()
            assert set(handle.read()) == {255}


class TestOverlayAndBox:
    def test_overlay_shape_and_range(self, image):
        out = overlay_attention(image, np.random.default_rng(1).random((4, 6)))
        assert out.shape == image.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_overlay_boosts_red_at_hot_spot(self, image):
        attention = np.zeros((4, 6))
        attention[0, 0] = 1.0
        out = overlay_attention(image * 0.0, attention)
        assert out[0, 0, 0] > out[1, 0, 0]

    def test_draw_box_edges(self, image):
        out = draw_box(image, np.array([4.0, 4.0, 12.0, 12.0]), color=(1.0, 0.0, 0.0))
        assert np.allclose(out[:, 4, 8], [1.0, 0.0, 0.0])
        assert not np.allclose(out[:, 8, 8], [1.0, 0.0, 0.0])

    def test_draw_box_does_not_mutate(self, image):
        before = image.copy()
        draw_box(image, np.array([0.0, 0.0, 10.0, 10.0]))
        assert np.array_equal(image, before)

    def test_draw_box_clips(self, image):
        out = draw_box(image, np.array([-10.0, -10.0, 100.0, 100.0]))
        assert out.shape == image.shape
