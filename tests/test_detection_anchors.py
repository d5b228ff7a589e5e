"""Anchor grid generation."""

import numpy as np
import pytest

from repro.detection import AnchorGrid


@pytest.fixture
def grid():
    return AnchorGrid(grid_h=4, grid_w=6, stride=8, scales=(16.0,), aspect_ratios=(1.0, 2.0))


def test_counts(grid):
    assert grid.num_anchors_per_cell == 2
    assert grid.num_anchors == 4 * 6 * 2
    assert len(grid.all_anchors()) == grid.num_anchors


def test_base_anchor_area_preserved():
    grid = AnchorGrid(2, 2, 8, scales=(16.0,), aspect_ratios=(0.5, 1.0, 2.0))
    base = grid.base_anchors()
    areas = (base[:, 2] - base[:, 0]) * (base[:, 3] - base[:, 1])
    assert np.allclose(areas, 16.0**2)


def test_aspect_ratios_applied():
    grid = AnchorGrid(1, 1, 8, scales=(16.0,), aspect_ratios=(2.0,))
    base = grid.base_anchors()[0]
    width, height = base[2] - base[0], base[3] - base[1]
    assert np.isclose(height / width, 2.0)


def test_anchors_centred_on_cells(grid):
    anchors = grid.all_anchors()
    first = anchors[0]
    cx = (first[0] + first[2]) / 2
    cy = (first[1] + first[3]) / 2
    assert np.isclose(cx, 4.0) and np.isclose(cy, 4.0)  # (0.5 * stride)


def test_row_major_ordering(grid):
    anchors = grid.all_anchors()
    k = grid.num_anchors_per_cell
    # Second cell (row 0, col 1) is centred one stride to the right.
    second_cell = anchors[k]
    assert np.isclose((second_cell[0] + second_cell[2]) / 2, 12.0)


def test_all_anchors_built_once_and_read_only(grid):
    anchors = grid.all_anchors()
    assert grid.all_anchors() is anchors
    assert not anchors.flags.writeable
    with pytest.raises(ValueError):
        anchors[0, 0] = 0.0


def test_cell_index_roundtrip(grid):
    for flat in (0, 7, grid.num_anchors - 1):
        row, col, k = grid.cell_index(flat)
        assert 0 <= row < grid.grid_h
        assert 0 <= col < grid.grid_w
        assert flat == (row * grid.grid_w + col) * grid.num_anchors_per_cell + k
