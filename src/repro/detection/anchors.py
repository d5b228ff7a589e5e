"""Anchor-grid generation for the RPN-like target detection network.

``K`` anchors (scales x aspect ratios) are centred on every cell of the
backbone feature map and expressed in input-image pixel coordinates, as
in Section 3.3 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.detection.boxes import boxes_to_cxcywh


@dataclass(frozen=True)
class AnchorGrid:
    """Anchor boxes over a ``(grid_h, grid_w)`` feature map.

    Parameters
    ----------
    grid_h, grid_w:
        Spatial size of the backbone feature map.
    stride:
        Input pixels per feature-map cell.
    scales:
        Anchor side lengths in input pixels (before aspect adjustment).
    aspect_ratios:
        Height/width ratios; each (scale, ratio) pair yields one anchor.
    """

    grid_h: int
    grid_w: int
    stride: int
    scales: Tuple[float, ...] = (16.0, 32.0, 48.0)
    aspect_ratios: Tuple[float, ...] = (0.5, 1.0, 2.0)

    @property
    def num_anchors_per_cell(self) -> int:
        return len(self.scales) * len(self.aspect_ratios)

    @property
    def num_anchors(self) -> int:
        return self.grid_h * self.grid_w * self.num_anchors_per_cell

    def base_anchors(self) -> np.ndarray:
        """Anchor shapes centred at the origin: ``(K, 4)`` corner boxes."""
        shapes = []
        for scale in self.scales:
            for ratio in self.aspect_ratios:
                # Preserve area scale**2 while applying the aspect ratio.
                width = scale / np.sqrt(ratio)
                height = scale * np.sqrt(ratio)
                shapes.append([-width / 2, -height / 2, width / 2, height / 2])
        return np.asarray(shapes, dtype=np.float64)

    def all_anchors(self) -> np.ndarray:
        """Every anchor in image coordinates: ``(grid_h*grid_w*K, 4)``.

        Ordering is row-major over cells with the K anchors contiguous
        per cell, matching the detection head's output layout.  The grid
        is frozen, so the array is built once and the same read-only
        array is returned on every call.
        """
        return self._anchors

    @cached_property
    def _anchors(self) -> np.ndarray:
        base = self.base_anchors()
        ys = (np.arange(self.grid_h) + 0.5) * self.stride
        xs = (np.arange(self.grid_w) + 0.5) * self.stride
        centers = np.stack(
            [
                np.repeat(xs[None, :], self.grid_h, axis=0),
                np.repeat(ys[:, None], self.grid_w, axis=1),
            ],
            axis=-1,
        ).reshape(-1, 2)  # (cells, 2) as (cx, cy)
        shifts = np.concatenate([centers, centers], axis=-1)  # (cells, 4)
        anchors = (shifts[:, None, :] + base[None, :, :]).reshape(-1, 4)
        anchors.setflags(write=False)
        return anchors

    def anchor_centers(self) -> np.ndarray:
        """:meth:`all_anchors` as ``(cx, cy, w, h)`` rows, built once and
        read-only, for :func:`repro.detection.boxes.decode_centered`."""
        return self._centers

    @cached_property
    def _centers(self) -> np.ndarray:
        centers = boxes_to_cxcywh(self._anchors)
        centers.setflags(write=False)
        return centers

    def cell_index(self, anchor_index: int) -> Tuple[int, int, int]:
        """Map a flat anchor index back to ``(row, col, k)``."""
        k = anchor_index % self.num_anchors_per_cell
        cell = anchor_index // self.num_anchors_per_cell
        return cell // self.grid_w, cell % self.grid_w, k
