"""Bounding-box primitives.

Boxes are numpy arrays of shape ``(..., 4)`` in ``(x1, y1, x2, y2)``
corner format with pixel coordinates; ``x2``/``y2`` are exclusive-ish
continuous coordinates (no +1 convention).  Offset encoding follows the
Faster R-CNN parameterisation the paper adopts for its RPN-like head.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-8
#: Clamp on the log width/height offsets :func:`decode_offsets` applies.
MAX_LOG_WH = 4.0


def box_area(boxes: np.ndarray) -> np.ndarray:
    """Area of each box; degenerate boxes get zero area."""
    boxes = np.asarray(boxes, dtype=np.float64)
    width = np.clip(boxes[..., 2] - boxes[..., 0], 0.0, None)
    height = np.clip(boxes[..., 3] - boxes[..., 1], 0.0, None)
    return width * height


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between ``(m, 4)`` and ``(n, 4)`` boxes → ``(m, n)``."""
    boxes_a = np.atleast_2d(np.asarray(boxes_a, dtype=np.float64))
    boxes_b = np.atleast_2d(np.asarray(boxes_b, dtype=np.float64))
    left = np.maximum(boxes_a[:, None, 0], boxes_b[None, :, 0])
    top = np.maximum(boxes_a[:, None, 1], boxes_b[None, :, 1])
    right = np.minimum(boxes_a[:, None, 2], boxes_b[None, :, 2])
    bottom = np.minimum(boxes_a[:, None, 3], boxes_b[None, :, 3])
    intersection = np.clip(right - left, 0.0, None) * np.clip(bottom - top, 0.0, None)
    union = box_area(boxes_a)[:, None] + box_area(boxes_b)[None, :] - intersection
    return intersection / np.maximum(union, _EPS)


def clip_boxes(boxes: np.ndarray, height: float, width: float) -> np.ndarray:
    """Clip boxes to image bounds ``[0, width] x [0, height]``."""
    boxes = np.asarray(boxes, dtype=np.float64).copy()
    boxes[..., 0] = np.clip(boxes[..., 0], 0.0, width)
    boxes[..., 2] = np.clip(boxes[..., 2], 0.0, width)
    boxes[..., 1] = np.clip(boxes[..., 1], 0.0, height)
    boxes[..., 3] = np.clip(boxes[..., 3], 0.0, height)
    return boxes


def boxes_to_cxcywh(boxes: np.ndarray) -> np.ndarray:
    """Convert corner boxes to ``(cx, cy, w, h)``."""
    boxes = np.asarray(boxes, dtype=np.float64)
    width = boxes[..., 2] - boxes[..., 0]
    height = boxes[..., 3] - boxes[..., 1]
    cx = boxes[..., 0] + 0.5 * width
    cy = boxes[..., 1] + 0.5 * height
    return np.stack([cx, cy, width, height], axis=-1)


def cxcywh_to_boxes(boxes: np.ndarray) -> np.ndarray:
    """Convert ``(cx, cy, w, h)`` boxes to corner format."""
    boxes = np.asarray(boxes, dtype=np.float64)
    half_w = 0.5 * boxes[..., 2]
    half_h = 0.5 * boxes[..., 3]
    return np.stack(
        [
            boxes[..., 0] - half_w,
            boxes[..., 1] - half_h,
            boxes[..., 0] + half_w,
            boxes[..., 1] + half_h,
        ],
        axis=-1,
    )


def encode_offsets(anchors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Encode target boxes as offsets relative to anchors (Faster R-CNN).

    ``t_x = (cx - cx_a) / w_a``, ``t_w = log(w / w_a)`` and analogously
    for y/h.  Both inputs are corner-format ``(..., 4)`` arrays.
    """
    anchor_c = boxes_to_cxcywh(anchors)
    target_c = boxes_to_cxcywh(targets)
    tx = (target_c[..., 0] - anchor_c[..., 0]) / np.maximum(anchor_c[..., 2], _EPS)
    ty = (target_c[..., 1] - anchor_c[..., 1]) / np.maximum(anchor_c[..., 3], _EPS)
    tw = np.log(np.maximum(target_c[..., 2], _EPS) / np.maximum(anchor_c[..., 2], _EPS))
    th = np.log(np.maximum(target_c[..., 3], _EPS) / np.maximum(anchor_c[..., 3], _EPS))
    return np.stack([tx, ty, tw, th], axis=-1)


def decode_offsets(anchors: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Apply predicted offsets to anchors, inverting :func:`encode_offsets`.

    :data:`MAX_LOG_WH` clamps the exponent so early-training garbage
    cannot overflow to astronomically large boxes.
    """
    return decode_centered(boxes_to_cxcywh(anchors), offsets)


def decode_centered(anchor_c: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """:func:`decode_offsets` for anchors given as ``(cx, cy, w, h)``,
    which a fixed grid converts once (:meth:`AnchorGrid.anchor_centers`).
    Every box is decoded from its own row alone, so decoding a subset of
    rows gives those rows' bytes of decoding them all."""
    offsets = np.asarray(offsets, dtype=np.float64)
    cx = anchor_c[..., 0] + offsets[..., 0] * anchor_c[..., 2]
    cy = anchor_c[..., 1] + offsets[..., 1] * anchor_c[..., 3]
    w = anchor_c[..., 2] * np.exp(np.clip(offsets[..., 2], -MAX_LOG_WH, MAX_LOG_WH))
    h = anchor_c[..., 3] * np.exp(np.clip(offsets[..., 3], -MAX_LOG_WH, MAX_LOG_WH))
    return cxcywh_to_boxes(np.stack([cx, cy, w, h], axis=-1))
