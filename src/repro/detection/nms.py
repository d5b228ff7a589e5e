"""Greedy non-maximum suppression (used by the two-stage proposal stage)."""

from __future__ import annotations

import numpy as np

from repro.detection.boxes import iou_matrix


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.5,
        max_keep: int = None) -> np.ndarray:
    """Return indices of kept boxes, sorted by descending score.

    Tied scores keep their index order, so the first kept index is
    ``scores.argmax()``.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if len(boxes) == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-scores, kind="stable")
    if max_keep == 1:  # the best box is always kept: skip the n x n IoUs
        return order[:1].astype(np.int64)
    ious = iou_matrix(boxes, boxes)
    keep = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(idx)
        if max_keep is not None and len(keep) >= max_keep:
            break
        suppressed |= ious[idx] > iou_threshold
        suppressed[idx] = True
    return np.asarray(keep, dtype=np.int64)
