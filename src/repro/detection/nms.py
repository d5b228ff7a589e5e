"""Greedy non-maximum suppression.

Used by YOLLO's ranked decode (``YolloModel.predict_ranked`` and
``predict``) and by the two-stage RPN proposal stage
(``RPNProposer.propose``).  Whether a box is kept depends only on the
boxes scored above it, so NMS over a score-ordered prefix keeps what
NMS over the whole list keeps within that prefix; the ranked decode
relies on this to decode only the prefix it needs
(``YolloModel._rank_sample``).  IoU rows are computed only for boxes that
can still be kept: when a kept box has no row yet, one ``iou_matrix``
call covers it and the next live candidates that could fill the
remaining ``max_keep`` slots.  Each call is at most ``(max_keep - 1, n)``
and no row is computed twice, so the cost is O(max_keep * n) per call
and O(rows * n) overall with ``rows <= n`` — far below the full n x n
matrix when ``max_keep`` is small next to n (the ranked decode keeps 5
of a prefix of 40 anchors, the RPN 20 of its 80 best).  ``max_keep=None``
may keep every box, so it builds the full matrix in one call.
"""

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
    limit = len(boxes) if max_keep is None else max_keep
    keep = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    rows = {}
    for pos, idx in enumerate(order.tolist()):
        if suppressed[idx]:
            continue
        keep.append(idx)
        if len(keep) >= limit:
            break
        if idx not in rows:
            # This box and the next live candidates that could still be
            # kept; the last slot never needs a row.
            live = order[pos:][~suppressed[order[pos:]]][: limit - len(keep)]
            rows = dict(zip(live.tolist(), iou_matrix(boxes[live], boxes)))
        suppressed |= rows[idx] > iou_threshold
        suppressed[idx] = True
    return np.asarray(keep, dtype=np.int64)
