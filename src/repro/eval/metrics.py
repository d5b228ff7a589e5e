"""Grounding metrics: ACC@eta, the ACC sweep, and mean IoU (Section 4.3).

``evaluate_grounder`` works with anything speaking the grounder
protocol: a callable mapping a list of :class:`GroundingSample` to one
best-first :class:`~repro.core.GroundingResponse` per sample, scored by
its ``top_box``.  YOLLO, the two-stage baselines and the serving stack
all speak it, so every table uses one evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.response import GroundingResponse
from repro.data.refcoco import GroundingSample
from repro.detection import box_area, iou_matrix

#: Samples per grounder call in :func:`evaluate_grounder`.
EVAL_BATCH_SIZE = 32
#: The ``k`` and IoU threshold of :func:`recall_by_clause_depth`'s recall@k.
DEPTH_RECALL_K = 1
DEPTH_RECALL_IOU = 0.5

#: The IoU thresholds of the COCO-style ACC metric (0.5:0.05:0.95).
SWEEP_THRESHOLDS = tuple(np.arange(0.5, 0.96, 0.05).round(2))

GrounderFn = Callable[[Sequence[GroundingSample]], List[GroundingResponse]]


def pairwise_ious(predicted: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """IoU of each predicted box with its own target: ``(n,)``.

    One vectorised pass over the aligned pairs — no per-sample Python
    loop, and no ``(n, n)`` matrix of which only the diagonal is used.
    """
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1, 4)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 4)
    if predicted.shape != targets.shape:
        raise ValueError("predicted and target boxes must align one-to-one")
    left = np.maximum(predicted[:, 0], targets[:, 0])
    top = np.maximum(predicted[:, 1], targets[:, 1])
    right = np.minimum(predicted[:, 2], targets[:, 2])
    bottom = np.minimum(predicted[:, 3], targets[:, 3])
    intersection = np.clip(right - left, 0.0, None) * np.clip(bottom - top, 0.0, None)
    union = box_area(predicted) + box_area(targets) - intersection
    return intersection / np.maximum(union, 1e-8)


def accuracy_at_iou(ious: np.ndarray, threshold: float = 0.5) -> float:
    """Fraction of predictions with IoU >= ``threshold`` (ACC@eta).

    The comparison is inclusive: the paper defines ACC@eta as the
    fraction of predictions whose IoU reaches the threshold, so a
    prediction at exactly IoU = eta counts as a hit.
    """
    ious = np.asarray(ious)
    return float((ious >= threshold).mean()) if len(ious) else 0.0


def accuracy_sweep(ious: np.ndarray) -> float:
    """COCO-style averaged accuracy over thresholds 0.5:0.05:0.95."""
    return float(np.mean([accuracy_at_iou(ious, t) for t in SWEEP_THRESHOLDS]))


def mean_iou(ious: np.ndarray) -> float:
    """MIoU: the plain average IoU over the dataset."""
    ious = np.asarray(ious)
    return float(ious.mean()) if len(ious) else 0.0


@dataclass
class MetricReport:
    """All Table-3 metrics for one evaluation run."""

    acc: float
    acc_at_50: float
    acc_at_75: float
    miou: float
    ious: np.ndarray = field(repr=False, default=None)

    def as_dict(self) -> Dict[str, float]:
        return {
            "ACC": self.acc,
            "ACC@0.5": self.acc_at_50,
            "ACC@0.75": self.acc_at_75,
            "MIOU": self.miou,
        }


def evaluate_grounder(grounder: GrounderFn,
                      samples: Sequence[GroundingSample]) -> MetricReport:
    """Run a grounder over samples and score each response's top box."""
    predicted: List[np.ndarray] = []
    for start in range(0, len(samples), EVAL_BATCH_SIZE):
        chunk = list(samples[start : start + EVAL_BATCH_SIZE])
        predicted.extend(response.top_box for response in grounder(chunk))
    targets = np.stack([s.target_box for s in samples]) if samples else np.empty((0, 4))
    ious = pairwise_ious(np.array(predicted).reshape(-1, 4), targets)
    return MetricReport(
        acc=accuracy_sweep(ious),
        acc_at_50=accuracy_at_iou(ious, 0.5),
        acc_at_75=accuracy_at_iou(ious, 0.75),
        miou=mean_iou(ious),
        ious=ious,
    )


# ----------------------------------------------------------------------
# Ranked / structured-answer metrics (scenario workloads)
# ----------------------------------------------------------------------
def recall_at_k(ranked_boxes: Sequence[np.ndarray],
                target_boxes: Sequence[np.ndarray],
                k: int, iou_threshold: float = 0.5) -> float:
    """Fraction of queries whose top-``k`` ranking covers a true box.

    ``ranked_boxes[i]`` is the ``(r, 4)`` prediction ranking for query
    ``i`` (e.g. :attr:`~repro.core.GroundingResponse.boxes`);
    ``target_boxes[i]`` is the ``(t, 4)`` set of acceptable referents
    (one for single-target queries, several for multi-target).  A query
    counts as recalled when any of its first ``k`` predictions reaches
    ``iou_threshold`` against any true box.  Queries with no true box
    (no-target) are skipped — :func:`no_target_report` scores those.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(ranked_boxes) != len(target_boxes):
        raise ValueError("ranked_boxes and target_boxes must align")
    hits, scored = 0, 0
    for predicted, targets in zip(ranked_boxes, target_boxes):
        targets = np.asarray(targets, dtype=np.float64).reshape(-1, 4)
        if len(targets) == 0:
            continue
        scored += 1
        top = np.asarray(predicted, dtype=np.float64).reshape(-1, 4)[:k]
        if len(top) and iou_matrix(top, targets).max() >= iou_threshold:
            hits += 1
    return hits / scored if scored else 0.0


def group_by_clause_depth(queries: Sequence[str]) -> Dict[int, List[int]]:
    """Sample indices grouped by the parse tree's relation-chain depth.

    Depth comes from :meth:`repro.lang.RelationTree.depth`: 0 for a bare
    attribute reference, 1 for one relational clause, 2+ for nested
    chains.  Unparseable queries land in the depth-0 group (a trivial
    tree has no clauses).
    """
    from repro.lang import parse

    groups: Dict[int, List[int]] = {}
    for index, query in enumerate(queries):
        groups.setdefault(parse(query).depth(), []).append(index)
    return dict(sorted(groups.items()))


def recall_by_clause_depth(ranked_boxes: Sequence[np.ndarray],
                           target_boxes: Sequence[np.ndarray],
                           queries: Sequence[str]) -> Dict[int, float]:
    """Per-clause-depth recall@k (:data:`DEPTH_RECALL_K`) — the Table 2b
    depth breakdown.

    Groups queries by parse depth and scores each group with
    :func:`recall_at_k`; a query's grounding difficulty should grow
    with its relational depth, and this is where that shows up.
    """
    if not (len(ranked_boxes) == len(target_boxes) == len(queries)):
        raise ValueError("ranked_boxes, target_boxes and queries "
                         "must align one-to-one")
    return {
        depth: recall_at_k([ranked_boxes[i] for i in indices],
                           [target_boxes[i] for i in indices],
                           k=DEPTH_RECALL_K, iou_threshold=DEPTH_RECALL_IOU)
        for depth, indices in group_by_clause_depth(queries).items()
    }


@dataclass(frozen=True)
class NoTargetReport:
    """Detection quality of the ``not_found`` decision.

    "Positive" is *predicting not-found*: precision is the fraction of
    not-found answers that were genuinely no-target queries, recall is
    the fraction of no-target queries answered not-found.  A false
    positive (claiming not-found when the object exists) loses a
    grounding; a false negative (a false "found") invents one.
    """

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp": self.true_positives,
            "fp": self.false_positives,
            "fn": self.false_negatives,
            "tn": self.true_negatives,
        }


def no_target_report(predicted_not_found: Sequence[bool],
                     actual_no_target: Sequence[bool]) -> NoTargetReport:
    """Score the not-found decision over aligned prediction/truth flags."""
    predicted = np.asarray(predicted_not_found, dtype=bool)
    actual = np.asarray(actual_no_target, dtype=bool)
    if predicted.shape != actual.shape:
        raise ValueError("predicted and actual flags must align one-to-one")
    return NoTargetReport(
        true_positives=int(np.sum(predicted & actual)),
        false_positives=int(np.sum(predicted & ~actual)),
        false_negatives=int(np.sum(~predicted & actual)),
        true_negatives=int(np.sum(~predicted & ~actual)),
    )


def calibrate_not_found_threshold(found_scores: Sequence[float],
                                  no_target_scores: Sequence[float],
                                  ) -> float:
    """Pick the score threshold that best separates found from absent.

    ``found_scores`` are top-1 confidences on queries whose referent
    exists; ``no_target_scores`` on queries where it does not.  Scoring
    "not found" whenever the top confidence falls below the threshold,
    the candidate maximising the not-found F1 wins; candidates are the
    midpoints between adjacent distinct scores (plus the extremes), and
    ties break toward the lowest threshold — deterministic, so the
    calibrated value is stable run to run.
    """
    found = np.asarray(found_scores, dtype=np.float64)
    absent = np.asarray(no_target_scores, dtype=np.float64)
    if len(absent) == 0:
        return 0.0
    if len(found) == 0:
        return float(absent.max()) + 1e-6
    scores = np.unique(np.concatenate([found, absent]))
    candidates = np.concatenate([
        [scores[0] - 1e-6],
        (scores[:-1] + scores[1:]) / 2.0,
        [scores[-1] + 1e-6],
    ])
    best_threshold, best_f1 = float(candidates[0]), -1.0
    for threshold in candidates:
        report = no_target_report(
            np.concatenate([found < threshold, absent < threshold]),
            np.concatenate([np.zeros(len(found), dtype=bool),
                            np.ones(len(absent), dtype=bool)]))
        if report.f1 > best_f1 + 1e-12:
            best_threshold, best_f1 = float(threshold), report.f1
    return best_threshold
