"""Evaluation: grounding metrics, wall-clock timing, curves, reporting."""

from repro.eval.metrics import (
    MetricReport,
    NoTargetReport,
    accuracy_at_iou,
    accuracy_sweep,
    calibrate_not_found_threshold,
    evaluate_grounder,
    group_by_clause_depth,
    mean_iou,
    no_target_report,
    pairwise_ious,
    recall_at_k,
    recall_by_clause_depth,
)
from repro.eval.timing import TimingReport, time_grounder
from repro.eval.curves import TrainingCurve
from repro.eval.reporting import format_table

__all__ = [
    "accuracy_at_iou",
    "accuracy_sweep",
    "mean_iou",
    "pairwise_ious",
    "evaluate_grounder",
    "MetricReport",
    "recall_at_k",
    "NoTargetReport",
    "no_target_report",
    "group_by_clause_depth",
    "recall_by_clause_depth",
    "calibrate_not_found_threshold",
    "time_grounder",
    "TimingReport",
    "TrainingCurve",
    "format_table",
]
