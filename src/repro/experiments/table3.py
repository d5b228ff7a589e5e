"""Table 3 — YOLLO under ACC / ACC@0.5 / ACC@0.75 / MIoU.

Evaluates each in-domain YOLLO model under the full metric sweep,
reproducing the paper's observation that ACC@0.75 drops because anchors
are labelled positive at rho_high = 0.5.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.eval import format_table
from repro.experiments.context import DATASET_NAMES, ExperimentContext


def collect(context: ExperimentContext) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Metric dict per (dataset, split)."""
    results: Dict[Tuple[str, str], Dict[str, float]] = {}
    for dataset_name in DATASET_NAMES:
        _, grounder, _ = context.yollo(dataset_name)
        for split in context.eval_splits(dataset_name):
            report = context.evaluate(grounder, dataset_name, split)
            results[(dataset_name, split)] = {
                key: value * 100 for key, value in report.as_dict().items()
            }
    return results


def run(context: ExperimentContext) -> str:
    """Render the Table-3 report."""
    results = collect(context)
    rows: List[List[object]] = []
    for (dataset_name, split), metrics in results.items():
        rows.append(
            [
                dataset_name,
                split,
                metrics["ACC"],
                metrics["ACC@0.5"],
                metrics["ACC@0.75"],
                metrics["MIOU"],
            ]
        )
    return format_table(
        ["Dataset", "Split", "ACC", "ACC@0.5", "ACC@0.75", "MIOU"],
        rows,
        title="Table 3: YOLLO under different evaluation metrics (%)",
    )
