"""Table 2 — overall ACC@0.5 comparison plus cross-dataset generalisation.

Rows: two-stage baselines (listener, speaker with MMI, their ensemble)
and YOLLO, evaluated on every split of every dataset; then YOLLO models
trained on one dataset and evaluated on the others (the generalisation
block of the paper's Table 2).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.eval import format_table
from repro.experiments.context import DATASET_NAMES, ExperimentContext

BASELINE_KINDS = ("listener", "speaker", "speaker+listener")

#: (dataset, split) columns in the paper's order.
COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("RefCOCO", "val"),
    ("RefCOCO", "testA"),
    ("RefCOCO", "testB"),
    ("RefCOCO+", "val"),
    ("RefCOCO+", "testA"),
    ("RefCOCO+", "testB"),
    ("RefCOCOg", "val"),
)


def collect(context: ExperimentContext) -> Dict[str, Dict[Tuple[str, str], float]]:
    """ACC@0.5 for every row model on every column split."""
    results: Dict[str, Dict[Tuple[str, str], float]] = {}

    for kind in BASELINE_KINDS:
        row: Dict[Tuple[str, str], float] = {}
        for dataset_name, split in COLUMNS:
            grounder = context.baseline(kind, dataset_name)
            report = context.evaluate(grounder, dataset_name, split)
            row[(dataset_name, split)] = report.acc_at_50 * 100
        results[kind] = row

    # YOLLO trained per dataset, evaluated in-domain...
    in_domain: Dict[Tuple[str, str], float] = {}
    for train_name in DATASET_NAMES:
        _, grounder, _ = context.yollo(train_name)
        for dataset_name, split in COLUMNS:
            report = context.evaluate(grounder, dataset_name, split)
            value = report.acc_at_50 * 100
            # ...and cross-domain (generalisation rows).
            results.setdefault(f"YOLLO (trained on {train_name})", {})[
                (dataset_name, split)
            ] = value
            if dataset_name == train_name:
                in_domain[(dataset_name, split)] = value
    results["YOLLO"] = in_domain
    return results


def run(context: ExperimentContext) -> str:
    """Render the Table-2 report."""
    results = collect(context)
    headers = ["Method"] + [f"{d}/{s}" for d, s in COLUMNS]
    order = list(BASELINE_KINDS) + ["YOLLO"] + [
        f"YOLLO (trained on {name})" for name in DATASET_NAMES
    ]
    rows: List[List[object]] = []
    for method in order:
        row: List[object] = [method]
        for column in COLUMNS:
            value = results.get(method, {}).get(column)
            row.append("-" if value is None else value)
        rows.append(row)
    return format_table(
        headers, rows,
        title="Table 2: ACC@0.5 (%) on RefCOCO / RefCOCO+ / RefCOCOg",
    )
