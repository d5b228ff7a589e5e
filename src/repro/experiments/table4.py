"""Table 4 — Rel2Att ablations: wipe self-attention or co-attention.

The full-model row reuses the Table-2 checkpoints (the preset's main
training budget); the wiped arms train at the (smaller) ablation budget.
The paper's qualitative finding — removing co-attention collapses the
model to query-blind dataset biases, removing self-attention hurts less
catastrophically — is judged on the co-attention row, which is immune
to the budget difference because a query-blind model cannot exceed the
dataset's single-object prior no matter how long it trains.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.eval import format_table
from repro.experiments.context import DATASET_NAMES, ExperimentContext

ARMS = (
    ("YOLLO", {}),
    ("YOLLO (w/o self-attention)", {"use_self_attention": False}),
    ("YOLLO (w/o co-attention)", {"use_co_attention": False}),
)


def collect(context: ExperimentContext) -> Dict[str, Dict[Tuple[str, str], float]]:
    """ACC@0.5 per arm per (dataset, split)."""
    results: Dict[str, Dict[Tuple[str, str], float]] = {}
    for arm_name, overrides in ARMS:
        row: Dict[Tuple[str, str], float] = {}
        for dataset_name in DATASET_NAMES:
            if not overrides:
                _, grounder, _ = context.yollo(dataset_name)
            else:
                tag = ("ablation-noself" if "use_self_attention" in overrides
                       else "ablation-noco")
                _, grounder, _ = context.yollo(
                    dataset_name, tag=tag,
                    epochs=context.preset.ablation_epochs, **overrides,
                )
            for split in context.eval_splits(dataset_name):
                report = context.evaluate(grounder, dataset_name, split)
                row[(dataset_name, split)] = report.acc_at_50 * 100
        results[arm_name] = row
    return results


def run(context: ExperimentContext) -> str:
    """Render the Table-4 report."""
    results = collect(context)
    columns = sorted({key for row in results.values() for key in row})
    headers = ["Method"] + [f"{d}/{s}" for d, s in columns]
    rows: List[List[object]] = []
    for arm_name, _ in ARMS:
        row: List[object] = [arm_name]
        for column in columns:
            value = results[arm_name].get(column)
            row.append("-" if value is None else value)
        rows.append(row)
    return format_table(
        headers, rows,
        title=("Table 4: Rel2Att ablations, ACC@0.5 (%)"
               " (full row = main budget, wiped rows = ablation budget)"),
    )
