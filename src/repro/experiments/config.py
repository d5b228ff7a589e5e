"""Experiment presets: how much compute each harness run spends."""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentPreset:
    """Scale knobs for the experiment harness.

    ``train_scenes``/``eval_scenes`` size the generated datasets (x2
    queries per scene); the remaining fields budget each training run.
    """

    name: str
    train_scenes: int = 250
    eval_scenes: int = 16
    pretrain_steps: int = 600
    yollo_epochs: int = 8
    ablation_epochs: int = 5
    baseline_steps: int = 300
    eval_limit: int = 32  #: max samples evaluated per split
    timing_samples: int = 8
    eval_every: int = 50  #: iterations between Figure-4 curve points


PRESETS = {
    # Fast enough for CI smoke tests; numbers are meaningless.
    "smoke": ExperimentPreset(
        name="smoke",
        train_scenes=12,
        eval_scenes=4,
        pretrain_steps=20,
        yollo_epochs=1,
        ablation_epochs=1,
        baseline_steps=20,
        eval_limit=8,
        timing_samples=3,
        eval_every=2,
    ),
    # Default for `pytest benchmarks/`: the paper's qualitative shape
    # emerges in ~40 minutes of single-core CPU (cached thereafter).
    "bench": ExperimentPreset(name="bench", yollo_epochs=20, ablation_epochs=8),
    # Overnight-quality numbers (the EXPERIMENTS.md configuration).
    "full": ExperimentPreset(
        name="full",
        train_scenes=600,
        eval_scenes=40,
        pretrain_steps=900,
        yollo_epochs=25,
        ablation_epochs=12,
        baseline_steps=800,
        eval_limit=80,
        timing_samples=16,
        eval_every=100,
    ),
}


def get_preset(name: str = None) -> ExperimentPreset:
    """Resolve a preset by name or the ``REPRO_PRESET`` env variable."""
    name = name or os.environ.get("REPRO_PRESET", "bench")
    if name not in PRESETS:
        raise KeyError(f"unknown preset '{name}'; choose from {sorted(PRESETS)}")
    return PRESETS[name]
