"""Positional-embedding table for query word ordering (Section 3.1)."""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import get_rng


def learned_position_table(max_length: int, dim: int,
                           rng: np.random.Generator = None) -> np.ndarray:
    """Randomly initialised learnable position table (fine-tuned in YOLLO)."""
    rng = rng or get_rng()
    return rng.normal(0.0, 0.02, size=(max_length, dim))
