"""Positional-embedding tables for query word ordering (Section 3.1)."""

from __future__ import annotations

import numpy as np

from repro.autograd import get_default_dtype
from repro.utils.seeding import get_rng


def sinusoidal_position_table(max_length: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal table as in Vaswani et al. (2017): ``(L, d)``."""
    if dim % 2 != 0:
        raise ValueError("sinusoidal embeddings require an even dimension")
    positions = np.arange(max_length, dtype=np.float64)[:, None]
    freq_index = np.arange(dim // 2, dtype=np.float64)[None, :]
    angular = positions / np.power(10000.0, 2.0 * freq_index / dim)
    table = np.empty((max_length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angular)
    table[:, 1::2] = np.cos(angular)
    return table.astype(get_default_dtype())


def learned_position_table(max_length: int, dim: int,
                           rng: np.random.Generator = None) -> np.ndarray:
    """Randomly initialised learnable position table (fine-tuned in YOLLO)."""
    rng = rng or get_rng()
    return rng.normal(0.0, 0.02, size=(max_length, dim))
