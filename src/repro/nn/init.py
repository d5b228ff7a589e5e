"""Weight initialisation schemes (Xavier/Glorot, Kaiming/He, plain)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.seeding import get_rng


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 2:  # Linear: (out, in)
        fan_out, fan_in = shape
    elif len(shape) == 4:  # Conv: (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        fan_in = fan_out = int(np.prod(shape)) if shape else 1
    return fan_in, fan_out


def xavier_uniform(shape, rng: np.random.Generator = None) -> np.ndarray:
    """Glorot uniform: suitable for tanh/sigmoid and attention projections."""
    rng = rng or get_rng()
    fan_in, fan_out = _fan_in_out(tuple(shape))
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def kaiming_normal(shape, rng: np.random.Generator = None) -> np.ndarray:
    """He normal: suitable for ReLU networks (CNN trunks)."""
    rng = rng or get_rng()
    fan_in, _ = _fan_in_out(tuple(shape))
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def normal(shape, std: float = 0.01, rng: np.random.Generator = None) -> np.ndarray:
    """Plain zero-mean Gaussian initialisation."""
    rng = rng or get_rng()
    return rng.normal(0.0, std, size=shape)


def uniform(shape, bound: float = 0.1, rng: np.random.Generator = None) -> np.ndarray:
    """Plain symmetric uniform initialisation."""
    rng = rng or get_rng()
    return rng.uniform(-bound, bound, size=shape)
