"""The Adam optimiser and a learning-rate schedule."""

from repro.optim.optimizers import Adam, clip_grad_norm
from repro.optim.schedulers import WarmupCosineLR

__all__ = [
    "Adam",
    "clip_grad_norm",
    "WarmupCosineLR",
]
