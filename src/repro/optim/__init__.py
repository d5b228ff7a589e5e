"""Gradient-descent optimisers and a learning-rate schedule."""

from repro.optim.optimizers import SGD, Adam, Optimizer, clip_grad_norm
from repro.optim.schedulers import WarmupCosineLR

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "WarmupCosineLR",
]
