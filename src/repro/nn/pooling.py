"""Pooling layers wrapping the functional strided-view implementations."""

from __future__ import annotations

from repro.autograd import Tensor, max_pool2d
from repro.nn.module import Module


class MaxPool2d(Module):
    """Max pooling over NCHW input in non-overlapping windows."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size, self.kernel_size)


class GlobalAvgPool2d(Module):
    """Collapse the spatial dimensions of NCHW input by averaging."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
