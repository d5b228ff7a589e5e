"""Normalisation layers: batch norm (2-D) and layer norm."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn.module import Module, Parameter

#: Added to the variance before its root in every normalisation layer.
EPS = 1e-5
#: Weight of each new batch in :class:`BatchNorm2d`'s running statistics.
BATCH_NORM_MOMENTUM = 0.1
#: Channel groups of :class:`GroupNorm2d` (one group when the channel
#: count is not a multiple).
NUM_GROUPS = 4


class BatchNorm2d(Module):
    """Batch normalisation over NCHW activations.

    Tracks running statistics for eval mode with exponential averaging,
    matching the standard formulation used by ResNet backbones.  The
    running statistics are registered buffers, so they persist through
    ``state_dict``/``load_state_dict`` and checkpoint/resume reproduces
    eval-mode predictions bit-exactly.
    """

    def __init__(self, num_features: int):
        super().__init__()
        self.num_features = num_features
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            self.running_mean = (
                (1 - BATCH_NORM_MOMENTUM) * self.running_mean
                + BATCH_NORM_MOMENTUM * mean.data.reshape(-1)
            )
            self.running_var = (
                (1 - BATCH_NORM_MOMENTUM) * self.running_var
                + BATCH_NORM_MOMENTUM * var.data.reshape(-1)
            )
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        normalised = (x - mean) / (var + EPS) ** 0.5
        scale = self.weight.reshape(1, -1, 1, 1)
        shift = self.bias.reshape(1, -1, 1, 1)
        return normalised * scale + shift


class GroupNorm2d(Module):
    """Group normalisation over NCHW activations (Wu & He, 2018).

    Statistics are computed per sample over (channel-group, H, W), so
    train and eval behaviour are identical — the preferred trunk norm
    here because grounding inference runs with batch size 1.
    """

    def __init__(self, num_features: int):
        super().__init__()
        self.num_features = num_features
        self.num_groups = NUM_GROUPS if num_features % NUM_GROUPS == 0 else 1
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"GroupNorm2d expects NCHW input, got shape {x.shape}")
        batch, channels, height, width = x.shape
        grouped = x.reshape(batch, self.num_groups, channels // self.num_groups, height, width)
        mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
        var = grouped.var(axis=(2, 3, 4), keepdims=True)
        normalised = (grouped - mean) / (var + EPS) ** 0.5
        normalised = normalised.reshape(batch, channels, height, width)
        scale = self.weight.reshape(1, -1, 1, 1)
        shift = self.bias.reshape(1, -1, 1, 1)
        return normalised * scale + shift


class LayerNorm(Module):
    """Layer normalisation over the last dimension (per-position)."""

    def __init__(self, normalized_shape: int):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalised = (x - mean) / (var + EPS) ** 0.5
        return normalised * self.weight + self.bias
