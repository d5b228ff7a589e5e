"""Core layers: linear, convolution (strided, padded, dilated), embedding,
containers."""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.autograd import Tensor, conv2d, embedding_lookup
from repro.nn import init
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` over the last input dimension."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng=rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution over NCHW inputs (cross-correlation, zero padding).

    ``dilation`` spaces the kernel taps ``dilation`` pixels apart (the
    YOLOF dilated encoder's receptive-field widening); the gather reads
    the spaced taps directly, so no zero taps are multiplied.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, dilation: int = 1,
                 bias: bool = True, rng: np.random.Generator = None):
        super().__init__()
        if dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {dilation}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng=rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride,
                      padding=self.padding, dilation=self.dilation)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    ``padding_idx`` (if given) is initialised to zero; its row still
    receives gradients, matching the paper's fine-tuned PAD handling.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 padding_idx: Optional[int] = None, rng: np.random.Generator = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.normal((num_embeddings, embedding_dim), std=0.1, rng=rng)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight)

    def forward(self, indices: np.ndarray) -> Tensor:
        return embedding_lookup(self.weight, indices)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    """Chain modules; ``forward`` pipes the input through each in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def __iter__(self) -> Iterable[Module]:
        return iter(getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def forward(self, x):
        for name in self._order:
            x = getattr(self, name)(x)
        return x


class FeedForward(Module):
    """Two-layer feed-forward network as used inside Rel2Att (Eq. 1-2).

    ``FFN(x) = W2 relu(W1 x + b1) + b2`` applied position-wise.
    """

    def __init__(self, in_features: int, hidden_features: int, out_features: int,
                 rng: np.random.Generator = None):
        super().__init__()
        self.fc1 = Linear(in_features, hidden_features, rng=rng)
        self.fc2 = Linear(hidden_features, out_features, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())
