"""Plain convolutional trunk (the VGG analogue from the paper's footnote)."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.autograd import Tensor
from repro.backbone.resnet import make_norm
from repro.nn import Conv2d, MaxPool2d, Module, Sequential


class _ConvBNReLU(Module):
    def __init__(self, in_channels: int, out_channels: int, norm: str = "group"):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, 3, padding=1, bias=False)
        self.bn = make_norm(norm, out_channels)

    def forward(self, x: Tensor) -> Tensor:
        return self.bn(self.conv(x)).relu()


class MiniVGG(Module):
    """Stacked 3x3 conv blocks with max-pool downsampling.

    Each stage is one conv+BN+ReLU layer followed by a 2x2 max pool,
    giving the same output stride as :class:`MiniResNet` with matching
    ``stage_channels`` length.
    """

    def __init__(
        self,
        stage_channels: Sequence[int] = (16, 24, 32),
        norm: str = "group",
    ):
        super().__init__()
        layers = []
        channels = 3
        for stage_width in stage_channels:
            layers.append(_ConvBNReLU(channels, stage_width, norm=norm))
            channels = stage_width
            layers.append(MaxPool2d(2))
        self.features = Sequential(*layers)
        self.out_channels = channels
        self.stride = 2 ** len(stage_channels)

    def forward(self, images: Tensor) -> Tensor:
        """Map ``(B, 3, H, W)`` images to ``(B, C, H/stride, W/stride)``."""
        return self.features(images)

    def feature_shape(self, height: int, width: int) -> Tuple[int, int, int]:
        """Return ``(channels, grid_h, grid_w)`` for an input size."""
        return (self.out_channels, height // self.stride, width // self.stride)
