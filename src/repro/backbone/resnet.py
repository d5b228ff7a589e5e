"""Residual CNN trunk (the ResNet-C4 analogue)."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.autograd import Tensor
from repro.nn import BatchNorm2d, Conv2d, GroupNorm2d, MaxPool2d, Module, Sequential


class Identity(Module):
    """No-op layer (norm-free trunk option)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


def make_norm(kind: str, channels: int) -> Module:
    """Build a trunk normalisation layer.

    ``"group"`` is batch-independent, giving identical train and eval
    behaviour — important because grounding inference runs with batch
    size 1.  ``"batch"`` matches the original ResNet recipe.  ``"none"``
    disables trunk normalisation.
    """
    if kind == "group":
        return GroupNorm2d(channels)
    if kind == "batch":
        return BatchNorm2d(channels)
    if kind == "none":
        return Identity()
    raise ValueError(f"unknown norm kind: {kind}")


class BasicBlock(Module):
    """Two 3x3 convolutions with a residual connection.

    A 1x1 projection is inserted on the skip path when the channel
    count changes, as in He et al. (2016); downsampling is the stage's
    max pool, so every block keeps stride 1.
    """

    def __init__(self, in_channels: int, out_channels: int, norm: str = "group"):
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=1, padding=1, bias=False)
        self.bn1 = make_norm(norm, out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False)
        self.bn2 = make_norm(norm, out_channels)
        if in_channels != out_channels:
            self.shortcut = Conv2d(in_channels, out_channels, 1, stride=1, bias=False)
            self.shortcut_bn = make_norm(norm, out_channels)
        else:
            self.shortcut = None
            self.shortcut_bn = None

    def forward(self, x: Tensor) -> Tensor:
        residual = x
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        if self.shortcut is not None:
            residual = self.shortcut_bn(self.shortcut(x))
        return (out + residual).relu()


class MiniResNet(Module):
    """Residual trunk producing a stride-``2**(1+len(stages))`` C4 feature map.

    Parameters
    ----------
    stem_channels:
        Width of the stride-2 stem convolution.
    stage_channels:
        Output width of each residual stage (each stage downsamples 2x
        via max pooling; the original ResNet's strided convolutions are
        phase-sensitive at our small object sizes, whereas pooled
        downsampling keeps small-glyph shape information intact).
    blocks_per_stage:
        Residual blocks in each stage; depth scaling models the
        ResNet-50 vs ResNet-101 comparison.
    norm:
        ``"group"`` or ``"batch"`` trunk normalisation.
    """

    def __init__(
        self,
        stem_channels: int = 16,
        stage_channels: Sequence[int] = (24, 32),
        blocks_per_stage: Sequence[int] = (1, 1),
        norm: str = "group",
    ):
        super().__init__()
        if len(stage_channels) != len(blocks_per_stage):
            raise ValueError("stage_channels and blocks_per_stage must align")
        self.stem = Conv2d(3, stem_channels, 3, stride=1, padding=1, bias=False)
        self.stem_bn = make_norm(norm, stem_channels)
        self.stem_pool = MaxPool2d(2)

        stages = []
        channels = stem_channels
        for stage_width, num_blocks in zip(stage_channels, blocks_per_stage):
            blocks = [BasicBlock(channels, stage_width, norm=norm)]
            blocks.extend(
                BasicBlock(stage_width, stage_width, norm=norm) for _ in range(num_blocks - 1)
            )
            blocks.append(MaxPool2d(2))
            stages.append(Sequential(*blocks))
            channels = stage_width
        self.stages = Sequential(*stages)

        self.out_channels = channels
        self.stride = 2 ** (1 + len(stage_channels))

    def forward(self, images: Tensor) -> Tensor:
        """Map ``(B, 3, H, W)`` images to ``(B, C, H/stride, W/stride)``."""
        out = self.stem_pool(self.stem_bn(self.stem(images)).relu())
        return self.stages(out)

    def feature_shape(self, height: int, width: int) -> Tuple[int, int, int]:
        """Return ``(channels, grid_h, grid_w)`` for an input size."""
        return (self.out_channels, height // self.stride, width // self.stride)
