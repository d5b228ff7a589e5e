"""Image backbones: residual (ResNet-style C4) and plain (VGG-style) trunks.

``MiniResNet`` mirrors the paper's ResNet-50-C4 feature extractor at
laptop scale: a strided stem followed by residual stages, truncated at
the stage whose output feeds the grounding head.  ``build_backbone``
exposes named presets including the deeper ResNet-101 analogue used in
the paper's Table 5 timing comparison and the VGG variant mentioned in
Section 4.2's footnote.
"""

from repro.backbone.resnet import BasicBlock, MiniResNet
from repro.backbone.vgg import MiniVGG
from repro.backbone.factory import BACKBONE_PRESETS, build_backbone
from repro.backbone.pretrain import (
    BackbonePretrainTask,
    ClassificationHead,
    load_pretrained_backbone,
    pretrain_backbone,
)

__all__ = [
    "MiniResNet",
    "BasicBlock",
    "MiniVGG",
    "build_backbone",
    "BACKBONE_PRESETS",
    "pretrain_backbone",
    "BackbonePretrainTask",
    "load_pretrained_backbone",
    "ClassificationHead",
]
