"""Configuration for the YOLLO model and its training loop."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Tuple


class UnknownConfigFieldError(KeyError):
    """An override named a field :class:`YolloConfig` does not have.

    Mirrors the :class:`repro.scenarios.UnknownScenarioError` convention:
    the message lists every valid name so a typo'd preset dict or
    ``with_overrides`` call is self-diagnosing.
    """

    def __init__(self, name: str, available):
        self.name = name
        self.available = tuple(available)
        super().__init__(
            f"unknown YolloConfig field {name!r}; valid fields: "
            f"{', '.join(self.available)}")

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


@dataclass(frozen=True)
class YolloConfig:
    """Hyper-parameters of the YOLLO architecture (Sections 3-4).

    The paper's absolute sizes (400x600 input, 512-D features, ResNet-50)
    are scaled to laptop proportions; every structural choice — C4-style
    backbone truncation, 3 stacked Rel2Att modules, K anchors per cell,
    rho_high/rho_low = 0.5/0.25, N = 256 sampled anchors, lambda = 1 —
    follows the paper.
    """

    # Input geometry (2:3 aspect like the paper's 400x600).
    image_height: int = 48
    image_width: int = 72

    # Feature encoder.
    backbone: str = "resnet50"
    d_model: int = 32  #: shared width of image/word feature vectors
    max_query_length: int = 20
    #: Context encoder applied to the backbone feature map before the
    #: flatten/projection step: ``"none"`` (the paper's C4 output goes
    #: straight to the projection) or ``"dilated"`` (a YOLOF-style stack
    #: of residual dilated bottleneck blocks that widens the receptive
    #: field without shrinking the grid).
    context_encoder: str = "none"
    #: Per-block dilation rates of the dilated context encoder.  The
    #: paper-scale grid is small (6x9 at stride 8), so the rates stay
    #: modest compared to YOLOF's (2, 4, 6, 8) over a 100x100 map.
    encoder_dilations: Tuple[int, ...] = (1, 2, 3)

    # Cross-modal fusion stack: ``"rel2att"`` is the paper's relation
    # map; ``"word2pix"`` is the Word2Pix-style one-way word-to-pixel
    # cross-attention alternative (same interface, same attention-mask
    # supervision).
    fusion: str = "rel2att"

    # Rel2Att stack.
    d_rel: int = 48  #: relation-space width (paper: 512)
    num_rel2att: int = 3
    ffn_hidden: int = 48
    use_self_attention: bool = True  #: ablation switch (Table 4)
    use_co_attention: bool = True  #: ablation switch (Table 4)
    att_gain_init: float = 8.0  #: initial learnable gain on attention logits
    #: Average each relation-map block separately before summing (keeps
    #: the small co-attention blocks from being diluted by the larger
    #: self-attention blocks).  False reproduces the strict whole-map
    #: average of Eq. (3)-(4).
    block_balanced_attention: bool = True

    # Target detection network.
    head_hidden: int = 48
    anchor_scales: Tuple[float, ...] = (12.0, 18.0, 26.0)
    anchor_ratios: Tuple[float, ...] = (0.5, 1.0, 2.0)

    # Anchor supervision (Section 3.3).  ``matcher`` selects the
    # assignment rule: ``"iou"`` is the paper's rho_high/rho_low IoU
    # thresholding; ``"topk"`` is YOLOF-style uniform matching (the 4
    # closest anchors are positives regardless of IoU, with an IoU
    # ignore band above 0.7).
    matcher: str = "iou"
    rho_high: float = 0.5
    rho_low: float = 0.25
    anchor_batch: int = 256  #: N — sampled anchors per image
    #: Also regress ignore-band anchors (rho_low <= IoU < rho_high) toward
    #: the target.  Because inference takes the raw top-1 anchor with no
    #: NMS or second stage, a near-target anchor can win while carrying
    #: untrained offsets; supervising its regression fixes that without
    #: touching the classification labels of Section 3.3.
    regress_ignore_band: bool = True

    # Classification loss over sampled anchors: ``"softmax_ce"`` is the
    # paper's 2-way softmax cross-entropy; ``"focal"`` replaces it with
    # sigmoid focal loss (alpha 0.25, gamma 2) on the target-vs-background
    # logit margin.
    cls_loss: str = "softmax_ce"

    # Loss (Eq. 9).  lambda_att = 2 departs from the paper's implicit 1:
    # at our scale the attention loss is the long pole and benefits from
    # the extra weight (see DESIGN.md).
    lambda_reg: float = 1.0
    lambda_att: float = 2.0

    # Optimisation (Section 4.2; lr rescaled for the smaller model).
    learning_rate: float = 2e-3
    batch_size: int = 16
    epochs: int = 8

    @property
    def num_anchors_per_cell(self) -> int:
        return len(self.anchor_scales) * len(self.anchor_ratios)

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def with_overrides(self, **kwargs) -> "YolloConfig":
        """Functional update helper used by ablation experiments.

        Unknown keys raise :class:`UnknownConfigFieldError` listing the
        valid field names, so a typo in a preset dict or an experiment
        sweep fails loudly instead of being silently dropped by
        ``dataclasses.replace``'s own terse ``TypeError``.
        """
        valid = self.field_names()
        for key in kwargs:
            if key not in valid:
                raise UnknownConfigFieldError(key, valid)
        return replace(self, **kwargs)
