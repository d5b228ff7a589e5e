"""Feature encoder: dense image regions + position-aware word features.

Implements Section 3.1: a CNN feature map is flattened into a sequence of
region vectors (one per grid cell), and each query word embedding is
summed with a positional embedding.  Both modalities are projected to the
shared ``d_model`` width so the Rel2Att stack can fuse them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.backbone import build_backbone
from repro.core.config import YolloConfig
from repro.nn import (
    Conv2d,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
)
from repro.text.position import learned_position_table


class DilatedBottleneck(Module):
    """One residual dilated bottleneck: 1x1 reduce, 3x3 dilated, 1x1 expand.

    The YOLOF dilated-encoder building block, scaled down: channel count
    is preserved end to end so a stack of these drops into the encoder
    between the backbone and the flatten/projection step without
    touching any downstream shape.
    """

    def __init__(self, channels: int, dilation: int):
        super().__init__()
        mid = max(channels // 2, 4)
        self.reduce = Conv2d(channels, mid, kernel_size=1)
        self.dilated = Conv2d(mid, mid, kernel_size=3, padding=dilation,
                              dilation=dilation)
        self.expand = Conv2d(mid, channels, kernel_size=1)

    def forward(self, x: Tensor) -> Tensor:
        out = self.reduce(x).relu()
        out = self.dilated(out).relu()
        out = self.expand(out).relu()
        return x + out


class DilatedContextEncoder(Module):
    """Stacked dilated residual blocks widening the backbone's context.

    Applied to the raw backbone feature map (``config.context_encoder ==
    "dilated"``): successive dilation rates grow the receptive field
    multiplicatively without another downsampling stage, so distant
    relational cues ("left of", "behind") reach a cell's feature before
    the relation stack ever runs — the YOLOF dilated-encoder idea at
    grounding-grid scale.  Spatial size and channel count are unchanged.
    """

    def __init__(self, channels: int, dilations):
        super().__init__()
        dilations = tuple(int(d) for d in dilations)
        if not dilations:
            raise ValueError("dilated context encoder needs >= 1 dilation")
        self.dilations = dilations
        self.blocks = [DilatedBottleneck(channels, d) for d in dilations]
        for index, block in enumerate(self.blocks):
            setattr(self, f"block{index}", block)

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return x


def build_context_encoder(config: YolloConfig,
                          channels: int) -> Optional[Module]:
    """Context encoder selected by ``config.context_encoder`` (or None)."""
    if config.context_encoder == "none":
        return None
    if config.context_encoder == "dilated":
        return DilatedContextEncoder(channels, config.encoder_dilations)
    raise ValueError(
        f"unknown context_encoder {config.context_encoder!r}; "
        f"valid encoders: none, dilated")


class FeatureEncoder(Module):
    """Encode ``(images, token_ids)`` into sequences ``V (B,m,d)`` / ``T (B,n,d)``."""

    def __init__(self, config: YolloConfig, vocab_size: int,
                 pretrained_embeddings: Optional[np.ndarray] = None,
                 backbone: Optional[Module] = None):
        super().__init__()
        self.config = config
        self.backbone = backbone if backbone is not None else build_backbone(config.backbone)
        self.grid_h = config.image_height // self.backbone.stride
        self.grid_w = config.image_width // self.backbone.stride
        self.num_regions = self.grid_h * self.grid_w

        self.context = build_context_encoder(config, self.backbone.out_channels)
        self.image_proj = Linear(self.backbone.out_channels, config.d_model)
        # Region features are normalised to O(1) so the relation map and
        # detection head see a scale that is independent of the trunk's
        # activation statistics (the norm-free trunk can emit O(10)).
        self.image_norm = LayerNorm(config.d_model)
        self.word_embedding = Embedding(vocab_size, config.d_model, padding_idx=0)
        if pretrained_embeddings is not None:
            self.load_pretrained_embeddings(pretrained_embeddings)

        self.position_table = Parameter(
            learned_position_table(config.max_query_length, config.d_model)
        )

        # Learned 2-D position embeddings for image regions.  The query
        # side gets positional embeddings in the paper; regions need the
        # analogous treatment because convolutional features are
        # translation-invariant and location words ("left", "top") are
        # otherwise ungroundable.
        self.region_position_table = Parameter(
            learned_position_table(self.num_regions, config.d_model)
        )

    def load_pretrained_embeddings(self, matrix: np.ndarray) -> None:
        """Initialise the word embedding from a pre-trained Word2Vec matrix.

        The matrix may be narrower than ``d_model`` (the pre-training dim
        is independent); extra columns keep their random initialisation,
        mirroring partial-initialisation practice.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[0] != self.word_embedding.num_embeddings:
            raise ValueError(
                f"embedding rows {matrix.shape[0]} != vocab size "
                f"{self.word_embedding.num_embeddings}"
            )
        width = min(matrix.shape[1], self.config.d_model)
        self.word_embedding.weight.data[:, :width] = matrix[:, :width]

    # ------------------------------------------------------------------
    def encode_image(self, images: Tensor) -> Tensor:
        """Images ``(B,3,H,W)`` -> region sequence ``(B, m, d_model)``."""
        feature_map = self.backbone(images)  # (B, C, gh, gw)
        if self.context is not None:
            feature_map = self.context(feature_map)
        batch = feature_map.shape[0]
        flat = feature_map.reshape(batch, self.backbone.out_channels, self.num_regions)
        sequence = flat.transpose(0, 2, 1)  # (B, m, C)
        return self.image_norm(self.image_proj(sequence)) + self.region_position_table

    def encode_query(self, token_ids: np.ndarray) -> Tensor:
        """Token ids ``(B, n)`` -> word sequence ``(B, n, d_model)``.

        Implements t_i = e_i + p_i (word embedding plus position).
        """
        n = token_ids.shape[1]
        if n > self.config.max_query_length:
            raise ValueError(
                f"query length {n} exceeds max_query_length {self.config.max_query_length}"
            )
        return self.word_embedding(token_ids) + self.position_table[:n]

    def forward(self, images: Tensor, token_ids: np.ndarray) -> Tuple[Tensor, Tensor]:
        return self.encode_image(images), self.encode_query(token_ids)

    def grid_shape(self) -> Tuple[int, int]:
        return (self.grid_h, self.grid_w)
