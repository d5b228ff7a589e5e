"""YOLLO: the paper's one-stage visual-grounding model.

Pipeline (Section 3): a :class:`FeatureEncoder` extracts dense-region
image features and position-aware word features; a stack of
:class:`Rel2AttModule` blocks turns the joint relation map into attention
masks that re-weight both modalities; a :class:`TargetDetectionNetwork`
predicts per-anchor confidence and box offsets from the attended feature
map, and the top-1 scored anchor (after offset decoding) is the answer.
"""

from repro.core.config import UnknownConfigFieldError, YolloConfig
from repro.core.encoder import DilatedContextEncoder, FeatureEncoder
from repro.core.rel2att import Rel2AttModule, Rel2AttStack
from repro.core.word2pix import Word2PixModule, Word2PixStack, build_fusion_stack
from repro.core.detector import TargetDetectionNetwork
from repro.core.response import (
    GroundingResponse,
    freeze_response,
    responses_equal,
    thaw_response,
)
from repro.core.yollo import GroundingPrediction, YolloModel, YolloOutput
from repro.core.losses import LossBreakdown, attention_mask_loss, detection_loss, yollo_loss
from repro.core.trainer import TrainingHistory, YolloTrainer
from repro.core.predictor import Grounder

__all__ = [
    "YolloConfig",
    "UnknownConfigFieldError",
    "FeatureEncoder",
    "DilatedContextEncoder",
    "Rel2AttModule",
    "Rel2AttStack",
    "Word2PixModule",
    "Word2PixStack",
    "build_fusion_stack",
    "TargetDetectionNetwork",
    "YolloModel",
    "YolloOutput",
    "GroundingPrediction",
    "GroundingResponse",
    "freeze_response",
    "thaw_response",
    "responses_equal",
    "attention_mask_loss",
    "detection_loss",
    "yollo_loss",
    "LossBreakdown",
    "YolloTrainer",
    "TrainingHistory",
    "Grounder",
]
