"""Neural-network building blocks on top of :mod:`repro.autograd`."""

from repro.nn.module import (
    Module,
    Parameter,
    StateDictKeyError,
    StateDictShapeError,
)
from repro.nn.layers import (
    Conv2d,
    Embedding,
    FeedForward,
    Linear,
    ReLU,
    Sequential,
)
from repro.nn.norm import BatchNorm2d, GroupNorm2d, LayerNorm
from repro.nn.pooling import GlobalAvgPool2d, MaxPool2d
from repro.nn.rnn import LSTM, LSTMCell
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    margin_ranking_loss,
    sigmoid_focal_loss,
    smooth_l1,
    softmax_cross_entropy,
)
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "StateDictKeyError",
    "StateDictShapeError",
    "Linear",
    "Conv2d",
    "Embedding",
    "ReLU",
    "Sequential",
    "FeedForward",
    "BatchNorm2d",
    "GroupNorm2d",
    "LayerNorm",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "LSTM",
    "LSTMCell",
    "softmax_cross_entropy",
    "binary_cross_entropy_with_logits",
    "sigmoid_focal_loss",
    "smooth_l1",
    "margin_ranking_loss",
    "init",
]
