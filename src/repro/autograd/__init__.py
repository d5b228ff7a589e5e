"""Reverse-mode automatic differentiation on top of numpy.

This package is the substrate that replaces PyTorch in this reproduction.
It provides a :class:`Tensor` with a dynamic computation graph, the full
set of primitive operations needed by the YOLLO model and its baselines
(dense linear algebra, convolution, pooling, softmax, embedding lookup),
and a finite-difference gradient checker used by the test suite.
:mod:`repro.autograd.interpose` is the one mechanism that temporarily
wraps those primitives for the op profiler and the graph tracer.
"""

from repro.autograd.tensor import (
    get_default_dtype,
    set_default_dtype,
    Tensor,
    as_tensor,
    concatenate,
    no_grad,
    is_grad_enabled,
    stack,
    tensor,
    where,
    zeros,
    ones,
    full,
)
from repro.autograd.functional import (
    conv2d,
    embedding_lookup,
    log_softmax,
    max_pool2d,
    pad2d,
    softmax,
)
from repro.autograd.gradcheck import gradient_check

__all__ = [
    "Tensor",
    "as_tensor",
    "tensor",
    "zeros",
    "ones",
    "full",
    "concatenate",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "conv2d",
    "max_pool2d",
    "pad2d",
    "softmax",
    "log_softmax",
    "embedding_lookup",
    "gradient_check",
    "set_default_dtype",
    "get_default_dtype",
]
