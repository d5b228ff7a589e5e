"""Structured differentiable operations: convolution, max pooling, softmax.

Every windowed op reads its input through :func:`_taps`: one strided
view per kernel tap ``(i, j)``, in row-major tap order, dilation
included.  Convolution's forward gathers the taps of the padded input
into a ``(N, C, KH, KW, OH, OW)`` column tensor (im2col), after which
it is one batched ``matmul`` — a GEMM per sample, landing directly in
NCHW, so a sample's bytes do not depend on its batch.  This is the
only conv forward: the graph executor calls :func:`_im2col` into its
persistent buffers and repeats the GEMM.  The columns die with the
forward; the backward keeps only the input and runs per tap over wide
rows (see :func:`conv2d`), so a train step holds no column tensor.

Pooling builds no column tensor.  Max pooling is a running
``np.maximum`` over the tap views (:func:`_max_pool`, which the graph
executor also calls into its arena buffer) and its backward hands each
output's gradient to the first tap, in row-major order, equal to the
max, which is ``argmax``'s tie rule.  The backward adds into the
input-gradient views with ``+=``, so overlapping windows accumulate.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.autograd.tensor import Tensor, as_tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return (int(value[0]), int(value[1]))


def _taps(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int] = (1, 1),
    width: int = None,
) -> List[np.ndarray]:
    """Strided views of an NCHW array, one per kernel tap, row-major.

    Tap ``(i, j)`` is the ``(N, C, OH, OW)`` window starting at
    ``(i*dh, j*dw)``: element ``[..., p, q]`` is the input a window at
    output ``(p, q)`` reads through that tap.  The views share ``x``'s
    memory, so writing into them writes into ``x``.

    ``width``, when given, replaces ``OW``: each view row reads ``width``
    columns from its start.  All views come from one unchecked
    ``as_strided`` window, so a ``width`` above ``OW`` runs on past the
    row's end into the next row of ``x``'s memory: the first values of
    the next row, and after the last row the memory that follows ``x``.
    That needs C-contiguous rows and, for the last tap, a spare row of
    the buffer ``x`` is sliced from.
    """
    h, w = x.shape[2], x.shape[3]
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    oh = (h - dh * (kh - 1) - 1) // sh + 1
    ow = (w - dw * (kw - 1) - 1) // sw + 1
    s0, s1, s2, s3 = x.strides
    view = as_strided(x, x.shape[:2] + (kh, kw, oh, ow if width is None else width),
                      (s0, s1, dh * s2, dw * s3, sh * s2, sw * s3))
    return [view[:, :, i, j] for i in range(kh) for j in range(kw)]


def _im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int] = (1, 1),
    out: np.ndarray = None,
) -> np.ndarray:
    """Gather the kernel taps of an already-padded NCHW array.

    ``out``, when given, must be a contiguous ``(N, C, KH, KW, OH, OW)``
    buffer and is filled in place (used by the graph executor's
    persistent buffers).
    """
    taps = _taps(x, kernel, stride, dilation)
    n, c, oh, ow = taps[0].shape
    kh, kw = kernel
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype) if out is None else out
    for (i, j), tap in zip(np.ndindex(kh, kw), taps):
        cols[:, :, i, j] = tap
    return cols


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
    dilation: IntPair = 1,
) -> Tensor:
    """2-D cross-correlation of NCHW input with an FCKK weight tensor.

    The backward keeps no columns: it re-pads the input and runs two
    GEMMs per kernel tap over the tap's :func:`_taps` view.  At stride 1
    every gradient row is widened to the padded width ``WP`` with zeros
    past ``OW``, so tap ``(i, j)`` is one contiguous ``(C, OH*WP)`` run
    of the padded buffer at offset ``i*dh*WP + j*dw`` that BLAS reads in
    place (the shifted-run, or implicit-GEMM, lowering).  A run's columns
    past ``OW`` read the first values of the next padded row (a spare
    zero row after the last).  They meet only the zero gradient columns,
    so they change nothing unless they are non-finite.
    At other strides the rows are ``OW`` wide and each run is copied.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    stride = _pair(stride)
    padding = _pair(padding)
    dilation = _pair(dilation)
    f, c, kh, kw = weight.shape
    ph, pw = padding

    x_pad = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
    cols = _im2col(x_pad, (kh, kw), stride, dilation)
    n, oh, ow = cols.shape[0], cols.shape[4], cols.shape[5]
    # One GEMM per sample: (F, C*KH*KW) @ (C*KH*KW, OH*OW), already NCHW.
    w2 = weight.data.reshape(f, c * kh * kw)
    cols3 = cols.reshape(n, c * kh * kw, oh * ow)
    value = np.matmul(w2, cols3).reshape(n, f, oh, ow)
    if bias is not None:
        value += bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make_child(value, parents)
    if out.requires_grad:
        in_h, in_w = x.shape[2], x.shape[3]
        hp, wp = in_h + 2 * ph, in_w + 2 * pw
        wide = stride == (1, 1)
        rw = wp if wide else ow
        spare = int(wide and kw > 1)

        def backward(grad: np.ndarray) -> None:
            if rw != ow:
                g = np.zeros((n, f, oh, rw), dtype=grad.dtype)
                g[..., :ow] = grad
            else:
                g = grad
            g3 = g.reshape(n, f, oh * rw)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))
            if weight.requires_grad:
                if ph or pw or spare:
                    xp = np.zeros((n, c, hp + spare, wp), dtype=x.dtype)
                    xp[:, :, ph : ph + in_h, pw : pw + in_w] = x.data
                else:
                    xp = np.ascontiguousarray(x.data)
                grad_w = np.empty(weight.shape, dtype=grad.dtype)
                for (i, j), run in zip(np.ndindex(kh, kw),
                                       _taps(xp[:, :, :hp], (kh, kw), stride, dilation, rw)):
                    # (N, F, L) @ (N, L, C), summed over the batch; the
                    # reshape is free for a wide run and copies a narrow one.
                    run3 = run.reshape(n, c, oh * rw)
                    grad_w[:, :, i, j] = np.matmul(g3, run3.transpose(0, 2, 1)).sum(0)
                # The last run (and its reshape) still views xp: drop all
                # three so the padded input is freed before grad_pad.
                del xp, run, run3
                weight._accumulate(grad_w)
            if x.requires_grad:
                # Contiguous (C, F) matrices per tap, which BLAS reads in place.
                w_taps = np.ascontiguousarray(weight.data.transpose(2, 3, 1, 0))
                grad_pad = np.zeros((n, c, hp + spare, wp), dtype=grad.dtype)
                for (i, j), run in zip(np.ndindex(kh, kw),
                                       _taps(grad_pad[:, :, :hp], (kh, kw), stride, dilation, rw)):
                    run += np.matmul(w_taps[i, j], g3).reshape(n, c, oh, rw)
                x._accumulate(grad_pad[:, :, ph : ph + in_h, pw : pw + in_w])

        out._backward = backward
    return out


def _max_pool(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int],
              out: np.ndarray = None) -> np.ndarray:
    """Max pooling of an NCHW array: a running maximum over the tap views.

    The one max-pool kernel: eager forward calls it, and the graph
    executor calls it with ``out`` set to its arena buffer.  A NaN in a
    window makes that output NaN, as ``argmax`` would pick it.
    """
    taps = _taps(x, kernel, stride)
    if out is None:
        out = taps[0].copy()
    else:
        np.copyto(out, taps[0])
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    return out


def max_pool2d(x: Tensor, kernel: IntPair, stride: IntPair = None) -> Tensor:
    """Max pooling over NCHW input."""
    x = as_tensor(x)
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    value = _max_pool(x.data, kernel, stride)

    out = x._make_child(value, (x,))
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            # Each output's gradient goes to the first tap equal to its
            # max; ``unclaimed`` marks outputs no earlier tap has taken.
            # ``grad * hit`` is several times faster than a ``where=``
            # add; a non-finite ``grad`` (a step that is lost anyway)
            # also turns the window's other input gradients NaN.
            grad_x = np.zeros(x.shape, dtype=grad.dtype)
            unclaimed = None
            for tap, grad_tap in zip(_taps(x.data, kernel, stride),
                                     _taps(grad_x, kernel, stride)):
                hit = tap == value
                if unclaimed is None:
                    unclaimed = ~hit
                else:
                    hit &= unclaimed
                    unclaimed ^= hit
                grad_tap += grad * hit
            x._accumulate(grad_x)

        out._backward = backward
    return out


def pad2d(x: Tensor, padding: IntPair) -> Tensor:
    """Zero-pad the spatial dimensions of an NCHW tensor."""
    x = as_tensor(x)
    ph, pw = _pair(padding)
    value = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = x._make_child(value, (x,))
    if out.requires_grad:
        h, w = x.shape[2], x.shape[3]

        def backward(grad: np.ndarray) -> None:
            x._accumulate(grad[:, :, ph : ph + h, pw : pw + w])

        out._backward = backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    value = exp / exp.sum(axis=axis, keepdims=True)

    out = x._make_child(value, (x,))
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            inner = (grad * value).sum(axis=axis, keepdims=True)
            x._accumulate(value * (grad - inner))

        out._backward = backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_sum

    out = x._make_child(value, (x,))
    if out.requires_grad:
        probs = np.exp(value)

        def backward(grad: np.ndarray) -> None:
            x._accumulate(grad - probs * grad.sum(axis=axis, keepdims=True))

        out._backward = backward
    return out


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of an embedding matrix; gradients scatter-add back."""
    weight = as_tensor(weight)
    indices = np.asarray(indices, dtype=np.int64)
    value = weight.data[indices]

    out = weight._make_child(value, (weight,))
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            grad_w = np.zeros_like(weight.data)
            np.add.at(grad_w, indices, grad)
            weight._accumulate(grad_w)

        out._backward = backward
    return out
