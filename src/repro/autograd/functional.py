"""Structured differentiable operations: convolution, max pooling, softmax.

Every windowed op reads its input through :func:`_windows`: one
unchecked ``as_strided`` view ``(N, C, KH, KW, OH, OW)`` whose element
``[:, :, i, j]`` is the strided view of kernel tap ``(i, j)``, dilation
included (:func:`_taps` lists those views in row-major tap order).
Convolution's forward copies the window of the padded input into a
column tensor of the same shape (im2col, one ``np.copyto``), after
which it is one batched ``matmul`` — a GEMM per sample, landing
directly in NCHW, so a sample's bytes do not depend on its batch.  A
1x1, stride-1, unpadded conv skips the copy: its columns are the input
itself, viewed as ``(N, C, H*W)``.  This is the only conv forward: the
graph executor copies the window it builds once over its padded scratch
buffer into persistent columns and repeats the GEMM.  The columns die
with the forward; the backward keeps only the input and runs per tap
over wide rows (see :func:`conv2d`), so a train step holds no column
tensor.

Pooling builds no column tensor.  Max pooling is a running
``np.maximum`` over the tap views (:func:`_max_pool`; the graph
executor runs :func:`_running_max` over tap views it binds once into
its arena) and its backward hands each output's gradient to the first
tap, in row-major order, equal to the max, which is ``argmax``'s tie
rule.  When the windows tile the input (stride equal to kernel, no
rows or columns left over) each input belongs to one tap of one window,
so the backward writes every tap's gradient straight into an empty
buffer; other geometries add into a zeroed one with ``+=``, so
overlapping windows accumulate.
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


def _windows(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int] = (1, 1),
    width: int = None,
) -> np.ndarray:
    """The ``(N, C, KH, KW, OH, OW)`` strided window of an NCHW array.

    Element ``[:, :, i, j, p, q]`` is the input a window at output
    ``(p, q)`` reads through tap ``(i, j)``, which starts at
    ``(i*dh, j*dw)``.  The window shares ``x``'s memory, so writing into
    it writes into ``x``.

    ``width``, when given, replaces ``OW``: each row reads ``width``
    columns from its start.  The view is unchecked, so a ``width`` above
    ``OW`` runs on past the row's end into the next row of ``x``'s
    memory: the first values of the next row, and after the last row the
    memory that follows ``x``.  That needs C-contiguous rows and, for the
    last tap, a spare row of the buffer ``x`` is sliced from.
    """
    h, w = x.shape[2], x.shape[3]
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    oh = (h - dh * (kh - 1) - 1) // sh + 1
    ow = (w - dw * (kw - 1) - 1) // sw + 1
    s0, s1, s2, s3 = x.strides
    return as_strided(x, x.shape[:2] + (kh, kw, oh, ow if width is None else width),
                      (s0, s1, dh * s2, dw * s3, sh * s2, sw * s3))


def _taps(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int] = (1, 1),
    width: int = None,
) -> List[np.ndarray]:
    """The :func:`_windows` view of each kernel tap, row-major: tap
    ``(i, j)`` is the ``(N, C, OH, OW)`` window starting at
    ``(i*dh, j*dw)``."""
    view = _windows(x, kernel, stride, dilation, width)
    return [view[:, :, i, j] for i in range(kernel[0]) for j in range(kernel[1])]


def _im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int] = (1, 1),
    out: np.ndarray = None,
) -> np.ndarray:
    """Gather the kernel taps of an already-padded NCHW array: one copy
    of its :func:`_windows` view.

    ``out``, when given, must be a contiguous ``(N, C, KH, KW, OH, OW)``
    buffer and is filled in place.
    """
    window = _windows(x, kernel, stride, dilation)
    if out is None:
        return window.copy()
    np.copyto(out, window)
    return out


def _is_pointwise(kernel: Tuple[int, int], stride: Tuple[int, int],
                  padding: Tuple[int, int]) -> bool:
    """A 1x1, stride-1, unpadded conv, whose columns are its input."""
    return kernel == (1, 1) and stride == (1, 1) and padding == (0, 0)


def _zero_pad(x: np.ndarray, ph: int, pw: int, spare: int = 0) -> np.ndarray:
    """``x`` copied into a zeroed ``(N, C, H + 2*ph + spare, W + 2*pw)``
    buffer at ``(ph, pw)``: ``np.pad``'s bytes with one copy, plus
    ``spare`` zero rows at the bottom."""
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2 * ph + spare, w + 2 * pw), dtype=x.dtype)
    padded[:, :, ph : ph + h, pw : pw + w] = x
    return padded


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

    n = x.shape[0]
    if _is_pointwise((kh, kw), stride, padding):
        oh, ow = x.shape[2], x.shape[3]
        cols3 = x.data.reshape(n, c, oh * ow)
    else:
        x_pad = _zero_pad(x.data, ph, pw) if (ph or pw) else x.data
        cols = _im2col(x_pad, (kh, kw), stride, dilation)
        oh, ow = cols.shape[4], cols.shape[5]
        cols3 = cols.reshape(n, c * kh * kw, oh * ow)
    # One GEMM per sample: (F, C*KH*KW) @ (C*KH*KW, OH*OW), already NCHW.
    w2 = weight.data.reshape(f, c * kh * kw)
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
                    xp = _zero_pad(x.data, ph, pw, spare)
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


def _running_max(taps: List[np.ndarray], out: np.ndarray = None) -> np.ndarray:
    """The running ``np.maximum`` over tap views, into ``out`` if given.
    A NaN in a window makes that output NaN, as ``argmax`` would pick it."""
    if out is None:
        out = taps[0].copy()
    else:
        np.copyto(out, taps[0])
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    return out


def _max_pool(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int],
              out: np.ndarray = None) -> np.ndarray:
    """Max pooling of an NCHW array: :func:`_running_max` over its tap
    views.  Eager forward calls it, and so does the graph executor when
    it cannot bind the tap views once."""
    return _running_max(_taps(x, kernel, stride), out)


def max_pool2d(x: Tensor, kernel: IntPair, stride: IntPair = None) -> Tensor:
    """Max pooling over NCHW input."""
    x = as_tensor(x)
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    value = _max_pool(x.data, kernel, stride)

    out = x._make_child(value, (x,))
    if out.requires_grad:
        h, w = x.shape[2], x.shape[3]
        oh, ow = value.shape[2], value.shape[3]
        tiled = stride == kernel and oh * kernel[0] == h and ow * kernel[1] == w

        def backward(grad: np.ndarray) -> None:
            # Each output's gradient goes to the first tap equal to its
            # max; ``unclaimed`` marks outputs no earlier tap has taken.
            # ``grad * hit`` is several times faster than a ``where=``
            # add; a non-finite ``grad`` (a step that is lost anyway)
            # also turns the window's other input gradients NaN.  Tiled
            # windows write each input once, so the product goes straight
            # into its tap (a negative gradient leaves -0.0, not 0.0, on
            # the inputs it does not reach).
            grad_x = (np.empty if tiled else np.zeros)(x.shape, dtype=grad.dtype)
            unclaimed = None
            for tap, grad_tap in zip(_taps(x.data, kernel, stride),
                                     _taps(grad_x, kernel, stride)):
                hit = tap == value
                if unclaimed is None:
                    unclaimed = ~hit
                else:
                    hit &= unclaimed
                    unclaimed ^= hit
                if tiled:
                    np.multiply(grad, hit, out=grad_tap)
                else:
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
