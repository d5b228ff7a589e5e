"""Functional ops: convolution, pooling, padding, softmax, embedding."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    conv2d,
    embedding_lookup,
    gradient_check,
    log_softmax,
    max_pool2d,
    pad2d,
    softmax,
)


def make(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestConv2d:
    def test_output_shape(self):
        out = conv2d(make((2, 3, 8, 8)), make((5, 3, 3, 3), 1), stride=2, padding=1)
        assert out.shape == (2, 5, 4, 4)

    def test_matches_naive_convolution(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        w = np.random.default_rng(1).normal(size=(1, 1, 2, 2))
        out = conv2d(Tensor(x), Tensor(w)).data
        for i in range(3):
            for j in range(3):
                expected = (x[0, 0, i : i + 2, j : j + 2] * w[0, 0]).sum()
                assert np.isclose(out[0, 0, i, j], expected)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 1, 1)))
        bias = Tensor(np.array([1.0, -1.0]))
        out = conv2d(x, w, bias)
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 1], -1.0)

    @pytest.mark.parametrize("stride,padding,dilation", [
        pytest.param(1, 0, 1, id="1-0"),
        pytest.param(2, 1, 1, id="2-1"),
        pytest.param((1, 2), (2, 1), 1, id="stride2-padding2"),
        pytest.param(1, 2, 2, id="1-2-dilation2"),
        pytest.param(2, (1, 2), (2, 3), id="2-1x2-dilation2x3"),
    ])
    @pytest.mark.usefixtures("float64")
    def test_gradients(self, stride, padding, dilation):
        x, w, b = make((2, 2, 5, 6)), make((3, 2, 3, 3), 1), make((3,), 2)
        gradient_check(
            lambda x, w, b: conv2d(x, w, b, stride=stride, padding=padding,
                                   dilation=dilation),
            [x, w, b],
        )

    @pytest.mark.parametrize("stride,padding,dilation", [(1, 1, 1), (2, 2, 2), (1, 0, 1)])
    def test_batch_matches_single_sample_calls_bytewise(self, stride, padding, dilation):
        """A sample's output does not depend on what it is batched with.

        Served batches are compared against single-query eager answers
        byte for byte, so both eager ``conv2d`` and its compiled kernel
        must give each sample the same bytes at batch 16 and batch 1.
        """
        from repro import autograd
        from repro.graph import ExecutionPlan, trace

        kernel = 1 if padding == 0 else 3
        w = Tensor(np.random.default_rng(1).normal(size=(5, 3, kernel, kernel)))
        b = Tensor(np.random.default_rng(2).normal(size=(5,)))
        x = np.random.default_rng(3).normal(size=(16, 3, 9, 9))

        def fn(t):
            # Through the module, so the tracer records the call.
            return autograd.conv2d(t, w, b, stride=stride, padding=padding,
                                   dilation=dilation)

        batch_plan = ExecutionPlan(trace(fn, Tensor(x)))
        single_plan = ExecutionPlan(trace(fn, Tensor(x[:1])))
        for plan in (batch_plan, single_plan):
            assert plan.num_kernels == 1 and plan.fallbacks == 0
        eager = fn(Tensor(x)).data
        compiled = batch_plan.run(Tensor(x)).data
        for i in range(len(x)):
            sample = Tensor(x[i : i + 1])
            assert eager[i : i + 1].tobytes() == fn(sample).data.tobytes()
            assert compiled[i : i + 1].tobytes() == single_plan.run(sample).data.tobytes()
            assert compiled[i : i + 1].tobytes() == eager[i : i + 1].tobytes()


def reference_conv_grads(x, w, grad, stride, padding, dilation):
    """Both conv gradients by the column formula, in float64.

    Gathers the padded input into an ``(N, C*KH*KW, OH*OW)`` column
    tensor (im2col), takes the weight gradient as one GEMM per sample
    and scatter-adds the column gradient back window by window.
    """
    (sh, sw), (ph, pw), (dh, dw) = stride, padding, dilation
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, ow = grad.shape[2:]
    x_pad = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = [(slice(i * dh, i * dh + sh * oh, sh), slice(j * dw, j * dw + sw * ow, sw))
               for i in range(kh) for j in range(kw)]
    cols = np.stack([x_pad[:, :, rs, cs] for rs, cs in windows], axis=2)
    cols = cols.reshape(n, c * kh * kw, oh * ow)
    g3 = grad.reshape(n, f, oh * ow)
    grad_w = sum(g3[k] @ cols[k].T for k in range(n)).reshape(w.shape)
    grad_cols = (w.reshape(f, -1).T @ g3).reshape(n, c, kh * kw, oh, ow)
    grad_pad = np.zeros_like(x_pad)
    for t, (rs, cs) in enumerate(windows):
        grad_pad[:, :, rs, cs] += grad_cols[:, :, t]
    return grad_w, grad_pad[:, :, ph:ph + h, pw:pw + wd]


STRIDES = [1, 2, (1, 2), (2, 1)]
PADDINGS = [0, 1, (2, 1)]
DILATIONS = [1, 2, (2, 3)]
KERNELS = [(1, 1), (3, 3), (2, 3)]


class TestConv2dBackward:
    """The per-tap backward against the column formula it replaced."""

    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("stride,padding,dilation,kernel",
                             list(itertools.product(STRIDES, PADDINGS, DILATIONS, KERNELS)))
    def test_matches_column_reference(self, stride, padding, dilation, kernel):
        # No padding with a 3x3 kernel at stride 1 reads the spare row.
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 9, 11)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3) + kernel), requires_grad=True)
        out = conv2d(x, w, stride=stride, padding=padding, dilation=dilation)
        grad = rng.normal(size=out.shape)
        out.backward(grad)
        pair = lambda v: (v, v) if isinstance(v, int) else v
        grad_w, grad_x = reference_conv_grads(x.data, w.data, grad, pair(stride),
                                              pair(padding), pair(dilation))
        np.testing.assert_allclose(w.grad, grad_w, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(x.grad, grad_x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), ((2, 1), 0)])
    def test_finite_input_finite_gradients_and_inf_poisons_weight(self, stride, padding):
        """A wide run's columns past ``OW`` read the next row's first
        values (the spare zero row after the last) and meet only zero
        gradient columns, so a finite input gives finite gradients.  An
        ``inf`` pixel, mid-row or at the start of an interior row, still
        reaches the weight gradient, so the anomaly guard skips the
        step."""
        rng = np.random.default_rng(6)
        data = rng.normal(size=(2, 3, 8, 10)).astype(np.float32)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        x = Tensor(data, requires_grad=True)
        out = conv2d(x, w, stride=stride, padding=padding)
        out.backward(np.ones(out.shape, dtype=np.float32))
        assert np.isfinite(w.grad).all() and np.isfinite(x.grad).all()

        for pixel in [(1, 2, 4, 5), (0, 1, 3, 0)]:
            poisoned = data.copy()
            poisoned[pixel] = np.inf
            w.grad = None
            with np.errstate(invalid="ignore"):
                conv2d(Tensor(poisoned), w, stride=stride, padding=padding).sum().backward()
            assert not np.isfinite(w.grad).all()

    def test_memory_budget(self):
        """After a 3x3 conv's forward only its input and output are alive
        (the im2col backward also kept a column tensor, 9x the input),
        and its backward's transient stays within a fixed multiple of
        the input."""
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32), requires_grad=True)
        grad = rng.normal(size=(16, 16, 24, 36)).astype(np.float32)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            x = Tensor(rng.normal(size=(16, 16, 24, 36)).astype(np.float32),
                       requires_grad=True)
            out = conv2d(x, w, padding=1)
            kept = tracemalloc.get_traced_memory()[0] - start
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out.backward(grad)
            transient = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # A few KB of Python objects ride along with the two arrays.
        assert kept <= x.data.nbytes + out.data.nbytes + 64 * 1024
        # Peak during the input gradient: the seed copy, the widened
        # gradient, the padded gradient buffer and one tap's product,
        # 4.4x measured (the padded input is freed by then); the im2col
        # backward peaked at 12.2x.
        assert transient <= 4.6 * x.data.nbytes


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_goes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        assert x.grad.sum() == 4
        assert x.grad[0, 0, 1, 1] == 1.0

    def test_max_pool_stride(self):
        out = max_pool2d(make((1, 1, 6, 6)), 2, stride=3)
        assert out.shape == (1, 1, 2, 2)


def reference_max_pool(x, kernel, stride, grad):
    """Max pooling as an im2col gather and an ``argmax`` over the taps.

    Returns the pooled values and the input gradient for output
    gradient ``grad``: each output's gradient goes to its window's
    argmax, scattered back tap by tap.
    """
    (kh, kw), (sh, sw) = kernel, stride
    n, c, h, w = x.shape
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    taps = [(i, j) for i in range(kh) for j in range(kw)]
    cols = np.stack([x[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] for i, j in taps], axis=2)
    argmax = cols.argmax(axis=2)
    grad_x = np.zeros_like(x)
    for k, (i, j) in enumerate(taps):
        grad_x[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += np.where(argmax == k, grad, 0.0)
    return cols.max(axis=2), grad_x


def relu_with_ties(shape, seed):
    """ReLU'd activations: mostly tied zeros, of both signs, and positive
    values rounded so that they tie too."""
    data = np.round(np.random.default_rng(seed).normal(size=shape) - 1.0, 1)
    data[..., ::5] = 0.0
    return Tensor(data).relu().data


class TestMaxPoolKernel:
    CASES = [
        pytest.param((2, 3, 8, 8), (2, 2), (2, 2), id="k2s2"),
        pytest.param((2, 3, 9, 9), (3, 3), (2, 2), id="k3s2-overlap"),
        pytest.param((2, 2, 8, 8), (2, 2), (3, 3), id="k2s3-gaps"),
        pytest.param((2, 3, 7, 9), (2, 2), (2, 2), id="odd-hw"),
        pytest.param((1, 2, 7, 10), (3, 2), (1, 2), id="rect-overlap"),
    ]

    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("shape,kernel,stride", CASES)
    @pytest.mark.parametrize("ties", [True, False], ids=["relu-ties", "tie-free"])
    def test_matches_im2col_argmax_reference(self, shape, kernel, stride, ties):
        data = relu_with_ties(shape, 0) if ties else np.random.default_rng(0).normal(size=shape)
        x = Tensor(data, requires_grad=True)
        out = max_pool2d(x, kernel, stride)
        grad = np.random.default_rng(1).normal(size=out.shape)
        out.backward(grad)
        value, grad_x = reference_max_pool(data, kernel, stride, grad)
        assert np.array_equal(out.data, value)
        assert np.array_equal(x.grad, grad_x)
        if ties:
            assert (value == 0).mean() > 0.1  # the tie rule was exercised

    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("shape,kernel,stride", CASES)
    def test_gradcheck_tie_free(self, shape, kernel, stride):
        gradient_check(lambda x: max_pool2d(x, kernel, stride), [make(shape, 3)])

    @pytest.mark.parametrize("shape,kernel,stride", CASES)
    def test_compiled_matches_eager_bytewise(self, shape, kernel, stride):
        from repro import autograd
        from repro.graph import ExecutionPlan, trace

        def fn(t):
            return autograd.max_pool2d(t, kernel, stride)

        x = relu_with_ties(shape, 2)
        plan = ExecutionPlan(trace(fn, Tensor(x)))
        assert plan.num_kernels == 1 and plan.fallbacks == 0
        other = relu_with_ties(shape, 4)
        for data in (x, other):
            assert plan.run(Tensor(data)).data.tobytes() == fn(Tensor(data)).data.tobytes()


class TestPad2d:
    def test_values(self):
        out = pad2d(Tensor(np.ones((1, 1, 2, 2))), 1)
        assert out.shape == (1, 1, 4, 4)
        assert out.data.sum() == 4

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        gradient_check(lambda x: pad2d(x, (1, 2)), [make((2, 2, 3, 3))])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = softmax(make((4, 7)), axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_stability_with_large_logits(self):
        out = softmax(Tensor([[1000.0, 1000.0]]))
        assert np.allclose(out.data, 0.5)

    def test_log_softmax_matches_log_of_softmax(self):
        x = make((3, 5))
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data))

    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_gradients(self, axis):
        gradient_check(lambda x: softmax(x, axis=axis), [make((3, 4))])
        gradient_check(lambda x: log_softmax(x, axis=axis), [make((3, 4), 1)])


class TestEmbedding:
    def test_lookup_values(self):
        weight = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(weight, np.array([2, 0]))
        assert np.allclose(out.data[0], [6, 7, 8])

    def test_duplicate_indices_accumulate_grads(self):
        weight = Tensor(np.zeros((4, 2)), requires_grad=True)
        embedding_lookup(weight, np.array([1, 1, 2])).sum().backward()
        assert np.allclose(weight.grad[1], [2.0, 2.0])
        assert np.allclose(weight.grad[2], [1.0, 1.0])

    @pytest.mark.usefixtures("float64")
    def test_grad_check_2d_indices(self):
        weight = make((6, 4))
        idx = np.array([[0, 5], [3, 3]])
        gradient_check(lambda w: embedding_lookup(w, idx), [weight])
