"""Layers: linear, conv, embedding, activations, FFN."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradient_check
from repro import nn


def make(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestLinear:
    def test_shape(self):
        assert nn.Linear(4, 7)(make((5, 4))).shape == (5, 7)

    def test_no_bias(self):
        layer = nn.Linear(4, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_3d_input(self):
        assert nn.Linear(4, 2)(make((2, 5, 4))).shape == (2, 5, 2)

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        layer = nn.Linear(3, 2)
        gradient_check(lambda *i: layer(i[0]), [make((4, 3))] + layer.parameters())


class TestConv2d:
    def test_shape_with_padding(self):
        assert nn.Conv2d(3, 6, 3, padding=1)(make((2, 3, 5, 5))).shape == (2, 6, 5, 5)

    def test_stride(self):
        assert nn.Conv2d(3, 6, 3, stride=2, padding=1)(make((1, 3, 8, 8))).shape == (1, 6, 4, 4)

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        layer = nn.Conv2d(2, 3, 3, padding=1)
        gradient_check(lambda *i: layer(i[0]), [make((1, 2, 4, 4))] + layer.parameters())


class TestEmbedding:
    def test_padding_idx_zero_initialised(self):
        emb = nn.Embedding(5, 4, padding_idx=0)
        assert np.allclose(emb.weight.data[0], 0.0)

    def test_lookup_shape(self):
        emb = nn.Embedding(10, 6)
        assert emb(np.array([[1, 2], [3, 4]])).shape == (2, 2, 6)


class TestActivations:
    def test_relu(self):
        assert np.allclose(nn.ReLU()(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_tanh_sigmoid_bounds(self):
        x = make((10,))
        assert np.all(np.abs(x.tanh().data) <= 1.0)
        out = x.sigmoid().data
        assert np.all((out > 0) & (out < 1))


class TestFeedForward:
    def test_shape(self):
        ffn = nn.FeedForward(4, 8, 6)
        assert ffn(make((3, 4))).shape == (3, 6)

    def test_grad_flows_through_both_layers(self):
        ffn = nn.FeedForward(3, 5, 2)
        x = make((2, 3))
        ffn(x).sum().backward()
        assert ffn.fc1.weight.grad is not None
        assert ffn.fc2.weight.grad is not None


def naive_conv(x, weight, bias, stride, padding, dilation):
    """Direct four-loop cross-correlation (output rows/cols, kernel taps)."""
    n, c, h, w = x.shape
    f, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    span = dilation * (k - 1) + 1
    oh = (h + 2 * padding - span) // stride + 1
    ow = (w + 2 * padding - span) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for y in range(oh):
        for z in range(ow):
            for i in range(k):
                for j in range(k):
                    tap = xp[:, :, y * stride + i * dilation, z * stride + j * dilation]
                    out[:, :, y, z] += tap @ weight[:, :, i, j].T
    return out + bias.reshape(1, -1, 1, 1)


class TestDilatedConv2d:
    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_matches_naive_reference(self, dilation, stride):
        layer = nn.Conv2d(2, 3, 3, stride=stride, padding=dilation, dilation=dilation)
        layer.bias.data[:] = [0.5, -0.25, 1.0]
        x = make((2, 2, 9, 8))
        expected = naive_conv(x.data, layer.weight.data, layer.bias.data,
                              stride, dilation, dilation)
        out = layer(x).data
        assert out.shape == expected.shape
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)

    def test_dilation_one_matches_conv2d_bitwise(self):
        dilated = nn.Conv2d(2, 4, kernel_size=3, padding=1, dilation=1)
        plain = nn.Conv2d(2, 4, kernel_size=3, padding=1)
        plain.weight.data[:] = dilated.weight.data
        x = make((1, 2, 6, 6))
        assert np.array_equal(dilated(x).data, plain(x).data)

    def test_same_padding_preserves_spatial_size(self):
        for dilation in (1, 2, 3):
            layer = nn.Conv2d(3, 3, kernel_size=3, padding=dilation, dilation=dilation)
            assert layer(make((1, 3, 9, 9))).shape == (1, 3, 9, 9)

    def test_matches_conv_on_expanded_kernel(self):
        """Dilated conv == standard conv run with a zero-stuffed kernel."""
        layer = nn.Conv2d(2, 3, kernel_size=3, padding=2, dilation=2)
        reference = nn.Conv2d(2, 3, kernel_size=5, padding=2)
        reference.weight.data[:] = 0.0
        reference.weight.data[:, :, ::2, ::2] = layer.weight.data
        x = make((2, 2, 8, 8))
        assert np.allclose(layer(x).data, reference(x).data)

    @pytest.mark.usefixtures("float64")
    def test_grad_reaches_dense_weight(self):
        layer = nn.Conv2d(2, 2, kernel_size=3, stride=2, padding=1, dilation=2)
        gradient_check(lambda *i: layer(i[0]),
                       [make((1, 2, 7, 6))] + layer.parameters())

    def test_rejects_bad_dilation(self):
        with pytest.raises(ValueError):
            nn.Conv2d(2, 2, kernel_size=3, dilation=0)
