"""The gradient checker itself must catch wrong gradients."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradient_check
from repro.autograd.tensor import _unbroadcast


@pytest.mark.usefixtures("float64")
def test_detects_incorrect_gradient():
    """A hand-built op with a deliberately wrong backward must fail."""

    def buggy_double(x: Tensor) -> Tensor:
        out = x._make_child(x.data * 2.0, (x,))

        def backward(grad):
            x._accumulate(grad * 3.0)  # wrong: should be 2.0

        out._backward = backward
        return out

    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(AssertionError):
        gradient_check(buggy_double, [x])


@pytest.mark.usefixtures("float64")
def test_passes_correct_gradient():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3)), requires_grad=True)
    assert gradient_check(lambda x: x * 2 + 1, [x])


@pytest.mark.usefixtures("float64")
def test_reports_missing_gradient():
    def disconnected(x: Tensor) -> Tensor:
        return Tensor(x.data * 2.0, requires_grad=True)

    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises((AssertionError, RuntimeError)):
        gradient_check(disconnected, [x])


@pytest.mark.usefixtures("float64")
def test_skips_inputs_without_grad():
    x = Tensor(np.ones(2), requires_grad=True)
    const = Tensor(np.ones(2), requires_grad=False)
    assert gradient_check(lambda a, b: a * b, [x, const])


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert _unbroadcast(g, (2, 3)) is g

    def test_leading_axis_summed(self):
        assert _unbroadcast(np.ones((4, 2)), (2,)).tolist() == [4.0, 4.0]

    def test_size_one_axis_summed(self):
        out = _unbroadcast(np.ones((3, 5)), (3, 1))
        assert out.shape == (3, 1)
        assert np.allclose(out, 5.0)

    def test_scalar_target(self):
        assert _unbroadcast(np.ones((2, 2)), ()) == 4.0
