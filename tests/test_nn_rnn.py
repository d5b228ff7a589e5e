"""Recurrent cells: LSTM, sequence unrolling with masks."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradient_check
from repro.nn import LSTM, LSTMCell


def make(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestLSTMCell:
    def test_state_shapes(self):
        cell = LSTMCell(4, 6)
        h, c = cell.initial_state(3)
        h2, c2 = cell(make((3, 4)), (h, c))
        assert h2.shape == (3, 6) and c2.shape == (3, 6)

    def test_forget_bias_initialised(self):
        cell = LSTMCell(2, 3)
        assert np.allclose(cell.gates.bias.data[3:6], 1.0)

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        cell = LSTMCell(3, 4)
        x = make((2, 3))

        def run(x):
            h, c = cell.initial_state(2)
            h, c = cell(x, (h, c))
            return h + c

        gradient_check(run, [x])


class TestLSTMSequence:
    def test_output_shapes(self):
        lstm = LSTM(4, 6)
        outputs, (h, c) = lstm(make((2, 5, 4)))
        assert outputs.shape == (2, 5, 6)
        assert h.shape == (2, 6)

    def test_mask_freezes_state(self):
        """Padded steps must not change the final hidden state."""
        lstm = LSTM(3, 4)
        x = make((1, 4, 3))
        mask_short = np.array([[1, 1, 0, 0]])
        _, (h_masked, _) = lstm(x, mask=mask_short)
        x_short = Tensor(x.data[:, :2])
        _, (h_exact, _) = lstm(x_short)
        assert np.allclose(h_masked.data, h_exact.data)

    def test_mask_varies_per_sample(self):
        lstm = LSTM(3, 4)
        x = make((2, 3, 3))
        mask = np.array([[1, 0, 0], [1, 1, 1]])
        outputs, _ = lstm(x, mask=mask)
        # Sample 0 output frozen after step 0.
        assert np.allclose(outputs.data[0, 0], outputs.data[0, 2])

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        lstm = LSTM(2, 3)
        x = make((2, 3, 2))
        mask = np.array([[1, 1, 1], [1, 1, 0]])
        gradient_check(lambda x: lstm(x, mask=mask)[0], [x])
