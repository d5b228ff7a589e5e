"""Recurrent cells used by the two-stage baselines (speaker / listener).

Implements an LSTM cell plus a sequence-unrolling wrapper.  These
model the RNN query encoders and the captioning decoder of the
speaker-listener-reinforcer baseline family.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, concatenate, get_default_dtype, stack, zeros
from repro.nn.layers import Linear
from repro.nn.module import Module


class LSTMCell(Module):
    """Single-step LSTM: gates computed from ``[x; h]`` with one matmul."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator = None):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.gates = Linear(input_size + hidden_size, 4 * hidden_size, rng=rng)
        # Forget-gate bias of 1 stabilises early training.
        self.gates.bias.data[hidden_size : 2 * hidden_size] = 1.0

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        combined = concatenate([x, h_prev], axis=-1)
        pre = self.gates(combined)
        hs = self.hidden_size
        i = pre[:, 0 * hs : 1 * hs].sigmoid()
        f = pre[:, 1 * hs : 2 * hs].sigmoid()
        g = pre[:, 2 * hs : 3 * hs].tanh()
        o = pre[:, 3 * hs : 4 * hs].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        return (zeros((batch_size, self.hidden_size)), zeros((batch_size, self.hidden_size)))


class LSTM(Module):
    """Unroll an :class:`LSTMCell` over a ``(batch, time, features)`` input.

    Returns the per-step hidden states stacked on the time axis and the
    final ``(h, c)`` state.  ``mask`` (batch, time in {0,1}) freezes the
    state on padded steps so variable-length queries encode correctly.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator = None):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(
        self,
        x: Tensor,
        mask: Optional[np.ndarray] = None,
        state: Optional[Tuple[Tensor, Tensor]] = None,
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        batch, steps = x.shape[0], x.shape[1]
        h, c = state if state is not None else self.cell.initial_state(batch)
        outputs: List[Tensor] = []
        for t in range(steps):
            h_new, c_new = self.cell(x[:, t], (h, c))
            if mask is not None:
                keep = Tensor(mask[:, t : t + 1].astype(get_default_dtype()))
                h = keep * h_new + (1.0 - keep) * h
                c = keep * c_new + (1.0 - keep) * c
            else:
                h, c = h_new, c_new
            outputs.append(h)
        return stack(outputs, axis=1), (h, c)
