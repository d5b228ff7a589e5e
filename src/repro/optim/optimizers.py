"""Optimisers operating on :class:`repro.nn.Parameter` lists."""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.autograd import Tensor


def _load_buffers(target: List[np.ndarray], source, parameters: List[Tensor],
                  label: str) -> None:
    """Copy serialized moment buffers into ``target``, validating layout."""
    if len(source) != len(parameters):
        raise ValueError(
            f"optimizer state mismatch: {len(source)} {label} buffers for "
            f"{len(parameters)} parameters"
        )
    for index, (buffer, param) in enumerate(zip(source, parameters)):
        value = np.asarray(buffer)
        if value.shape != param.data.shape:
            raise ValueError(
                f"optimizer state mismatch: {label}[{index}] has shape "
                f"{value.shape}, parameter has {param.data.shape}"
            )
        target[index] = value.astype(param.data.dtype, copy=True)


#: Adam's decay rates of the first and second moment estimates.
BETA1, BETA2 = 0.9, 0.999
#: Added to the second-moment root so a zero gradient cannot divide by 0.
EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba, 2014) — the optimiser every model here trains with."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3):
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - BETA1**self._step_count
        bias2 = 1.0 - BETA2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    # ------------------------------------------------------------------
    # Persistence (checkpoint/resume support)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Snapshot the optimiser's mutable state (copies)."""
        return {"type": type(self).__name__, "lr": self.lr,
                "step_count": self._step_count,
                "m": [m.copy() for m in self._m],
                "v": [v.copy() for v in self._v]}

    def load_state_dict(self, state: Dict) -> None:
        """Restore state written by :meth:`state_dict`.

        Raises ``ValueError`` when the snapshot was written by another
        optimiser or does not match the parameter layout.
        """
        if state.get("type") != type(self).__name__:
            raise ValueError(
                f"optimizer state was written by {state.get('type')!r}, "
                f"cannot load into {type(self).__name__}"
            )
        self.lr = float(state["lr"])
        self._step_count = int(state["step_count"])
        _load_buffers(self._m, state["m"], self.parameters, "m")
        _load_buffers(self._v, state["v"], self.parameters, "v")


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).  A
    non-finite total norm leaves every gradient untouched: scaling by
    ``max_norm / nan`` would poison all parameters, whereas leaving the
    gradients alone lets anomaly guards detect and skip the step.
    Gradients are scaled in place, so gradients that are views into one
    buffer (as after a data-parallel reduction) scale that buffer.
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if not np.isfinite(total):
        return total
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for param in params:
            param.grad *= scale
    return total
