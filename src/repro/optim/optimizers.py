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


class Optimizer:
    """Base optimiser: holds parameters and clears gradients."""

    def __init__(self, parameters: Iterable[Tensor], lr: float):
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Persistence (checkpoint/resume support)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Snapshot the optimiser's mutable state (copies)."""
        return {"type": type(self).__name__, "lr": self.lr}

    def load_state_dict(self, state: Dict) -> None:
        """Restore state written by :meth:`state_dict`.

        Raises ``ValueError`` when the snapshot belongs to a different
        optimiser class or does not match the parameter layout.
        """
        if state.get("type") != type(self).__name__:
            raise ValueError(
                f"optimizer state was written by {state.get('type')!r}, "
                f"cannot load into {type(self).__name__}"
            )
        self.lr = float(state["lr"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad

    def state_dict(self) -> Dict:
        state = super().state_dict()
        state["velocity"] = [v.copy() for v in self._velocity]
        return state

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        _load_buffers(self._velocity, state["velocity"], self.parameters, "velocity")


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) — the optimiser used to train YOLLO."""

    def __init__(self, parameters, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict:
        state = super().state_dict()
        state["step_count"] = self._step_count
        state["m"] = [m.copy() for m in self._m]
        state["v"] = [v.copy() for v in self._v]
        return state

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
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
