"""Learning-rate schedule driving a :class:`repro.optim.Adam` optimiser."""

from __future__ import annotations

import math
from typing import Dict

from repro.optim.optimizers import Adam


class WarmupCosineLR:
    """Linear warmup followed by cosine decay to ``min_lr``.

    Call :meth:`step` once per optimisation step; it sets and returns the
    optimiser's learning rate for that step.
    """

    def __init__(self, optimizer: Adam, warmup_steps: int, total_steps: int,
                 min_lr: float = 0.0):
        if total_steps <= warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.step_count = 0
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.min_lr = min_lr

    def step(self) -> float:
        self.step_count += 1
        lr = self.compute_lr(self.step_count)
        self.optimizer.lr = lr
        return lr

    def compute_lr(self, step: int) -> float:
        if step <= self.warmup_steps and self.warmup_steps > 0:
            return self.base_lr * step / self.warmup_steps
        progress = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        progress = min(max(progress, 0.0), 1.0)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine

    # ------------------------------------------------------------------
    # Persistence (checkpoint/resume support)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Snapshot the schedule position so resume continues the decay."""
        return {
            "type": type(self).__name__,
            "step_count": self.step_count,
            "base_lr": self.base_lr,
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore state written by :meth:`state_dict`.

        Re-applies the schedule at the restored step so the optimiser's
        learning rate matches the uninterrupted run, instead of
        restarting the decay from step 0.
        """
        if state.get("type") != type(self).__name__:
            raise ValueError(
                f"scheduler state is for {state.get('type')!r}, "
                f"cannot load into {type(self).__name__}"
            )
        self.base_lr = float(state["base_lr"])
        self.step_count = int(state["step_count"])
        if self.step_count > 0:
            self.optimizer.lr = self.compute_lr(self.step_count)
