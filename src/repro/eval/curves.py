"""Training-curve recording (Figure 4)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

#: Share of the best value at which a curve counts as converged.
CONVERGENCE_FRACTION = 0.95
#: Columns and rows of :meth:`TrainingCurve.render_ascii` plots.
PLOT_WIDTH, PLOT_HEIGHT = 60, 12


@dataclass
class TrainingCurve:
    """Accuracy-versus-iteration series recorded during training."""

    label: str
    iterations: List[int] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def record(self, iteration: int, value: float) -> None:
        self.iterations.append(int(iteration))
        self.values.append(float(value))

    def final(self) -> float:
        """Last recorded value (0.0 when nothing was recorded)."""
        return self.values[-1] if self.values else 0.0

    def best(self) -> float:
        return max(self.values) if self.values else 0.0

    def convergence_iteration(self) -> int:
        """First iteration reaching :data:`CONVERGENCE_FRACTION` of the best value.

        Quantifies the paper's "converges within 5000 iterations" claim.
        """
        if not self.values:
            return 0
        target = self.best() * CONVERGENCE_FRACTION
        for iteration, value in zip(self.iterations, self.values):
            if value >= target:
                return iteration
        return self.iterations[-1]

    def as_series(self) -> List[Tuple[int, float]]:
        return list(zip(self.iterations, self.values))

    def render_ascii(self) -> str:
        """Plot the curve as ASCII art for terminal reports."""
        if not self.values:
            return f"{self.label}: (empty)"
        vmax = max(self.values) or 1.0
        rows = [[" "] * PLOT_WIDTH for _ in range(PLOT_HEIGHT)]
        for i, value in enumerate(self.values):
            col = int(i / max(1, len(self.values) - 1) * (PLOT_WIDTH - 1))
            row = PLOT_HEIGHT - 1 - int(value / vmax * (PLOT_HEIGHT - 1))
            rows[row][col] = "*"
        lines = ["".join(r) for r in rows]
        header = f"{self.label} (max={vmax:.3f}, final={self.final():.3f})"
        return "\n".join([header] + lines)
