"""Anomaly detection for training steps: NaN/Inf losses and gradients.

The guard sits between backward and the optimiser update.  A single
anomalous step (non-finite loss, non-finite gradient, or a loss spike
far above the recent median) is *skipped* — gradients are discarded and
training continues on the next batch.  Repeated consecutive anomalies
indicate corrupted optimiser or model state, and the guard escalates to
a *rollback* to the last good checkpoint.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

#: Consecutive anomalous steps skipped before the guard rolls back.
MAX_CONSECUTIVE = 3
#: A finite loss above ``SPIKE_FACTOR`` times the median of the last
#: ``SPIKE_WINDOW`` healthy losses is an anomaly; the check arms once
#: the window is full, so early training volatility is never punished.
SPIKE_FACTOR = 25.0
SPIKE_WINDOW = 25


class GuardAction(enum.Enum):
    PROCEED = "proceed"
    SKIP = "skip"
    ROLLBACK = "rollback"


@dataclass
class GuardVerdict:
    """Outcome of one anomaly check."""

    action: GuardAction
    reason: str = ""

    def __bool__(self) -> bool:
        return self.action is GuardAction.PROCEED


def nonfinite_gradients(parameters: Iterable) -> List[int]:
    """Indices of parameters whose gradient contains NaN or Inf."""
    bad = []
    for index, param in enumerate(parameters):
        grad = getattr(param, "grad", None)
        if grad is not None and not np.isfinite(grad).all():
            bad.append(index)
    return bad


class AnomalyGuard:
    """Classify each training step as proceed / skip / rollback."""

    def __init__(self, logger=None):
        self.logger = logger
        self.consecutive = 0
        self.anomaly_count = 0
        self._recent: deque = deque(maxlen=SPIKE_WINDOW)

    # ------------------------------------------------------------------
    def _find_anomaly(self, loss: float, parameters: Iterable) -> Optional[str]:
        if not math.isfinite(loss):
            return f"non-finite loss ({loss})"
        bad = nonfinite_gradients(parameters)
        if bad:
            return f"non-finite gradients in {len(bad)} parameter(s)"
        if len(self._recent) == SPIKE_WINDOW:
            median = float(np.median(list(self._recent)))
            if median > 0.0 and loss > SPIKE_FACTOR * median:
                return (f"loss spike ({loss:.3g} > {SPIKE_FACTOR:g}x "
                        f"median {median:.3g})")
        return None

    def assess(self, loss: float, parameters: Iterable = ()) -> GuardVerdict:
        """Check one step; healthy losses feed the spike-detection window."""
        reason = self._find_anomaly(float(loss), parameters)
        if reason is None:
            self.consecutive = 0
            self._recent.append(float(loss))
            return GuardVerdict(GuardAction.PROCEED)
        self.consecutive += 1
        self.anomaly_count += 1
        if self.logger is not None:
            self.logger.log(f"anomaly #{self.consecutive}: {reason}")
        if self.consecutive >= MAX_CONSECUTIVE:
            return GuardVerdict(GuardAction.ROLLBACK, reason)
        return GuardVerdict(GuardAction.SKIP, reason)

    def reset(self) -> None:
        """Forget streak and loss window (call after a rollback)."""
        self.consecutive = 0
        self._recent.clear()
