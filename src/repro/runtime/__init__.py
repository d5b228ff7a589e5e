"""Fault-tolerant training runtime.

Makes every gradient-descent loop in the repo crash-safe and
self-healing: atomic checksummed checkpoints with rotation and
bit-exact resume (:mod:`checkpoint`), NaN/spike anomaly guards with
skip-step and rollback (:mod:`guards`), retry with jittered backoff
for flaky auxiliary stages (:mod:`retry`), a deterministic
fault-injection harness (:mod:`faults`), and the
:class:`TrainingSupervisor` orchestrating all of it (:mod:`supervisor`).
"""

from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointManager,
    FingerprintMismatchError,
    cached,
    config_fingerprint,
    read_checkpoint,
    state_checksum,
    write_checkpoint,
)
from repro.runtime.guards import (
    AnomalyGuard,
    GuardAction,
    GuardVerdict,
    nonfinite_gradients,
)
from repro.runtime.retry import (
    RetryExhaustedError,
    backoff_delay,
    retry_call,
)
from repro.runtime.faults import FaultPlan, SimulatedCrash, corrupt_file
from repro.runtime.supervisor import (
    CallbackTask,
    SupervisedTask,
    SupervisorReport,
    TrainingAborted,
    TrainingSupervisor,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointManager",
    "FingerprintMismatchError",
    "cached",
    "config_fingerprint",
    "read_checkpoint",
    "state_checksum",
    "write_checkpoint",
    "AnomalyGuard",
    "GuardAction",
    "GuardVerdict",
    "nonfinite_gradients",
    "RetryExhaustedError",
    "backoff_delay",
    "retry_call",
    "FaultPlan",
    "SimulatedCrash",
    "corrupt_file",
    "SupervisedTask",
    "CallbackTask",
    "SupervisorReport",
    "TrainingAborted",
    "TrainingSupervisor",
]
