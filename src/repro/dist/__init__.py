"""Distributed data-parallel training runtime.

Process-based workers (``spawn``), a pipe-mesh collective layer, and a
replicated-step trainer that cuts the task's global batch into
``grad_shards`` slots and reduces their gradients in slot order, so a
run is bit-exact at every world size for a fixed slot count; a run
with one slot is bit-exact with the single-process run.  Every
rank drives the same task object a single-process run steps
(``YolloTrainer`` or ``BackbonePretrainTask``), built inside the
worker by ``build_yollo_task`` / ``build_pretrain_task``.  See
DESIGN.md ("Distributed training") for the protocol, the determinism
contract, and the failure model.

Everything exported here is importable under the ``spawn`` start
method: module-level classes and functions only, no closures.
"""

from repro.dist.collective import (
    Collective,
    CollectiveError,
    CollectiveTimeout,
    PeerLostError,
    ProtocolError,
)
from repro.dist.flatten import TensorManifest, flatten_tensors, unflatten_tensors
from repro.dist.sampler import slot_bounds
from repro.dist.tasks import build_pretrain_task, build_yollo_task
from repro.dist.trainer import DistConfig, DistributedTrainer
from repro.dist.worker import (
    DistReport,
    WorkerGroup,
    WorkerGroupError,
    WorkerSpec,
)

__all__ = [
    "Collective",
    "CollectiveError",
    "CollectiveTimeout",
    "PeerLostError",
    "ProtocolError",
    "TensorManifest",
    "flatten_tensors",
    "unflatten_tensors",
    "slot_bounds",
    "build_pretrain_task",
    "build_yollo_task",
    "DistConfig",
    "DistributedTrainer",
    "DistReport",
    "WorkerGroup",
    "WorkerGroupError",
    "WorkerSpec",
]
