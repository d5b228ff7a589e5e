"""Data-parallel step engine: replicated state, reduced gradients.

:class:`DistributedTrainer` is a :class:`repro.runtime.SupervisedTask`
facade over one training task, so one
:class:`~repro.runtime.TrainingSupervisor` per rank drives the whole
distributed run — anomaly guards, skip/rollback, and (on rank 0)
checkpointing all work unchanged.

The task is the same object a single-process run steps
(:class:`repro.core.YolloTrainer` or
:class:`repro.backbone.pretrain.BackbonePretrainTask`).  Beyond the
``SupervisedTask`` surface it provides ``global_batch(iteration)``
(the step's sample indices),
``slot_forward_backward(iteration, slot, indices)`` (returns ``(loss,
components)`` with gradients left on the parameters), and
``set_reduced_step(loss, components)`` (records the reduced step for
``apply_step``; the trainer has already pointed every ``param.grad``
at its slice of the reduced buffer).

Determinism contract
--------------------
Every iteration's global batch, ``task.global_batch(iteration)``, is
cut into ``grad_shards`` contiguous micro-batch slots by
:func:`~repro.dist.slot_bounds`.  Each slot's gradient bucket, weighted
by ``len(slot) / len(batch)``, is computed by exactly one rank from the
task's per-``(iteration, slot)`` streams, broadcast to every rank, and
summed **in slot order** everywhere.  For a fixed ``grad_shards`` the
reduced gradient is therefore the same at any world size, every rank
applies the identical optimiser step, and replicas never drift.  A
task's single-process step is its slot 0 of one, so with
``grad_shards=1`` the run is bit-exact with
``TrainingSupervisor(task)``.  More slots change the summation order
and the per-slot anchor draws or renders, so they train a different
trajectory.

A communication thread broadcasts the slot buckets (in slot order)
while the main thread is still computing the remaining owned slots, so
the traffic for slot ``k`` runs during the backward pass of slot
``k+1``.

Anomalies and rollback stay replicated: the reduced loss and gradients
are identical on every rank, so every rank's guard reaches the same
verdict, and ``load_state_dict`` broadcasts rank 0's payload before
applying it — a rollback (rank 0 restoring a checkpoint, other ranks
holding only their run-start snapshot) converges back to one state.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.dist.collective import Collective
from repro.dist.flatten import TensorManifest, flatten_tensors, unflatten_tensors
from repro.dist.sampler import slot_bounds
from repro.obs import MetricsRegistry, get_registry, trace_span
from repro.runtime.supervisor import SupervisedTask

#: (weighted flat gradient bucket, weighted loss, weighted components)
SlotPayload = Tuple[np.ndarray, float, Dict[str, float]]


@dataclass
class DistConfig:
    """Algorithmic knobs of the data-parallel runtime."""

    grad_shards: int = 4      #: micro-batch slots per global batch
    timeout: float = 120.0    #: per-receive straggler timeout (seconds)

    def __post_init__(self):
        if self.grad_shards < 1:
            raise ValueError("grad_shards must be >= 1")


class DistributedTrainer(SupervisedTask):
    """Drive one rank of a replicated training run."""

    def __init__(
        self,
        task,
        collective: Collective,
        config: Optional[DistConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.task = task
        self.collective = collective
        self.config = config or DistConfig()
        self.metrics = metrics if metrics is not None else get_registry()
        self._templates = [p.data for p in task.parameters()]
        self._manifest = TensorManifest.of(self._templates)
        bounds = slot_bounds(self.config.grad_shards, collective.world_size)
        self._owner_of = [
            rank
            for rank, (lo, hi) in enumerate(bounds)
            for _ in range(hi - lo)
        ]
        self._mine = [
            s for s, owner in enumerate(self._owner_of)
            if owner == collective.rank
        ]

    # ------------------------------------------------------------------
    # SupervisedTask surface (iteration state lives in the inner task)
    # ------------------------------------------------------------------
    @property
    def iteration(self) -> int:
        return self.task.iteration

    @property
    def total_iterations(self) -> int:
        return self.task.total_iterations

    @property
    def eval_every(self) -> int:
        return self.task.eval_every

    def parameters(self) -> List:
        return self.task.parameters()

    def periodic_eval(self) -> None:
        # Evaluation runs on *every* rank: it is deterministic given the
        # (replicated) weights, and running it everywhere keeps each
        # rank's recorded history — part of the checkpoint payload and
        # the bit-exactness assertion — identical.
        self.task.periodic_eval()

    def finalize(self) -> None:
        self.task.finalize()

    def result(self) -> Any:
        return self.task.result()

    def fingerprint_data(self) -> Dict[str, Any]:
        # Deliberately excludes world size: after a worker failure the
        # group rebuilds smaller and must still resume rank 0's
        # checkpoints.  grad_shards *is* included — it changes the
        # micro-batch decomposition and hence the training trajectory.
        data = dict(self.task.fingerprint_data())
        data["dist"] = {"grad_shards": self.config.grad_shards}
        return data

    def state_dict(self) -> Dict[str, Any]:
        return self.task.state_dict()

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore rank 0's payload on every rank.

        Called collectively.  The local argument only matters on rank 0;
        other ranks discard theirs and apply the broadcast copy, which
        makes resume *and* supervisor rollback (where only rank 0 holds
        a checkpoint manager) converge to one replicated state.
        """
        payload = self.collective.broadcast(
            state if self.collective.rank == 0 else None, root=0
        )
        self.task.load_state_dict(payload)

    def sync_initial_state(self) -> None:
        """Broadcast rank 0's current state so every replica starts equal."""
        self.load_state_dict(self.state_dict())

    # ------------------------------------------------------------------
    # The distributed step
    # ------------------------------------------------------------------
    def forward_backward(self) -> float:
        iteration = self.task.iteration  # 0-based index of the upcoming step
        batch = self.task.global_batch(iteration)
        bounds = slot_bounds(len(batch), self.config.grad_shards)
        slots = [batch[lo:hi] for lo, hi in bounds]
        weights = [(hi - lo) / len(batch) for lo, hi in bounds]
        with self.metrics.timer("dist.step_seconds"), trace_span("dist.step"):
            payloads = self._exchange(iteration, slots, weights)
            flat = np.zeros(self._manifest.total_size,
                            dtype=self._manifest.flat_dtype)
            loss = 0.0
            components: Dict[str, float] = {}
            # Slot-order summation on every rank: the reduction is a
            # pure function of the slot payloads, not of world size.
            for slot_id in range(len(slots)):
                slot_flat, slot_loss, slot_components = payloads[slot_id]
                flat += slot_flat
                loss += slot_loss
                for key, value in slot_components.items():
                    components[key] = components.get(key, 0.0) + value
        for param, view in zip(self.task.parameters(),
                               unflatten_tensors(flat, self._manifest)):
            param.grad = view
        self.task.set_reduced_step(loss, components)
        return loss

    def apply_step(self, loss: float) -> None:
        self.task.apply_step(loss)
        self.metrics.counter("dist.steps").inc()
        self.metrics.gauge(
            f"dist.rank{self.collective.rank}.step"
        ).set(self.task.iteration)

    def skip_step(self) -> None:
        # The guard verdict is identical on every rank (same loss, same
        # reduced gradients), so skips stay collectively consistent.
        self.task.skip_step()

    # ------------------------------------------------------------------
    # Slot computation and exchange
    # ------------------------------------------------------------------
    def _compute_slot(self, iteration: int, slot_id: int,
                      indices: np.ndarray, weight: float) -> SlotPayload:
        if len(indices) == 0 or weight == 0.0:
            flat = np.zeros(self._manifest.total_size,
                            dtype=self._manifest.flat_dtype)
            return flat, 0.0, {}
        with trace_span(f"dist.slot{slot_id}"):
            loss, components = self.task.slot_forward_backward(
                iteration, slot_id, indices
            )
            grads = [p.grad for p in self.task.parameters()]
            flat, _ = flatten_tensors(grads, like=self._templates,
                                      manifest=self._manifest)
        flat *= weight
        return flat, loss * weight, {
            key: value * weight for key, value in components.items()
        }

    def _exchange(
        self, iteration: int, slots: List[np.ndarray], weights: List[float]
    ) -> Dict[int, SlotPayload]:
        """Every rank ends up holding every slot's weighted payload."""
        rank = self.collective.rank
        if self.collective.world_size == 1:
            return {
                s: self._compute_slot(iteration, s, slots[s], weights[s])
                for s in self._mine
            }
        payloads: Dict[int, SlotPayload] = {}
        # The comm thread walks slots in order, broadcasting each from
        # its owner, while the main thread keeps computing the remaining
        # owned slots and feeding them through the queue.
        ready: "queue.Queue[SlotPayload]" = queue.Queue()
        failures: List[BaseException] = []

        def pump() -> None:
            try:
                for s in range(len(slots)):
                    owner = self._owner_of[s]
                    obj = ready.get() if owner == rank else None
                    payloads[s] = self.collective.broadcast(obj, root=owner)
            except BaseException as exc:  # surfaced on the main thread
                failures.append(exc)

        pump_thread = threading.Thread(
            target=pump, name="dist-comm", daemon=True
        )
        pump_thread.start()
        # If a slot raises, the daemonic comm thread times out on its
        # own; the worker is about to die and the group will rebuild.
        for s in self._mine:
            ready.put(self._compute_slot(iteration, s, slots[s], weights[s]))
        pump_thread.join()
        if failures:
            raise failures[0]
        return payloads

