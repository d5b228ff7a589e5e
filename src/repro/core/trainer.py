"""End-to-end YOLLO training loop (Section 4.2).

Adam over the total loss of Eq. (9); the backbone and word embeddings
are fine-tuned jointly with everything else, as in the paper.  The
trainer records per-step losses and a validation ACC@0.5 curve — the
data behind Figure 4.

The loop is structured as a :class:`repro.runtime.SupervisedTask`:
``forward_backward`` computes the loss and gradients for the next
minibatch and ``apply_step`` performs the optimiser update, so a
:class:`repro.runtime.TrainingSupervisor` can interpose anomaly guards
and checkpointing between the two.

Batches and anchor draws follow one schedule, a pure function of a
seed drawn once at construction and of the iteration number (see
:meth:`YolloTrainer.global_batch` and
:meth:`YolloTrainer.slot_forward_backward`).  A single-process step is
slot 0 of a one-slot decomposition, so a data-parallel run with one
gradient slot steps through exactly the same trajectory.  All mutable
training state — model parameters, Adam moments, the schedule seed,
the iteration and the recorded history — round-trips through
``state_dict``/``load_state_dict``, which makes kill/resume bit-exact:
training N iterations, checkpointing, and resuming for N more yields
parameters and losses identical to an uninterrupted 2N-iteration run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.core.config import YolloConfig
from repro.core.losses import LossBreakdown, yollo_loss
from repro.core.predictor import Grounder
from repro.core.yollo import YolloModel
from repro.data.loader import encode_batch
from repro.data.refcoco import GroundingDataset
from repro.eval.curves import TrainingCurve
from repro.eval.metrics import evaluate_grounder
from repro.obs import MetricsRegistry, get_registry, trace_span
from repro.optim import Adam, clip_grad_norm
from repro.runtime import TrainingSupervisor
from repro.utils.logging import ProgressLogger
from repro.utils.seeding import spawn_rng

#: Global gradient-norm bound applied before every optimiser update.
GRAD_CLIP = 5.0
#: Split the periodic evaluations score.
EVAL_SPLIT = "val"


@dataclass
class TrainingHistory:
    """Everything recorded during one training run."""

    losses: List[float] = field(default_factory=list)
    loss_components: List[Dict[str, float]] = field(default_factory=list)
    curve: TrainingCurve = field(default_factory=lambda: TrainingCurve(label="val ACC@0.5"))
    iterations: int = 0

    def to_state(self) -> Dict[str, Any]:
        """Serialise to plain containers for checkpointing."""
        return {
            "losses": list(self.losses),
            "loss_components": [dict(c) for c in self.loss_components],
            "curve": {
                "label": self.curve.label,
                "iterations": list(self.curve.iterations),
                "values": list(self.curve.values),
            },
            "iterations": self.iterations,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "TrainingHistory":
        curve = TrainingCurve(
            label=state["curve"]["label"],
            iterations=list(state["curve"]["iterations"]),
            values=list(state["curve"]["values"]),
        )
        return cls(
            losses=list(state["losses"]),
            loss_components=[dict(c) for c in state["loss_components"]],
            curve=curve,
            iterations=int(state["iterations"]),
        )


class YolloTrainer:
    """Train a :class:`YolloModel` on a :class:`GroundingDataset`.

    Also implements the :class:`repro.runtime.SupervisedTask` protocol,
    so it can be driven by a :class:`repro.runtime.TrainingSupervisor`
    for checkpoint/resume and anomaly recovery::

        trainer.begin_run(epochs=8, eval_every=50)
        TrainingSupervisor(trainer, checkpoint_dir="ckpts",
                           checkpoint_every=100, resume=True).run()
        history = trainer.history
    """

    def __init__(
        self,
        model: YolloModel,
        dataset: GroundingDataset,
        config: Optional[YolloConfig] = None,
        logger: Optional[ProgressLogger] = None,
        rng: Optional[np.random.Generator] = None,
        scheduler: Optional[Callable] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.model = model
        self.dataset = dataset
        self.config = config or model.config
        self.logger = logger or ProgressLogger("yollo-train", enabled=False)
        #: Registry receiving ``train.*`` metrics (process-wide by default).
        self.metrics = metrics if metrics is not None else get_registry()
        rng = rng if rng is not None else spawn_rng("yollo-trainer")
        #: Seeds every epoch's permutation and every step's anchor draws.
        self._schedule_seed = int(rng.integers(2**63))
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        #: Optional LR schedule, built from a factory ``optimizer -> scheduler``
        #: (e.g. ``lambda opt: WarmupCosineLR(opt, 10, 100)``) and stepped after
        #: every optimiser update.  Its position persists through
        #: ``state_dict``/``load_state_dict`` so resume continues the decay.
        self.scheduler = scheduler(self.optimizer) if scheduler is not None else None
        self.grounder = Grounder(model, dataset.vocab)
        self._train_samples = list(dataset["train"])

        # Run state (reset by begin_run, restored by load_state_dict).
        self.history = TrainingHistory()
        self.iteration = 0
        self.total_iterations = 0
        self.eval_every = 0
        self._eval_subset: List = []
        self._epochs_announced = 1
        self._pending = None
        # Best-eval weight tracking (see begin_run(keep_best=...)).
        self._keep_best = False
        self._best_score: Optional[float] = None
        self._best_weights: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------
    # Run setup
    # ------------------------------------------------------------------
    def iterations_per_epoch(self) -> int:
        full, remainder = divmod(len(self._train_samples), self.config.batch_size)
        return full + (1 if remainder else 0)

    def begin_run(
        self,
        epochs: Optional[int] = None,
        iterations: Optional[int] = None,
        eval_every: int = 0,
        eval_samples: int = 32,
        keep_best: bool = False,
    ) -> "YolloTrainer":
        """Reset per-run state and fix the step/eval plan.

        Either ``epochs`` (the default, ``config.epochs``) or an explicit
        ``iterations`` budget determines ``total_iterations``.

        ``keep_best`` snapshots the model weights whenever a periodic
        evaluation improves on the best validation ACC@0.5 so far, and
        restores that snapshot in :meth:`finalize` — the run ends with
        its best-evaluated weights even if training later destabilises.
        The snapshot is not part of ``state_dict``; a resumed run starts
        tracking again from its first post-resume evaluation.
        """
        per_epoch = self.iterations_per_epoch()
        if iterations is not None:
            self.total_iterations = iterations
            self._epochs_announced = max(1, -(-iterations // per_epoch))
        else:
            epochs = epochs if epochs is not None else self.config.epochs
            self.total_iterations = epochs * per_epoch
            self._epochs_announced = epochs
        self.history = TrainingHistory()
        self.iteration = 0
        self.eval_every = eval_every
        self._eval_subset = (
            list(self.dataset[EVAL_SPLIT][:eval_samples]) if eval_every else []
        )
        self._pending = None
        self._keep_best = keep_best
        self._best_score = None
        self._best_weights = None
        return self

    # ------------------------------------------------------------------
    # Classic entry point
    # ------------------------------------------------------------------
    def train(
        self,
        epochs: Optional[int] = None,
        eval_every: int = 0,
        eval_samples: int = 32,
        keep_best: bool = False,
    ) -> TrainingHistory:
        """Run the optimisation loop under a :class:`TrainingSupervisor`.

        ``eval_every > 0`` evaluates validation ACC@0.5 on a fixed subset
        every that many iterations (recorded into the Figure-4 curve).
        ``keep_best`` restores the best-evaluated weights at the end of
        the run (see :meth:`begin_run`).  The supervisor writes no
        checkpoints here; it skips a non-finite or spiking step instead
        of applying it.
        """
        self.begin_run(epochs=epochs, eval_every=eval_every,
                       eval_samples=eval_samples, keep_best=keep_best)
        TrainingSupervisor(self, logger=self.logger).run()
        return self.history

    # ------------------------------------------------------------------
    # SupervisedTask protocol
    # ------------------------------------------------------------------
    def parameters(self) -> List:
        return self.optimizer.parameters

    def global_batch(self, iteration: int) -> np.ndarray:
        """Training-sample indices of the 0-based step ``iteration``.

        Epoch ``e`` visits the training set in the order of a
        permutation drawn from ``(seed, e)``; an epoch is ``ceil(n /
        batch_size)`` steps and its last batch is short.
        """
        epoch, position = divmod(iteration, self.iterations_per_epoch())
        order = np.random.default_rng((self._schedule_seed, epoch)).permutation(
            len(self._train_samples))
        size = self.config.batch_size
        return order[position * size:(position + 1) * size]

    def forward_backward(self) -> float:
        """Loss and gradients for the next minibatch; no parameter update."""
        loss, _ = self.slot_forward_backward(
            self.iteration, 0, self.global_batch(self.iteration))
        return loss

    def slot_forward_backward(
        self, iteration: int, slot: int, indices: np.ndarray
    ) -> Tuple[float, Dict[str, float]]:
        """Loss, loss components, and gradients of one micro-batch slot.

        The anchor sampler draws from ``(seed, iteration, slot)``, so the
        result does not depend on which rank computes the slot.  The
        loss breakdown stays pending for :meth:`apply_step`.
        """
        samples = [self._train_samples[i] for i in indices]
        batch = encode_batch(samples, self.dataset.vocab, self.config.max_query_length)
        with self.metrics.timer("train.forward_backward_seconds"):
            with trace_span("train.forward"):
                output = self.model(
                    Tensor(batch["images"]), batch["token_ids"], batch["token_mask"]
                )
                breakdown = yollo_loss(
                    output.attention_masks,
                    output.cls_logits,
                    output.reg_offsets,
                    batch["target_boxes"],
                    self.model.anchor_grid,
                    self.config,
                    rng=np.random.default_rng((self._schedule_seed, iteration, slot)),
                )
            self.optimizer.zero_grad()
            with trace_span("train.backward"):
                breakdown.total.backward()
        self._pending = breakdown
        return float(breakdown.total.data), {
            "att": breakdown.att, "cls": breakdown.cls, "reg": breakdown.reg}

    def set_reduced_step(self, loss: float, components: Dict[str, float]) -> None:
        """Record a data-parallel run's slot-reduced step for :meth:`apply_step`."""
        self._pending = LossBreakdown(total=Tensor(np.asarray(loss)), **components)

    def apply_step(self, loss_value: float) -> None:
        """Clip, update parameters, and record the step into history."""
        breakdown = self._pending
        self._pending = None
        with self.metrics.timer("train.apply_seconds"), trace_span("train.apply_step"):
            clip_grad_norm(self.optimizer.parameters, GRAD_CLIP)
            self.optimizer.step()
            if self.scheduler is not None:
                self.scheduler.step()
        self.iteration += 1
        self.metrics.counter("train.steps").inc()
        self.metrics.gauge("train.loss").set(loss_value)
        self.history.losses.append(float(loss_value))
        self.history.loss_components.append(
            {"att": breakdown.att, "cls": breakdown.cls, "reg": breakdown.reg}
        )
        self.history.iterations = self.iteration
        per_epoch = self.iterations_per_epoch()
        epoch = (self.iteration - 1) // per_epoch
        self.logger.periodic(
            f"epoch {epoch + 1}/{self._epochs_announced} "
            f"iter {self.iteration} loss={loss_value:.3f}"
        )

    def skip_step(self) -> None:
        """Advance past an anomalous step without touching the weights."""
        self._pending = None
        self.optimizer.zero_grad()
        self.iteration += 1
        self.history.iterations = self.iteration

    def periodic_eval(self) -> None:
        if not self._eval_subset:
            return
        report = evaluate_grounder(self.grounder, self._eval_subset)
        self.history.curve.record(self.iteration, report.acc_at_50)
        self.logger.log(
            f"iter {self.iteration}: val ACC@0.5 = {report.acc_at_50:.3f}")
        if self._keep_best and (self._best_score is None
                                or report.acc_at_50 > self._best_score):
            self._best_score = report.acc_at_50
            self._best_weights = [
                param.data.copy() for param in self.optimizer.parameters
            ]

    def finalize(self) -> None:
        """Trailing evaluation so the curve always ends at the last step."""
        if self.eval_every and (not self.history.curve.iterations
                                or self.history.curve.iterations[-1] != self.iteration):
            self.periodic_eval()
        if self._keep_best and self._best_weights is not None:
            for param, weights in zip(self.optimizer.parameters,
                                      self._best_weights):
                np.copyto(param.data, weights)
            self.logger.log(
                f"restored best-eval weights (val ACC@0.5 = {self._best_score:.3f})")

    def result(self) -> TrainingHistory:
        return self.history

    def fingerprint_data(self) -> Dict[str, Any]:
        return {
            "config": asdict(self.config),
            "vocab_size": len(self.dataset.vocab),
            "train_size": len(self._train_samples),
            "num_parameters": self.model.num_parameters(),
            # Format 1 kept a stateful RNG and the epoch's order and cursor
            # in the payload; its checkpoints cannot be loaded here.
            "schedule_format": 2,
        }

    # ------------------------------------------------------------------
    # State persistence (checkpoint payload)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "scheduler": (
                None if self.scheduler is None else self.scheduler.state_dict()
            ),
            "schedule_seed": self._schedule_seed,
            "iteration": self.iteration,
            "history": self.history.to_state(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        scheduler_state = state.get("scheduler")
        if (scheduler_state is None) != (self.scheduler is None):
            raise ValueError(
                "scheduler mismatch: checkpoint "
                f"{'has' if scheduler_state is not None else 'lacks'} scheduler "
                f"state but this trainer {'lacks' if self.scheduler is None else 'has'} one"
            )
        if self.scheduler is not None:
            self.scheduler.load_state_dict(scheduler_state)
        self._schedule_seed = int(state["schedule_seed"])
        self.iteration = int(state["iteration"])
        self.history = TrainingHistory.from_state(state["history"])
        self._pending = None
