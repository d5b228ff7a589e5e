"""Crash-safe, self-healing training supervision.

:class:`TrainingSupervisor` drives any :class:`SupervisedTask` (the
YOLLO trainer, the backbone pretrain loop, the two-stage matcher loops)
through a fault-tolerant run loop:

* each step is split into ``forward_backward`` (compute loss and
  gradients) and ``apply_step`` (optimiser update), so an
  :class:`~repro.runtime.guards.AnomalyGuard` can inspect the loss and
  gradients in between and *skip* anomalous steps;
* repeated consecutive anomalies trigger a *rollback* to the last good
  checkpoint (or the run-start snapshot);
* checkpoints are written atomically every ``checkpoint_every``
  iterations with retry/backoff, and a persistently failing write
  degrades gracefully — it never kills the run;
* periodic evaluation failures are retried once and then logged and
  skipped;
* ``resume=True`` restores the newest valid checkpoint and continues
  bit-exactly: model, optimiser moments, RNG streams, batch-order
  state, and history are all part of the checkpoint payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.obs import MetricsRegistry, get_registry
from repro.runtime.checkpoint import CheckpointManager, config_fingerprint
from repro.runtime.guards import AnomalyGuard, GuardAction
from repro.runtime.retry import RetryExhaustedError, retry_call
from repro.utils.logging import ProgressLogger

#: Attempts per periodic evaluation before its failure is logged and skipped.
EVAL_RETRY_ATTEMPTS = 2
#: Attempts per checkpoint write before it is logged and skipped.
IO_RETRY_ATTEMPTS = 3
#: Rollbacks one run survives; the next anomaly streak aborts it.
MAX_ROLLBACKS = 5


class TrainingAborted(RuntimeError):
    """Raised when recovery is impossible (rollback budget exhausted)."""


class SupervisedTask:
    """Protocol for a training loop the supervisor can drive.

    Subclasses (or duck-typed equivalents) maintain ``iteration``,
    ``total_iterations`` and ``eval_every`` attributes and implement
    the step/state methods below.  ``forward_backward`` may return
    ``None`` to signal a no-op iteration (e.g. a skipped sample in the
    listener's ranking loop); the guard is not consulted for those, but
    the iteration still counts toward the eval and checkpoint schedule.
    """

    iteration: int = 0
    total_iterations: int = 0
    eval_every: int = 0

    def parameters(self) -> List:
        raise NotImplementedError

    def forward_backward(self) -> Optional[float]:
        """Compute the next step's loss and gradients; do not update."""
        raise NotImplementedError

    def apply_step(self, loss: float) -> None:
        """Apply the optimiser update and record history."""
        raise NotImplementedError

    def skip_step(self) -> None:
        """Discard the pending gradients and advance the iteration."""
        raise NotImplementedError

    def periodic_eval(self) -> None:
        """Optional mid-run evaluation; may raise (handled gracefully)."""

    def finalize(self) -> None:
        """Optional end-of-run hook (e.g. a trailing evaluation)."""

    def state_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError

    def fingerprint_data(self) -> Dict[str, Any]:
        """Configuration description hashed into the checkpoint fingerprint."""
        return {}

    def result(self) -> Any:
        """Whatever the underlying loop would have returned."""
        return None


@dataclass
class SupervisorReport:
    """Counters describing what one supervised run survived."""

    iterations: int = 0
    resumed_from: Optional[int] = None
    skipped_steps: int = 0
    rollbacks: int = 0
    checkpoint_writes: int = 0
    checkpoint_failures: int = 0
    checkpoint_seconds: float = 0.0
    eval_failures: int = 0
    wall_seconds: float = 0.0
    result: Any = None


class TrainingSupervisor:
    """Wrap a :class:`SupervisedTask` into a resumable, guarded ``run()``.

    Every trainer in the package steps through :meth:`run`.  Without a
    ``checkpoint_dir`` the run is guarded but not persisted (rollbacks
    fall back to the run-start snapshot), and ``resume=True`` is
    rejected at construction.
    """

    def __init__(
        self,
        task: SupervisedTask,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        resume: bool = False,
        fault_plan=None,
        logger: Optional[ProgressLogger] = None,
        retry_sleep: Callable[[float], None] = time.sleep,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        self.task = task
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.fault_plan = fault_plan
        self.logger = logger or ProgressLogger("supervisor", enabled=False)
        #: Registry receiving ``runtime.*`` metrics (process-wide default);
        #: the :class:`SupervisorReport` counters stay authoritative for a
        #: single run, the registry aggregates across runs.
        self.metrics = metrics if metrics is not None else get_registry()
        self.guard = AnomalyGuard(logger=self.logger)
        self.retry_sleep = retry_sleep
        self.manager: Optional[CheckpointManager] = None
        if checkpoint_dir is not None:
            self.manager = CheckpointManager(
                checkpoint_dir,
                fingerprint=config_fingerprint(task.fingerprint_data()),
                fault_plan=fault_plan,
                logger=self.logger,
            )

    # ------------------------------------------------------------------
    def run(self) -> SupervisorReport:
        """Drive the task to ``total_iterations``, surviving faults."""
        task = self.task
        report = SupervisorReport()
        started = time.perf_counter()

        if self.manager is not None and self.resume:
            checkpoint = self.manager.load_latest()
            if checkpoint is not None:
                task.load_state_dict(checkpoint.payload)
                report.resumed_from = checkpoint.iteration
                self.guard.reset()
                self.logger.log(f"resumed from iteration {checkpoint.iteration}")

        # Rollback target of last resort, before any checkpoint exists.
        initial_snapshot = task.state_dict()
        last_saved_iteration = report.resumed_from

        while task.iteration < task.total_iterations:
            upcoming = task.iteration + 1
            if self.fault_plan is not None:
                self.fault_plan.before_step(upcoming)

            loss = task.forward_backward()
            if loss is None:
                task.skip_step()  # no-op iteration (e.g. unusable sample)
            else:
                if self.fault_plan is not None:
                    self.fault_plan.mutate_gradients(upcoming, task.parameters())
                    loss = self.fault_plan.mutate_loss(upcoming, loss)
                verdict = self.guard.assess(loss, task.parameters())
                if verdict.action is GuardAction.PROCEED:
                    task.apply_step(loss)
                elif verdict.action is GuardAction.SKIP:
                    self.logger.log(
                        f"skipping iteration {upcoming}: {verdict.reason}"
                    )
                    task.skip_step()
                    report.skipped_steps += 1
                    self.metrics.counter("runtime.skipped_steps").inc()
                else:  # ROLLBACK
                    self._rollback(report, initial_snapshot, verdict.reason)
                    continue

            if task.eval_every and task.iteration % task.eval_every == 0:
                self._guarded_eval(report)
            if (self.manager is not None and self.checkpoint_every
                    and task.iteration % self.checkpoint_every == 0):
                if self._save_checkpoint(report):
                    last_saved_iteration = task.iteration

        task.finalize()
        if (self.manager is not None and self.checkpoint_every
                and last_saved_iteration != task.iteration):
            self._save_checkpoint(report)

        report.iterations = task.iteration
        report.result = task.result()
        report.wall_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    def _rollback(self, report: SupervisorReport, initial_snapshot: Dict,
                  reason: str) -> None:
        report.rollbacks += 1
        self.metrics.counter("runtime.rollbacks").inc()
        if report.rollbacks > MAX_ROLLBACKS:
            raise TrainingAborted(
                f"aborting after {report.rollbacks - 1} rollbacks "
                f"(last anomaly: {reason})"
            )
        checkpoint = self.manager.load_latest() if self.manager is not None else None
        if checkpoint is not None:
            self.task.load_state_dict(checkpoint.payload)
            target = f"checkpoint at iteration {checkpoint.iteration}"
        else:
            self.task.load_state_dict(initial_snapshot)
            target = "run-start snapshot"
        self.guard.reset()
        self.logger.log(f"rolled back to {target} ({reason})")

    def _guarded_eval(self, report: SupervisorReport) -> None:
        iteration = self.task.iteration

        def attempt() -> None:
            if self.fault_plan is not None:
                self.fault_plan.on_eval(iteration)
            self.task.periodic_eval()

        try:
            retry_call(
                attempt,
                attempts=EVAL_RETRY_ATTEMPTS,
                base_delay=0.01,
                retry_on=(Exception,),
                describe=f"evaluation at iteration {iteration}",
                sleep=self.retry_sleep,
                logger=self.logger,
            )
        except RetryExhaustedError as exc:
            report.eval_failures += 1
            self.metrics.counter("runtime.eval_failures").inc()
            self.logger.log(f"evaluation degraded, training continues: {exc}")

    def _save_checkpoint(self, report: SupervisorReport) -> bool:
        started = time.perf_counter()
        payload = self.task.state_dict()
        iteration = self.task.iteration
        try:
            retry_call(
                lambda: self.manager.save(payload, iteration),
                attempts=IO_RETRY_ATTEMPTS,
                base_delay=0.01,
                retry_on=(OSError,),
                describe=f"checkpoint write at iteration {iteration}",
                sleep=self.retry_sleep,
                logger=self.logger,
            )
        except RetryExhaustedError as exc:
            report.checkpoint_failures += 1
            self.metrics.counter("runtime.checkpoint_failures").inc()
            self.logger.log(f"checkpoint degraded, training continues: {exc}")
            return False
        finally:
            elapsed = time.perf_counter() - started
            report.checkpoint_seconds += elapsed
            self.metrics.histogram("runtime.checkpoint_seconds").observe(elapsed)
        report.checkpoint_writes += 1
        self.metrics.counter("runtime.checkpoint_writes").inc()
        return True


class CallbackTask(SupervisedTask):
    """Adapt a closure-style training loop to the supervisor protocol.

    The function-style loops (backbone pretrain, listener/speaker
    training) become supervisable by splitting their body into a
    ``forward_backward(step_index)`` closure (sample data, compute the
    loss, call ``backward``; return the loss value or ``None`` to skip
    the sample) and an ``apply_update(step_number, loss)`` closure
    (optimiser step, history bookkeeping).  Model parameters, optimiser
    moments, the RNG stream, and loop-specific extra state are all
    captured in ``state_dict`` so such loops checkpoint and resume.
    """

    def __init__(
        self,
        total_iterations: int,
        forward_backward: Callable[[int], Optional[float]],
        apply_update: Callable[[int, float], None],
        *,
        optimizer,
        modules: Optional[Dict[str, Any]] = None,
        rng=None,
        fingerprint_data: Optional[Dict[str, Any]] = None,
        eval_every: int = 0,
        evaluate: Optional[Callable[[int], None]] = None,
        extra_state: Optional[Callable[[], Dict[str, Any]]] = None,
        load_extra_state: Optional[Callable[[Dict[str, Any]], None]] = None,
        result: Optional[Callable[[], Any]] = None,
    ):
        self.iteration = 0
        self.total_iterations = total_iterations
        self.eval_every = eval_every
        self._forward_backward = forward_backward
        self._apply_update = apply_update
        self._optimizer = optimizer
        self._modules = modules or {}
        self._rng = rng
        self._fingerprint_data = fingerprint_data or {}
        self._evaluate = evaluate
        self._extra_state = extra_state
        self._load_extra_state = load_extra_state
        self._result = result

    def parameters(self) -> List:
        return self._optimizer.parameters

    def forward_backward(self) -> Optional[float]:
        return self._forward_backward(self.iteration)

    def apply_step(self, loss: float) -> None:
        self.iteration += 1
        self._apply_update(self.iteration, loss)

    def skip_step(self) -> None:
        self._optimizer.zero_grad()
        self.iteration += 1

    def periodic_eval(self) -> None:
        if self._evaluate is not None:
            self._evaluate(self.iteration)

    def fingerprint_data(self) -> Dict[str, Any]:
        return self._fingerprint_data

    def result(self) -> Any:
        return self._result() if self._result is not None else None

    def state_dict(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {
            "iteration": self.iteration,
            "optimizer": self._optimizer.state_dict(),
            "modules": {name: module.state_dict()
                        for name, module in self._modules.items()},
        }
        if not self._modules:
            # Loose parameters not owned by a Module tree.
            state["params"] = [p.data.copy() for p in self._optimizer.parameters]
        if self._rng is not None:
            state["rng"] = _copy_rng_state(self._rng.bit_generator.state)
        if self._extra_state is not None:
            state["extra"] = self._extra_state()
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.iteration = int(state["iteration"])
        self._optimizer.load_state_dict(state["optimizer"])
        for name, module in self._modules.items():
            module.load_state_dict(state["modules"][name])
        if not self._modules:
            for param, value in zip(self._optimizer.parameters, state["params"]):
                param.data[...] = value
        if self._rng is not None and "rng" in state:
            self._rng.bit_generator.state = _copy_rng_state(state["rng"])
        if self._load_extra_state is not None and "extra" in state:
            self._load_extra_state(state["extra"])


def _copy_rng_state(state: Dict) -> Dict:
    """Deep-copy a numpy BitGenerator state dict (nested dicts/arrays)."""
    copied: Dict = {}
    for key, value in state.items():
        if isinstance(value, dict):
            copied[key] = _copy_rng_state(value)
        elif hasattr(value, "copy"):
            copied[key] = value.copy()
        else:
            copied[key] = value
    return copied
