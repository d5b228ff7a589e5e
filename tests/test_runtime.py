"""Fault-tolerant training runtime: checkpoints, guards, retry, recovery.

Covers the acceptance criteria of the runtime layer: atomic checksummed
checkpoints with rotation and corruption fallback, NaN skip-step and
rollback recovery, retry/backoff, and the
bit-exact kill/resume equivalence of the supervised YOLLO trainer.
"""

import math
import os
import time

import numpy as np
import pytest

from repro.core import YolloConfig, YolloModel, YolloTrainer, responses_equal
from repro.data import REFCOCO, build_dataset
from repro.nn import Parameter
from repro.optim import Adam, clip_grad_norm
from repro.runtime import (
    AnomalyGuard,
    CallbackTask,
    CheckpointCorruptError,
    CheckpointManager,
    FaultPlan,
    FingerprintMismatchError,
    GuardAction,
    RetryExhaustedError,
    SimulatedCrash,
    TrainingAborted,
    TrainingSupervisor,
    config_fingerprint,
    corrupt_file,
    read_checkpoint,
    retry_call,
    write_checkpoint,
)
from repro.runtime import guards, supervisor as supervisor_module
from repro.utils import seed_everything


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def payload(value: float) -> dict:
    return {"weights": np.full(8, value), "note": "payload"}


def make_toy_task(total: int = 20, lr: float = 0.1):
    """Gradient descent on ||p||^2 via the CallbackTask adapter."""
    param = Parameter(np.array([2.0, -3.0]))
    optimizer = Adam([param], lr=lr)
    losses = []

    def forward_backward(step: int) -> float:
        param.grad = 2.0 * param.data
        return float((param.data ** 2).sum())

    def apply_update(step: int, loss: float) -> None:
        optimizer.step()
        losses.append(loss)

    task = CallbackTask(
        total_iterations=total,
        forward_backward=forward_backward,
        apply_update=apply_update,
        optimizer=optimizer,
        rng=np.random.default_rng(0),
        fingerprint_data={"task": "toy", "lr": lr},
        extra_state=lambda: {"losses": list(losses)},
        load_extra_state=lambda s: losses.__setitem__(slice(None), s["losses"]),
        result=lambda: losses,
    )
    return task, param, losses


def make_yollo_trainer(seed: int = 7, backbone: str = "tiny", scheduler=None):
    """A tiny but real YOLLO trainer (used for the kill/resume tests)."""
    seed_everything(seed)
    dataset = build_dataset(REFCOCO.scaled(0.03))
    cfg = YolloConfig(
        backbone=backbone, d_model=16, d_rel=24, ffn_hidden=24, head_hidden=24,
        num_rel2att=2, batch_size=4,
        max_query_length=max(6, dataset.max_query_length),
    )
    model = YolloModel(cfg, vocab_size=len(dataset.vocab))
    return YolloTrainer(model, dataset, cfg, scheduler=scheduler)


# ----------------------------------------------------------------------
# CheckpointManager
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), fingerprint="abc")
        path = manager.save(payload(3.0), iteration=5)
        loaded = manager.load(path)
        assert loaded.iteration == 5
        assert loaded.fingerprint == "abc"
        assert np.allclose(loaded.payload["weights"], 3.0)
        assert not os.path.exists(path + ".tmp")  # atomic rename cleaned up

    def test_rotation_keeps_last_k(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep=2)
        for iteration in (1, 2, 3, 4):
            manager.save(payload(iteration), iteration)
        names = [os.path.basename(p) for p in manager.paths()]
        assert names == ["ckpt-00000003.ckpt", "ckpt-00000004.ckpt"]

    @pytest.mark.parametrize("mode", ["truncate", "flip", "zero"])
    def test_checksum_detects_corruption(self, tmp_path, mode):
        manager = CheckpointManager(str(tmp_path))
        path = manager.save(payload(1.0), iteration=1)
        corrupt_file(path, mode=mode)
        with pytest.raises(CheckpointCorruptError):
            manager.load(path)

    def test_load_latest_falls_back_over_corrupt_rotation(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep=3)
        for iteration in (1, 2, 3):
            manager.save(payload(iteration), iteration)
        corrupt_file(manager.path_for(3), mode="flip")
        latest = manager.load_latest()
        assert latest is not None and latest.iteration == 2

    def test_load_latest_none_when_all_corrupt(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(payload(1.0), iteration=1)
        corrupt_file(manager.path_for(1), mode="truncate")
        assert manager.load_latest() is None

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        CheckpointManager(str(tmp_path), fingerprint="aaa").save(payload(1.0), 1)
        reader = CheckpointManager(str(tmp_path), fingerprint="bbb")
        with pytest.raises(FingerprintMismatchError):
            reader.load_latest()

    @pytest.mark.parametrize("call", [os.mkdir, os.system, eval],
                             ids=["os.mkdir", "os.system", "eval"])
    def test_disallowed_global_raises_without_running(self, tmp_path, call):
        """A validly checksummed file that pickles any global outside the
        numpy allowlist is refused before that global is ever called."""
        import hashlib
        import pickle

        from repro.runtime.checkpoint import MAGIC

        marker = tmp_path / "ran"
        argument = {os.mkdir: str(marker),
                    os.system: f"mkdir {marker}",
                    eval: f"__import__('os').mkdir({str(marker)!r})"}[call]

        class Exploit:
            def __reduce__(self):
                return call, (argument,)

        body = pickle.dumps({"fingerprint": None, "iteration": 0,
                             "payload": {"weights": Exploit()}})
        path = tmp_path / "evil.ckpt"
        path.write_bytes(MAGIC + hashlib.sha256(body).hexdigest().encode()
                         + b"\n" + body)
        with pytest.raises(CheckpointCorruptError, match="not allowed"):
            read_checkpoint(str(path))
        with pytest.raises(CheckpointCorruptError):
            CheckpointManager(str(tmp_path)).load(str(path))
        assert not marker.exists()

    def test_write_read_roundtrip_matches_manager(self, tmp_path):
        """The module-level writer and reader are the manager's format."""
        path = write_checkpoint(str(tmp_path / "model.ckpt"), payload(2.0),
                                fingerprint="abc", iteration=7)
        record = CheckpointManager(str(tmp_path), fingerprint="abc").load(path)
        assert record.iteration == 7 and record.fingerprint == "abc"
        assert np.array_equal(read_checkpoint(path).payload["weights"],
                              record.payload["weights"])
        with pytest.raises(FingerprintMismatchError):
            read_checkpoint(path, fingerprint="xyz")

    def test_config_fingerprint_stable_and_sensitive(self):
        a = config_fingerprint({"lr": 0.1, "bs": 4})
        b = config_fingerprint({"bs": 4, "lr": 0.1})  # key order irrelevant
        c = config_fingerprint({"lr": 0.2, "bs": 4})
        assert a == b and a != c


# ----------------------------------------------------------------------
# AnomalyGuard
# ----------------------------------------------------------------------
class TestAnomalyGuard:
    def test_finite_loss_proceeds(self):
        guard = AnomalyGuard()
        assert guard.assess(1.0).action is GuardAction.PROCEED

    def test_nan_loss_skips_then_rolls_back(self):
        guard = AnomalyGuard()
        assert guard.assess(float("nan")).action is GuardAction.SKIP
        assert guard.assess(float("inf")).action is GuardAction.SKIP
        assert guard.assess(float("nan")).action is GuardAction.ROLLBACK

    def test_nonfinite_gradient_detected(self):
        param = Parameter(np.zeros(3))
        param.grad = np.array([0.0, np.nan, 0.0])
        verdict = AnomalyGuard().assess(1.0, [param])
        assert verdict.action is GuardAction.SKIP
        assert "gradient" in verdict.reason

    def test_healthy_step_resets_streak(self, monkeypatch):
        monkeypatch.setattr(guards, "MAX_CONSECUTIVE", 2)
        guard = AnomalyGuard()
        guard.assess(float("nan"))
        guard.assess(1.0)
        assert guard.assess(float("nan")).action is GuardAction.SKIP

    def test_loss_spike_detected_once_window_full(self, monkeypatch):
        monkeypatch.setattr(guards, "SPIKE_FACTOR", 10.0)
        monkeypatch.setattr(guards, "SPIKE_WINDOW", 5)
        guard = AnomalyGuard()
        for _ in range(4):
            assert guard.assess(1.0).action is GuardAction.PROCEED
        # Window not yet full: a huge loss is still tolerated.
        assert guard.assess(1000.0).action is GuardAction.PROCEED
        guard.reset()
        for _ in range(5):
            guard.assess(1.0)
        assert guard.assess(1000.0).action is GuardAction.SKIP


# ----------------------------------------------------------------------
# Retry with backoff
# ----------------------------------------------------------------------
class TestRetry:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        sleeps = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        result = retry_call(flaky, attempts=4, sleep=sleeps.append,
                            rng=np.random.default_rng(0))
        assert result == "ok" and calls["n"] == 3
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0] * 1.0  # backoff grows (modulo jitter cap)

    def test_exhaustion_raises_with_cause(self):
        def always_fails():
            raise OSError("disk on fire")

        with pytest.raises(RetryExhaustedError) as excinfo:
            retry_call(always_fails, attempts=2, sleep=lambda _: None)
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_non_retryable_exception_propagates(self):
        def bad():
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            retry_call(bad, attempts=3, retry_on=(OSError,), sleep=lambda _: None)


class TestBackoffDelay:
    """Edge cases of the shared jittered-exponential-backoff schedule."""

    def test_jitter_stays_within_documented_bounds(self):
        from repro.runtime import backoff_delay

        rng = np.random.default_rng(7)
        for attempt in range(1, 8):
            deterministic = min(2.0, 0.05 * 2.0 ** (attempt - 1))
            for _ in range(50):
                delay = backoff_delay(attempt, base_delay=0.05,
                                      max_delay=2.0, jitter=0.5, rng=rng)
                assert deterministic <= delay <= deterministic * 1.5

    def test_zero_jitter_is_exactly_exponential(self):
        from repro.runtime import backoff_delay

        rng = np.random.default_rng(0)
        delays = [backoff_delay(k, base_delay=0.1, max_delay=100.0,
                                jitter=0.0, rng=rng)
                  for k in range(1, 5)]
        assert delays == [pytest.approx(0.1 * 2.0 ** k) for k in range(4)]

    def test_max_delay_clamps_the_exponential(self):
        from repro.runtime import backoff_delay

        rng = np.random.default_rng(3)
        # attempt 40 would be base * 2**39 without the cap
        delay = backoff_delay(40, base_delay=0.05, max_delay=1.0,
                              jitter=0.5, rng=rng)
        assert 1.0 <= delay <= 1.5

    def test_attempt_is_one_based(self):
        from repro.runtime import backoff_delay

        with pytest.raises(ValueError):
            backoff_delay(0)
        with pytest.raises(ValueError):
            backoff_delay(-1)

    def test_retry_call_sleeps_follow_backoff_schedule(self, monkeypatch):
        from repro.runtime import backoff_delay, retry

        monkeypatch.setattr(retry, "RETRY_MAX_DELAY", 0.12)
        sleeps = []

        def always_fails():
            raise OSError("transient")

        with pytest.raises(RetryExhaustedError):
            retry_call(always_fails, attempts=4, base_delay=0.05,
                       sleep=sleeps.append, rng=np.random.default_rng(11))
        replay_rng = np.random.default_rng(11)
        expected = [backoff_delay(k, base_delay=0.05, max_delay=0.12,
                                  jitter=0.5, rng=replay_rng)
                    for k in range(1, 4)]
        assert sleeps == [pytest.approx(e) for e in expected]
        # the clamp bit: attempts 2 and 3 both cap at max_delay pre-jitter
        assert all(0.12 <= s <= 0.18 for s in sleeps[1:])

    def test_non_retryable_exception_does_not_sleep(self):
        sleeps = []

        def bad():
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            retry_call(bad, attempts=5, retry_on=(OSError,),
                       sleep=sleeps.append, rng=np.random.default_rng(2))
        assert sleeps == []


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_nan_grad_fires_once(self):
        plan = FaultPlan(nan_grad_at={3})
        param = Parameter(np.zeros(2))
        param.grad = np.zeros(2)
        plan.mutate_gradients(3, [param])
        assert np.isnan(param.grad[0])
        param.grad = np.zeros(2)
        plan.mutate_gradients(3, [param])  # spent: fires only once
        assert np.isfinite(param.grad).all()

    def test_persistent_fault_with_fire_once_off(self):
        plan = FaultPlan(nonfinite_loss_at={1}, fire_once=False)
        assert math.isnan(plan.mutate_loss(1, 0.5))
        assert math.isnan(plan.mutate_loss(1, 0.5))

    def test_crash_raises_simulated_crash(self):
        plan = FaultPlan(crash_at_iteration=2)
        plan.before_step(1)
        with pytest.raises(SimulatedCrash):
            plan.before_step(2)


# ----------------------------------------------------------------------
# Supervisor recovery paths (toy task)
# ----------------------------------------------------------------------
class TestSupervisorRecovery:
    def test_plain_run_matches_unsupervised_descent(self, tmp_path):
        task, param, losses = make_toy_task(total=10)
        report = TrainingSupervisor(task, checkpoint_dir=str(tmp_path),
                                    checkpoint_every=4).run()
        assert report.iterations == 10 and len(losses) == 10
        assert losses[-1] < losses[0]
        assert report.checkpoint_writes >= 3  # 4, 8 and the final one

    def test_nan_gradient_is_skipped_not_fatal(self, tmp_path):
        task, param, losses = make_toy_task(total=10)
        plan = FaultPlan(nan_grad_at={4})
        report = TrainingSupervisor(task, checkpoint_dir=str(tmp_path),
                                    checkpoint_every=3, fault_plan=plan).run()
        assert report.iterations == 10
        assert report.skipped_steps == 1
        assert len(losses) == 9  # the poisoned step was discarded
        assert np.isfinite(param.data).all()

    def test_rollback_after_repeated_anomalies(self, tmp_path, monkeypatch):
        monkeypatch.setattr(guards, "MAX_CONSECUTIVE", 2)
        task, param, losses = make_toy_task(total=12)
        plan = FaultPlan(nan_grad_at={5, 6})  # two consecutive transients
        report = TrainingSupervisor(task, checkpoint_dir=str(tmp_path),
                                    checkpoint_every=2, fault_plan=plan).run()
        assert report.rollbacks == 1
        assert report.skipped_steps == 1  # first anomaly skipped, second rolled back
        assert report.iterations == 12
        assert np.isfinite(param.data).all()

    def test_rollback_budget_exhaustion_aborts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(guards, "MAX_CONSECUTIVE", 1)
        monkeypatch.setattr(supervisor_module, "MAX_ROLLBACKS", 3)
        task, _, _ = make_toy_task(total=6)
        # Persistent NaN at every iteration: rollback cannot help.
        plan = FaultPlan(nan_grad_at=set(range(1, 100)), fire_once=False)
        supervisor = TrainingSupervisor(task, checkpoint_dir=str(tmp_path),
                                        checkpoint_every=2, fault_plan=plan)
        with pytest.raises(TrainingAborted):
            supervisor.run()

    def test_rollback_without_any_checkpoint_uses_start_snapshot(self, monkeypatch):
        monkeypatch.setattr(guards, "MAX_CONSECUTIVE", 2)
        task, param, _ = make_toy_task(total=8)
        plan = FaultPlan(nan_grad_at={2, 3})
        report = TrainingSupervisor(task, fault_plan=plan).run()
        assert report.rollbacks == 1
        assert report.iterations == 8
        assert np.isfinite(param.data).all()

    def test_checkpoint_io_error_is_retried(self, tmp_path):
        task, _, _ = make_toy_task(total=8)
        plan = FaultPlan(checkpoint_io_error_on={0})  # first write attempt fails
        report = TrainingSupervisor(task, checkpoint_dir=str(tmp_path),
                                    checkpoint_every=4, fault_plan=plan,
                                    retry_sleep=lambda _: None).run()
        assert report.iterations == 8
        assert report.checkpoint_failures == 0  # retry recovered
        assert report.checkpoint_writes >= 2

    def test_persistent_checkpoint_failure_degrades_gracefully(self, tmp_path,
                                                               monkeypatch):
        monkeypatch.setattr(supervisor_module, "IO_RETRY_ATTEMPTS", 2)
        task, _, losses = make_toy_task(total=6)
        # Every write attempt of the first logical save fails.
        plan = FaultPlan(checkpoint_io_error_on=set(range(100)), fire_once=False)
        report = TrainingSupervisor(task, checkpoint_dir=str(tmp_path),
                                    checkpoint_every=2, fault_plan=plan,
                                    retry_sleep=lambda _: None).run()
        assert report.iterations == 6  # the run still completed
        assert report.checkpoint_failures >= 1
        assert len(losses) == 6

    def test_checkpoint_seconds_include_the_state_capture(self, tmp_path):
        task, _, _ = make_toy_task(total=6)
        capture = task.state_dict

        def slow_state_dict():
            time.sleep(0.02)
            return capture()

        task.state_dict = slow_state_dict
        report = TrainingSupervisor(task, checkpoint_dir=str(tmp_path),
                                    checkpoint_every=2).run()
        assert report.checkpoint_writes >= 3
        assert report.checkpoint_seconds >= 0.02 * report.checkpoint_writes

    def test_resume_continues_toy_run(self, tmp_path):
        task, param, losses = make_toy_task(total=10)
        plan = FaultPlan(crash_at_iteration=7)
        supervisor = TrainingSupervisor(task, checkpoint_dir=str(tmp_path),
                                        checkpoint_every=3, fault_plan=plan)
        with pytest.raises(SimulatedCrash):
            supervisor.run()

        fresh_task, fresh_param, fresh_losses = make_toy_task(total=10)
        report = TrainingSupervisor(fresh_task, checkpoint_dir=str(tmp_path),
                                    checkpoint_every=3, resume=True).run()
        assert report.resumed_from == 6
        assert report.iterations == 10
        assert len(fresh_losses) == 10


# ----------------------------------------------------------------------
# Bit-exact kill/resume on the real YOLLO trainer
# ----------------------------------------------------------------------
class TestKillResumeEquivalence:
    TOTAL = 8
    KILL_AT = 5  # crash before iteration 5; checkpoint_every=2 => resume from 4

    def test_resumed_run_is_bit_exact(self, tmp_path):
        # Reference: 2N iterations straight through, no supervisor involved.
        straight = make_yollo_trainer(seed=7)
        straight.begin_run(iterations=self.TOTAL)
        while straight.iteration < straight.total_iterations:
            straight.apply_step(straight.forward_backward())

        # Killed run: identical fresh setup, crash mid-flight.
        killed = make_yollo_trainer(seed=7)
        killed.begin_run(iterations=self.TOTAL)
        supervisor = TrainingSupervisor(
            killed, checkpoint_dir=str(tmp_path), checkpoint_every=2,
            fault_plan=FaultPlan(crash_at_iteration=self.KILL_AT),
        )
        with pytest.raises(SimulatedCrash):
            supervisor.run()
        assert killed.iteration == self.KILL_AT - 1

        # Resume in a "new process": rebuild everything from scratch,
        # then restore from the newest checkpoint and finish the run.
        resumed = make_yollo_trainer(seed=7)
        resumed.begin_run(iterations=self.TOTAL)
        report = TrainingSupervisor(resumed, checkpoint_dir=str(tmp_path),
                                    checkpoint_every=2, resume=True).run()
        assert report.resumed_from == 4
        assert report.iterations == self.TOTAL

        # Loss history and final parameters must be IDENTICAL, bit for bit.
        assert resumed.history.losses == straight.history.losses
        for (name_a, param_a), (name_b, param_b) in zip(
            straight.model.named_parameters(), resumed.model.named_parameters()
        ):
            assert name_a == name_b
            assert np.array_equal(param_a.data, param_b.data), name_a

    def test_supervised_yollo_run_survives_nan_and_io_faults(self, tmp_path):
        trainer = make_yollo_trainer(seed=13)
        trainer.begin_run(iterations=6)
        plan = FaultPlan(nan_grad_at={2}, checkpoint_io_error_on={0})
        report = TrainingSupervisor(
            trainer, checkpoint_dir=str(tmp_path), checkpoint_every=2,
            fault_plan=plan, retry_sleep=lambda _: None,
        ).run()
        assert report.iterations == 6
        assert report.skipped_steps == 1
        assert report.checkpoint_failures == 0
        assert all(np.isfinite(p.data).all() for p in trainer.model.parameters())

    def test_bn_backbone_resume_reproduces_eval_predictions(self, tmp_path):
        """Kill/resume with BatchNorm running statistics is bit-exact.

        Regression: ``running_mean``/``running_var`` used to be plain
        attributes outside ``state_dict``, so the resumed model carried
        fresh statistics and its eval-mode predictions silently diverged
        from the uninterrupted run.
        """
        straight = make_yollo_trainer(seed=7, backbone="tiny-bn")
        straight.begin_run(iterations=self.TOTAL)
        while straight.iteration < straight.total_iterations:
            straight.apply_step(straight.forward_backward())

        killed = make_yollo_trainer(seed=7, backbone="tiny-bn")
        killed.begin_run(iterations=self.TOTAL)
        supervisor = TrainingSupervisor(
            killed, checkpoint_dir=str(tmp_path), checkpoint_every=2,
            fault_plan=FaultPlan(crash_at_iteration=self.KILL_AT),
        )
        with pytest.raises(SimulatedCrash):
            supervisor.run()

        resumed = make_yollo_trainer(seed=7, backbone="tiny-bn")
        resumed.begin_run(iterations=self.TOTAL)
        TrainingSupervisor(resumed, checkpoint_dir=str(tmp_path),
                           checkpoint_every=2, resume=True).run()

        # The running statistics themselves must round-trip ...
        straight_buffers = dict(straight.model.named_buffers())
        resumed_buffers = dict(resumed.model.named_buffers())
        assert straight_buffers  # the BN backbone actually has buffers
        for name, buffer in straight_buffers.items():
            assert np.array_equal(buffer, resumed_buffers[name]), name

        # ... and eval-mode predictions must be IDENTICAL, bit for bit.
        subset = list(straight.dataset["val"][:8])
        straight.model.eval()
        resumed.model.eval()
        assert all(
            responses_equal(a, b) for a, b in
            zip(straight.grounder(subset), resumed.grounder(subset))
        )

    def test_scheduler_resume_continues_decay(self, tmp_path):
        """Resume restores the LR-schedule position, not step 0.

        Regression: schedules had no ``state_dict``, so a resumed one
        replayed its decay from scratch and the post-resume trajectory
        diverged from the uninterrupted run.
        """
        from repro.optim import WarmupCosineLR

        factory = lambda opt: WarmupCosineLR(opt, warmup_steps=2,
                                             total_steps=self.TOTAL)

        straight = make_yollo_trainer(seed=7, scheduler=factory)
        straight.begin_run(iterations=self.TOTAL)
        while straight.iteration < straight.total_iterations:
            straight.apply_step(straight.forward_backward())

        killed = make_yollo_trainer(seed=7, scheduler=factory)
        killed.begin_run(iterations=self.TOTAL)
        supervisor = TrainingSupervisor(
            killed, checkpoint_dir=str(tmp_path), checkpoint_every=2,
            fault_plan=FaultPlan(crash_at_iteration=self.KILL_AT),
        )
        with pytest.raises(SimulatedCrash):
            supervisor.run()

        resumed = make_yollo_trainer(seed=7, scheduler=factory)
        resumed.begin_run(iterations=self.TOTAL)
        TrainingSupervisor(resumed, checkpoint_dir=str(tmp_path),
                           checkpoint_every=2, resume=True).run()

        assert resumed.scheduler.step_count == straight.scheduler.step_count
        assert resumed.optimizer.lr == straight.optimizer.lr
        assert resumed.history.losses == straight.history.losses

    def test_scheduler_mismatch_refuses_load(self):
        from repro.optim import WarmupCosineLR

        with_sched = make_yollo_trainer(
            seed=7, scheduler=lambda opt: WarmupCosineLR(opt, 2, self.TOTAL)
        )
        without = make_yollo_trainer(seed=7)
        with pytest.raises(ValueError, match="scheduler"):
            without.load_state_dict(with_sched.state_dict())
        with pytest.raises(ValueError, match="scheduler"):
            with_sched.load_state_dict(without.state_dict())

    def test_fingerprint_mismatch_refuses_cross_config_resume(self, tmp_path):
        trainer = make_yollo_trainer(seed=7)
        trainer.begin_run(iterations=2)
        TrainingSupervisor(trainer, checkpoint_dir=str(tmp_path),
                           checkpoint_every=1).run()

        other = make_yollo_trainer(seed=7)
        other.config = other.config.with_overrides(learning_rate=9e-9)
        other.begin_run(iterations=2)
        with pytest.raises(FingerprintMismatchError):
            TrainingSupervisor(other, checkpoint_dir=str(tmp_path),
                               checkpoint_every=1, resume=True).run()

    def test_checkpoint_of_the_stateful_rng_schedule_is_refused(
            self, tmp_path, monkeypatch):
        """The payload of the old schedule (an RNG stream plus the epoch's
        order and cursor) is refused by fingerprint, not a ``KeyError``."""
        old = make_yollo_trainer(seed=7)
        old.begin_run(iterations=2)
        fingerprint = {key: value for key, value in old.fingerprint_data().items()
                       if key != "schedule_format"}
        n = len(old.dataset["train"])

        def old_state():
            state = YolloTrainer.state_dict(old)
            del state["schedule_seed"]
            state.update(rng=np.random.default_rng(0).bit_generator.state,
                         epoch=1, epoch_cursor=4, epoch_order=np.arange(n))
            return state

        monkeypatch.setattr(old, "fingerprint_data", lambda: fingerprint)
        monkeypatch.setattr(old, "state_dict", old_state)
        TrainingSupervisor(old, checkpoint_dir=str(tmp_path),
                           checkpoint_every=1).run()

        resumed = make_yollo_trainer(seed=7)
        resumed.begin_run(iterations=2)
        with pytest.raises(FingerprintMismatchError):
            TrainingSupervisor(resumed, checkpoint_dir=str(tmp_path),
                               checkpoint_every=1, resume=True).run()


# ----------------------------------------------------------------------
# Optimizer state round-trips
# ----------------------------------------------------------------------
class TestOptimizerState:
    def _trajectory(self, optimizer_cls, **kwargs):
        param = Parameter(np.array([5.0, -3.0]))
        optimizer = optimizer_cls([param], **kwargs)
        return param, optimizer

    def test_snapshot_restores_exact_trajectory(self):
        param, optimizer = self._trajectory(Adam, lr=0.05)
        for _ in range(3):
            param.grad = 2.0 * param.data
            optimizer.step()
        snapshot_param = param.data.copy()
        snapshot_state = optimizer.state_dict()

        # Continue 2 more steps, then rewind and replay.
        for _ in range(2):
            param.grad = 2.0 * param.data
            optimizer.step()
        after_straight = param.data.copy()

        param.data[...] = snapshot_param
        optimizer.load_state_dict(snapshot_state)
        for _ in range(2):
            param.grad = 2.0 * param.data
            optimizer.step()
        assert np.array_equal(param.data, after_straight)

    def test_cross_type_load_rejected(self):
        _, adam = self._trajectory(Adam, lr=0.1)
        foreign = {**adam.state_dict(), "type": "SGD"}
        with pytest.raises(ValueError):
            adam.load_state_dict(foreign)

    def test_wrong_shape_rejected(self):
        _, adam = self._trajectory(Adam, lr=0.1)
        state = adam.state_dict()
        state["m"] = [np.zeros(7)]
        with pytest.raises(ValueError):
            adam.load_state_dict(state)


# ----------------------------------------------------------------------
# clip_grad_norm hardening
# ----------------------------------------------------------------------
class TestClipGradNormGuards:
    def test_nan_norm_leaves_gradients_untouched(self):
        healthy = Parameter(np.ones(2))
        healthy.grad = np.array([3.0, 4.0])
        poisoned = Parameter(np.ones(2))
        poisoned.grad = np.array([np.nan, 1.0])
        norm = clip_grad_norm([healthy, poisoned], max_norm=1.0)
        assert math.isnan(norm)
        # The healthy gradient was NOT multiplied by nan-scale.
        assert np.allclose(healthy.grad, [3.0, 4.0])

    def test_zero_norm_is_safe(self):
        param = Parameter(np.ones(2))
        param.grad = np.zeros(2)
        assert clip_grad_norm([param], max_norm=0.0) == 0.0
        assert np.allclose(param.grad, 0.0)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCliCheckpointing:
    def test_train_with_checkpoints_then_resume(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        checkpoint_dir = str(tmp_path / "ckpts")
        common = ["train", "--scale", "0.03", "--preset", "tiny",
                  "--pretrain-steps", "1", "--epochs", "1", "--quiet",
                  "--eval-every", "0", "--out", str(tmp_path / "model.npz"),
                  "--checkpoint-dir", checkpoint_dir, "--checkpoint-every", "2"]

        assert main(common) == 0
        capsys.readouterr()
        assert any(name.endswith(".ckpt") for name in os.listdir(checkpoint_dir))

        # Resuming a finished run is a no-op that still exits cleanly.
        assert main(common + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from iteration" in out

    def test_resume_without_dir_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["train", "--resume", "--quiet", "--scale", "0.03",
                  "--preset", "tiny", "--pretrain-steps", "1",
                  "--epochs", "1"])


class TestSupervisorMetrics:
    def test_counters_published_to_injected_registry(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        task, _, _ = make_toy_task(total=10)
        plan = FaultPlan(nan_grad_at={4})
        report = TrainingSupervisor(task, checkpoint_dir=str(tmp_path),
                                    checkpoint_every=3, fault_plan=plan,
                                    metrics=registry).run()
        assert registry.counter("runtime.skipped_steps").value == report.skipped_steps == 1
        assert registry.counter("runtime.checkpoint_writes").value == report.checkpoint_writes
        assert registry.histogram("runtime.checkpoint_seconds").count == report.checkpoint_writes
        assert registry.counter("runtime.rollbacks").value == 0
