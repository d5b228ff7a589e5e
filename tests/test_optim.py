"""Optimisers and learning-rate schedules."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Linear, Parameter
from repro.optim import Adam, WarmupCosineLR, clip_grad_norm


def quadratic_param():
    return Parameter(np.array([5.0, -3.0]))


class TestAdam:
    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_skips_gradless_params(self):
        p = quadratic_param()
        Adam([p], lr=0.1).step()
        assert np.allclose(p.data, [5.0, -3.0])

    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            p.grad = 2 * p.data  # d/dp ||p||^2
            opt.step()
        assert np.allclose(p.data, 0.0, atol=1e-2)

    def test_first_step_magnitude_is_lr(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([0.5])
        opt.step()
        assert np.isclose(p.data[0], 1.0 - 0.1, atol=1e-6)

    def test_trains_linear_regression(self):
        layer = Linear(1, 1)
        opt = Adam(layer.parameters(), lr=0.05)
        x = np.linspace(-1, 1, 32).reshape(-1, 1)
        y = 3 * x - 1
        for _ in range(400):
            pred = layer(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2).mean()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < 1e-3


class TestClipGradNorm:
    def test_no_clip_under_threshold(self):
        p = quadratic_param()
        p.grad = np.array([0.3, 0.4])
        norm = clip_grad_norm([p], 10.0)
        assert np.isclose(norm, 0.5)
        assert np.allclose(p.grad, [0.3, 0.4])

    def test_clips_to_max_norm(self):
        p = quadratic_param()
        p.grad = np.array([3.0, 4.0])
        clip_grad_norm([p], 1.0)
        assert np.isclose(np.linalg.norm(p.grad), 1.0)


class TestSchedulers:
    def test_warmup_cosine_shape(self):
        opt = Adam([quadratic_param()], lr=1.0)
        sched = WarmupCosineLR(opt, warmup_steps=2, total_steps=10)
        lrs = [sched.step() for _ in range(10)]
        assert lrs[0] < lrs[1] <= 1.0  # warmup rises
        assert lrs[-1] < 0.1  # decays toward zero

    def test_warmup_cosine_validates(self):
        opt = Adam([quadratic_param()], lr=1.0)
        with pytest.raises(ValueError):
            WarmupCosineLR(opt, warmup_steps=5, total_steps=5)

    @pytest.mark.parametrize("make_sched", [
        lambda opt: WarmupCosineLR(opt, warmup_steps=0, total_steps=12),
        lambda opt: WarmupCosineLR(opt, warmup_steps=2, total_steps=12),
    ])
    def test_state_dict_resumes_schedule_position(self, make_sched):
        # Regression: schedulers used to restart from step 0 on resume,
        # replaying the warmup/decay from scratch.
        opt = Adam([quadratic_param()], lr=1.0)
        sched = make_sched(opt)
        for _ in range(5):
            sched.step()
        snapshot = sched.state_dict()
        straight = [sched.step() for _ in range(5)]

        fresh_opt = Adam([quadratic_param()], lr=1.0)
        fresh = make_sched(fresh_opt)
        fresh.load_state_dict(snapshot)
        assert fresh.step_count == 5
        assert fresh_opt.lr == pytest.approx(sched.compute_lr(5))
        resumed = [fresh.step() for _ in range(5)]
        assert resumed == straight

    def test_cross_type_scheduler_load_rejected(self):
        cosine = WarmupCosineLR(Adam([quadratic_param()], lr=1.0),
                                warmup_steps=2, total_steps=10)
        foreign = {**cosine.state_dict(), "type": "OtherLR"}
        with pytest.raises(ValueError):
            cosine.load_state_dict(foreign)
