"""Normalisation layers: batch, group, layer norm."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradient_check
from repro.nn import BatchNorm2d, GroupNorm2d, LayerNorm, norm


def make(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(2.0, 3.0, size=shape),
                  requires_grad=True)


class TestBatchNorm2d:
    def test_normalises_in_train_mode(self):
        bn = BatchNorm2d(3)
        out = bn(make((8, 3, 4, 4))).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_updated(self, monkeypatch):
        monkeypatch.setattr(norm, "BATCH_NORM_MOMENTUM", 0.5)
        bn = BatchNorm2d(2)
        bn(make((4, 2, 3, 3)))
        assert not np.allclose(bn.running_mean, 0.0)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        for seed in range(20):
            bn(make((8, 2, 3, 3), seed))
        bn.eval()
        x = make((1, 2, 3, 3), 99)
        out = bn(x).data
        expected = (x.data - bn.running_mean.reshape(1, -1, 1, 1)) / np.sqrt(
            bn.running_var.reshape(1, -1, 1, 1) + norm.EPS
        )
        assert np.allclose(out, expected)

    def test_running_stats_are_registered_buffers(self):
        bn = BatchNorm2d(2)
        assert set(dict(bn.named_buffers())) == {"running_mean", "running_var"}
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_running_stats_survive_state_dict_roundtrip(self):
        # Regression: running statistics used to be plain attributes
        # silently dropped from checkpoints, so a restored model's
        # eval-mode predictions diverged from the original.
        source = BatchNorm2d(2)
        for seed in range(10):
            source(make((8, 2, 3, 3), seed))
        restored = BatchNorm2d(2)
        restored.load_state_dict(source.state_dict())
        assert np.array_equal(restored.running_mean, source.running_mean)
        assert np.array_equal(restored.running_var, source.running_var)
        source.eval()
        restored.eval()
        x = make((2, 2, 3, 3), 99)
        assert np.array_equal(source(x).data, restored(x).data)

    def test_rejects_non_4d(self):
        with pytest.raises(ValueError):
            BatchNorm2d(2)(make((3, 2)))

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        bn = BatchNorm2d(2)
        gradient_check(lambda *i: bn(i[0]), [make((3, 2, 3, 3))] + bn.parameters(),
                       atol=1e-3, rtol=1e-3)


class TestGroupNorm2d:
    def test_batch_independence(self):
        """Per-sample stats: output for sample 0 is unchanged by sample 1."""
        gn = GroupNorm2d(4)
        a = make((1, 4, 3, 3), 0)
        b = make((1, 4, 3, 3), 1)
        together = gn(Tensor(np.concatenate([a.data, b.data]))).data[0]
        alone = gn(a).data[0]
        assert np.allclose(together, alone)

    def test_train_eval_identical(self):
        gn = GroupNorm2d(4)
        x = make((2, 4, 3, 3))
        train_out = gn(x).data
        gn.eval()
        assert np.allclose(gn(x).data, train_out)

    def test_falls_back_to_one_group(self):
        gn = GroupNorm2d(6)  # 6 % NUM_GROUPS != 0
        assert gn.num_groups == 1

    @pytest.mark.usefixtures("float64")
    def test_grad(self, monkeypatch):
        monkeypatch.setattr(norm, "NUM_GROUPS", 2)
        gn = GroupNorm2d(4)
        assert gn.num_groups == 2
        gradient_check(lambda *i: gn(i[0]), [make((2, 4, 3, 3))] + gn.parameters(),
                       atol=1e-3, rtol=1e-3)


class TestLayerNorm:
    def test_last_axis_normalised(self):
        ln = LayerNorm(8)
        out = ln(make((4, 8))).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)

    def test_affine_parameters_apply(self):
        ln = LayerNorm(4)
        ln.weight.data[:] = 2.0
        ln.bias.data[:] = 1.0
        out = ln(make((3, 4))).data
        assert np.allclose(out.mean(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        ln = LayerNorm(5)
        gradient_check(lambda *i: ln(i[0]), [make((2, 3, 5))] + ln.parameters(),
                       atol=1e-3, rtol=1e-3)
