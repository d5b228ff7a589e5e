"""Backbones: ResNet/VGG trunks, presets, synthetic pre-training."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.backbone import (
    BACKBONE_PRESETS,
    ClassificationHead,
    MiniResNet,
    MiniVGG,
    build_backbone,
    load_pretrained_backbone,
    pretrain_backbone,
)
from repro.backbone.resnet import BasicBlock, make_norm


def images(n=2, h=48, w=72, seed=0):
    return Tensor(np.random.default_rng(seed).random((n, 3, h, w)))


class TestMiniResNet:
    def test_output_shape_and_stride(self):
        net = MiniResNet(stage_channels=(8, 12), blocks_per_stage=(1, 1))
        assert net.stride == 8
        out = net(images())
        assert out.shape == (2, 12, 6, 9)

    def test_feature_shape_helper(self):
        net = MiniResNet(stage_channels=(8,), blocks_per_stage=(1,))
        assert net.feature_shape(48, 72) == (8, 12, 18)

    def test_depth_increases_parameters(self):
        shallow = MiniResNet(blocks_per_stage=(1, 1))
        deep = MiniResNet(blocks_per_stage=(2, 2))
        assert deep.num_parameters() > shallow.num_parameters()

    def test_mismatched_config_rejected(self):
        with pytest.raises(ValueError):
            MiniResNet(stage_channels=(8, 12), blocks_per_stage=(1,))

    def test_gradients_reach_stem(self):
        net = MiniResNet(stem_channels=4, stage_channels=(6,), blocks_per_stage=(1,))
        out = net(images(1, 16, 16))
        out.sum().backward()
        assert net.stem.weight.grad is not None


class TestBasicBlock:
    def test_shortcut_created_on_channel_change(self):
        assert BasicBlock(4, 8).shortcut is not None
        assert BasicBlock(8, 8).shortcut is None

    def test_identity_block_preserves_shape(self):
        block = BasicBlock(6, 6)
        x = images(1, 8, 8).data[:, :3]
        x6 = Tensor(np.concatenate([x, x], axis=1))
        assert block(x6).shape == x6.shape


class TestNorms:
    def test_make_norm_kinds(self):
        assert make_norm("group", 8).__class__.__name__ == "GroupNorm2d"
        assert make_norm("batch", 8).__class__.__name__ == "BatchNorm2d"
        assert make_norm("none", 8).__class__.__name__ == "Identity"

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            make_norm("spectral", 8)


class TestMiniVGG:
    def test_output_shape(self):
        net = MiniVGG(stage_channels=(8, 12, 16))
        assert net.stride == 8
        assert net(images()).shape == (2, 16, 6, 9)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(BACKBONE_PRESETS))
    def test_preset_builds_and_runs(self, name):
        net = build_backbone(name)
        out = net(images(1))
        assert out.shape[2] == 48 // net.stride

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            build_backbone("resnet9000")

    def test_resnet101_deeper_than_resnet50(self):
        assert (build_backbone("resnet101").num_parameters()
                > build_backbone("resnet50").num_parameters())


class TestPretraining:
    def test_history_recorded(self, monkeypatch):
        from repro.backbone import pretrain

        monkeypatch.setattr(pretrain, "BATCH_SIZE", 4)
        net = build_backbone("tiny")
        history = pretrain_backbone(net, steps=3)
        assert len(history["loss"]) == 3
        assert all(np.isfinite(history["loss"]))

    def test_classification_head_shapes(self):
        head = ClassificationHead(16)
        features = Tensor(np.random.default_rng(0).random((2, 16, 4, 6)))
        cats, colors = head(features)
        assert cats.shape[0] == 2 and colors.shape[0] == 2

    def test_cache_roundtrip(self, tmp_path):
        first = load_pretrained_backbone("tiny", steps=2, cache_dir=str(tmp_path))
        second = load_pretrained_backbone("tiny", steps=2, cache_dir=str(tmp_path))
        a = dict(first.named_parameters())
        b = dict(second.named_parameters())
        assert all(np.allclose(a[k].data, b[k].data) for k in a)

    def test_cache_miss_does_not_perturb_global_rng(self, tmp_path):
        # Regression: the pretrain head used to draw its initial weights
        # from the process-global generator, which only the cache-miss
        # path constructs — so a cold-cache run and a warm-cache run of
        # the same seed produced entirely different downstream models.
        from repro.utils import get_rng, seed_everything

        seed_everything(0)
        cold = load_pretrained_backbone("tiny", steps=2, cache_dir=str(tmp_path))
        after_cold = get_rng().random(8)

        seed_everything(0)
        warm = load_pretrained_backbone("tiny", steps=2, cache_dir=str(tmp_path))
        after_warm = get_rng().random(8)

        assert np.array_equal(after_cold, after_warm)
        a, b = cold.state_dict(), warm.state_dict()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_changed_key_is_recomputed_not_loaded(self, tmp_path, monkeypatch):
        """Steps, the pretrain schedule format and the architecture are all
        part of a cached backbone's key."""
        from repro.backbone import pretrain

        trained = []
        real_pretrain = pretrain.pretrain_backbone

        def spy(backbone, **kwargs):
            trained.append(kwargs["steps"])
            return real_pretrain(backbone, **kwargs)

        monkeypatch.setattr(pretrain, "pretrain_backbone", spy)

        def load(steps=1):
            return load_pretrained_backbone("tiny", steps=steps,
                                            cache_dir=str(tmp_path))

        load()
        load()
        assert trained == [1]
        load(steps=2)
        assert trained == [1, 2]

        real_tiny = BACKBONE_PRESETS["tiny"]
        monkeypatch.setitem(BACKBONE_PRESETS, "tiny", lambda: MiniResNet(
            stem_channels=8, stage_channels=(16, 24), blocks_per_stage=(1, 1),
            norm="none"))
        narrowed = load()
        assert trained == [1, 2, 1]
        assert narrowed.state_dict()["stem.weight"].shape[0] == 8
        monkeypatch.setitem(BACKBONE_PRESETS, "tiny", real_tiny)

        real_fingerprint = pretrain.pretrain_fingerprint
        monkeypatch.setattr(pretrain, "pretrain_fingerprint", lambda *a, **k: {
            **real_fingerprint(*a, **k), "schedule_format": 3})
        load()
        assert trained == [1, 2, 1, 1]

    def test_cache_roundtrips_buffers(self, tmp_path):
        # BatchNorm running statistics must survive the pretrain cache.
        first = load_pretrained_backbone("tiny-bn", steps=2, cache_dir=str(tmp_path))
        second = load_pretrained_backbone("tiny-bn", steps=2, cache_dir=str(tmp_path))
        a, b = dict(first.named_buffers()), dict(second.named_buffers())
        assert a and set(a) == set(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)
