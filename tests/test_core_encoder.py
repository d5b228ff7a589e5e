"""YOLLO feature encoder."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import FeatureEncoder, YolloConfig


@pytest.fixture(scope="module")
def config():
    return YolloConfig(backbone="tiny", d_model=16, max_query_length=6)


@pytest.fixture(scope="module")
def encoder(config):
    return FeatureEncoder(config, vocab_size=20)


def test_image_sequence_shape(encoder, config):
    images = Tensor(np.random.default_rng(0).random((2, 3, 48, 72)))
    out = encoder.encode_image(images)
    assert out.shape == (2, encoder.num_regions, config.d_model)


def test_grid_shape(encoder):
    gh, gw = encoder.grid_shape()
    assert gh * gw == encoder.num_regions


def test_query_sequence_shape(encoder, config):
    ids = np.array([[1, 2, 3, 0, 0, 0]])
    out = encoder.encode_query(ids)
    assert out.shape == (1, 6, config.d_model)


def test_query_too_long_rejected(encoder):
    with pytest.raises(ValueError):
        encoder.encode_query(np.zeros((1, 10), dtype=np.int64))


def test_positions_make_order_matter(encoder):
    forward = encoder.encode_query(np.array([[2, 3]]))
    reverse = encoder.encode_query(np.array([[3, 2]]))
    assert not np.allclose(forward.data[0, 0], reverse.data[0, 1])


def test_region_positions_break_translation_invariance(encoder):
    """Two identical image rows still get distinct region features."""
    image = np.zeros((1, 3, 48, 72))
    out = encoder.encode_image(Tensor(image)).data[0]
    assert not np.allclose(out[0], out[1])


def test_pretrained_embeddings_loaded():
    config = YolloConfig(backbone="tiny", d_model=16, max_query_length=6)
    matrix = np.full((20, 8), 0.5)
    encoder = FeatureEncoder(config, vocab_size=20, pretrained_embeddings=matrix)
    assert np.allclose(encoder.word_embedding.weight.data[:, :8], 0.5)


def test_pretrained_embeddings_row_mismatch():
    config = YolloConfig(backbone="tiny", d_model=16, max_query_length=6)
    with pytest.raises(ValueError):
        FeatureEncoder(config, vocab_size=20, pretrained_embeddings=np.zeros((5, 8)))


def test_forward_returns_both(encoder):
    images = Tensor(np.random.default_rng(1).random((1, 3, 48, 72)))
    v, t = encoder(images, np.array([[1, 2, 0, 0, 0, 0]]))
    assert v.shape[1] == encoder.num_regions
    assert t.shape[1] == 6


class TestDilatedContextEncoder:
    def test_preserves_feature_map_shape(self):
        from repro.core import DilatedContextEncoder

        context = DilatedContextEncoder(8, dilations=(1, 2, 3))
        x = Tensor(np.random.default_rng(3).random((2, 8, 6, 9)))
        assert context(x).shape == (2, 8, 6, 9)

    def test_residual_blocks_start_near_identity_scale(self):
        from repro.core import DilatedContextEncoder

        context = DilatedContextEncoder(8, dilations=(2,))
        x = Tensor(np.random.default_rng(4).random((1, 8, 5, 5)))
        out = context(x).data
        # residual form: the input signal passes through
        assert not np.allclose(out, 0.0)

    def test_rejects_empty_dilations(self):
        from repro.core import DilatedContextEncoder

        with pytest.raises(ValueError):
            DilatedContextEncoder(8, dilations=())

    def test_build_context_encoder_none_and_unknown(self):
        from repro.core.encoder import build_context_encoder

        none_cfg = YolloConfig(backbone="tiny", d_model=16,
                               max_query_length=6)
        assert build_context_encoder(none_cfg, 8) is None
        bad = none_cfg.with_overrides(context_encoder="fancy")
        with pytest.raises(ValueError, match="fancy"):
            build_context_encoder(bad, 8)

    def test_encoder_with_context_keeps_region_grid(self):
        cfg = YolloConfig(backbone="tiny", d_model=16, max_query_length=6,
                          context_encoder="dilated",
                          encoder_dilations=(1, 2))
        enc = FeatureEncoder(cfg, vocab_size=20)
        assert enc.context is not None
        images = Tensor(np.random.default_rng(5).random((2, 3, 48, 72)))
        out = enc.encode_image(images)
        assert out.shape == (2, enc.num_regions, cfg.d_model)

    def test_context_changes_features(self):
        base = YolloConfig(backbone="tiny", d_model=16, max_query_length=6)
        from repro.utils import seed_everything

        seed_everything(11)
        plain = FeatureEncoder(base, vocab_size=20)
        seed_everything(11)
        dilated = FeatureEncoder(
            base.with_overrides(context_encoder="dilated"), vocab_size=20)
        images = Tensor(np.random.default_rng(6).random((1, 3, 48, 72)))
        assert not np.allclose(plain.encode_image(images).data,
                               dilated.encode_image(images).data)
