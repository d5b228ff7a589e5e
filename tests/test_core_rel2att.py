"""Rel2Att modules: relation map, attention masks, ablations, padding."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import Rel2AttModule, Rel2AttStack, YolloConfig
from repro.core.rel2att import _relation_weight_mask, _self_attention_blocks


def config(**overrides):
    base = YolloConfig(backbone="tiny", d_model=8, d_rel=12, ffn_hidden=10,
                       max_query_length=4, num_rel2att=2)
    return base.with_overrides(**overrides) if overrides else base


def sequences(m=6, n=3, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    v = Tensor(rng.normal(size=(batch, m, 8)), requires_grad=True)
    t = Tensor(rng.normal(size=(batch, n, 8)), requires_grad=True)
    return v, t


class TestWeightMask:
    def test_full_mask_is_ones(self):
        mask = _relation_weight_mask(1, 4, 2, None, True, True)
        assert np.allclose(mask, 1.0)

    def test_self_blocks_wiped(self):
        mask = _relation_weight_mask(1, 4, 2, None, False, True)[0]
        assert np.allclose(mask[:4, :4], 0.0)
        assert np.allclose(mask[4:, 4:], 0.0)
        assert np.allclose(mask[:4, 4:], 1.0)

    def test_co_blocks_wiped(self):
        mask = _relation_weight_mask(1, 4, 2, None, True, False)[0]
        assert np.allclose(mask[:4, 4:], 0.0)
        assert np.allclose(mask[4:, :4], 0.0)
        assert np.allclose(mask[:4, :4], 1.0)

    def test_padding_zeroes_rows_and_columns(self):
        token_mask = np.array([[1.0, 0.0]])
        mask = _relation_weight_mask(1, 3, 2, token_mask, True, True)[0]
        assert np.allclose(mask[:, 4], 0.0)
        assert np.allclose(mask[4, :], 0.0)
        assert np.allclose(mask[3, :4], 1.0)


class TestRel2AttModule:
    def test_output_shapes(self):
        module = Rel2AttModule(config())
        v, t = sequences()
        av, at, att_v, att_t = module(v, t)
        assert av.shape == v.shape and at.shape == t.shape
        assert att_v.shape == (2, 6) and att_t.shape == (2, 3)

    def test_relation_map_shape(self):
        module = Rel2AttModule(config())
        v, t = sequences()
        assert module.relation_map(v, t).shape == (2, 9, 9)

    def test_padded_tokens_get_zero_attention(self):
        module = Rel2AttModule(config())
        v, t = sequences()
        token_mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        _, _, _, att_t = module(v, t, token_mask)
        assert np.allclose(att_t.data[0, 2], 0.0)
        assert np.allclose(att_t.data[1, 1:], 0.0)

    def test_padding_content_invariance(self):
        """Garbage in padded token slots must not change att_v."""
        module = Rel2AttModule(config())
        v, t = sequences()
        token_mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        _, _, att_v_a, _ = module(v, t, token_mask)
        t_garbage = Tensor(t.data.copy())
        t_garbage.data[:, 2] = 99.0
        _, _, att_v_b, _ = module(v, t_garbage, token_mask)
        assert np.allclose(att_v_a.data, att_v_b.data)

    def test_no_co_attention_makes_image_query_blind(self):
        module = Rel2AttModule(config(use_co_attention=False))
        v, t = sequences()
        _, _, att_a, _ = module(v, t)
        t_other = Tensor(np.random.default_rng(42).normal(size=t.shape))
        _, _, att_b, _ = module(v, t_other)
        assert np.allclose(att_a.data, att_b.data)

    def test_gain_scales_attention(self):
        cfg_small = config(att_gain_init=1.0)
        cfg_big = config(att_gain_init=10.0)
        from repro.utils import seed_everything

        seed_everything(5)
        small = Rel2AttModule(cfg_small)
        seed_everything(5)
        big = Rel2AttModule(cfg_big)
        v, t = sequences()
        _, _, att_small, _ = small(v, t)
        _, _, att_big, _ = big(v, t)
        assert np.allclose(att_big.data, 10.0 * att_small.data)

    def test_gradients_flow_to_inputs(self):
        module = Rel2AttModule(config())
        v, t = sequences()
        av, at, _, _ = module(v, t)
        (av.sum() + at.sum()).backward()
        assert v.grad is not None and t.grad is not None


class TestSelfAttentionGate:
    def test_one_scalar_parameter_at_zero(self):
        module = Rel2AttModule(config())
        names = {name for name, _ in module.named_parameters()
                 if not name.startswith("ffn_")}
        assert names == {"att_gain", "self_gate"}
        assert module.self_gate.shape == () and module.self_gate.data == 0.0

    @pytest.mark.parametrize("clauses", [False, True])
    def test_fresh_block_is_the_no_self_attention_arm(self, clauses):
        """At init the gated block gives, bit for bit, what the same
        weights give with the self-attention blocks wiped."""
        gated = Rel2AttModule(config())
        ablated = Rel2AttModule(config(use_self_attention=False))
        ablated.load_state_dict(gated.state_dict())
        v, t = sequences(m=6, n=3, batch=2, seed=4)
        token_mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        masks = None
        if clauses:
            masks = np.zeros((2, 2, 3))
            masks[:, 0, :2] = 1.0
            masks[:, 1, 1:] = 1.0
        for a, b in zip(gated(v, t, token_mask, masks),
                        ablated(v, t, token_mask, masks)):
            assert np.array_equal(a.data, b.data)

    def test_open_gate_brings_self_attention_back(self):
        module = Rel2AttModule(config())
        v, t = sequences()
        _, _, closed, _ = module(v, t)
        module.self_gate.data[...] = 1.0
        _, _, opened, _ = module(v, t)
        assert not np.allclose(closed.data, opened.data)

    def test_gate_gets_a_gradient(self):
        module = Rel2AttModule(config())
        v, t = sequences()
        _, _, att_v, att_t = module(v, t)
        (att_v.sum() + att_t.sum()).backward()
        assert module.self_gate.grad is not None
        assert module.self_gate.grad != 0.0


class TestClauseConditioning:
    def _masks(self, batch=2, clauses=2, n=3):
        masks = np.zeros((batch, clauses, n))
        masks[:, 0, :2] = 1.0
        masks[:, 1, 1:] = 1.0
        return masks

    def test_zero_rows_bit_exact(self):
        """All-zero clause rows are indistinguishable from no masks."""
        module = Rel2AttModule(config())
        v, t = sequences()
        _, _, att_v_a, att_t_a = module(v, t)
        _, _, att_v_b, att_t_b = module(
            v, t, clause_masks=np.zeros((2, 3, 3)))
        assert np.array_equal(att_v_a.data, att_v_b.data)
        assert np.array_equal(att_t_a.data, att_t_b.data)

    def test_single_active_clause_bit_exact(self):
        """One active clause is below the conditioning threshold."""
        module = Rel2AttModule(config())
        v, t = sequences()
        masks = np.zeros((2, 2, 3))
        masks[:, 0, :] = 1.0
        _, _, att_v_a, att_t_a = module(v, t)
        _, _, att_v_b, att_t_b = module(v, t, clause_masks=masks)
        assert np.array_equal(att_v_a.data, att_v_b.data)
        assert np.array_equal(att_t_a.data, att_t_b.data)

    def test_two_clauses_change_attention(self):
        module = Rel2AttModule(config())
        v, t = sequences()
        _, _, att_v_flat, _ = module(v, t)
        _, _, att_v_cond, _ = module(v, t, clause_masks=self._masks())
        assert not np.allclose(att_v_flat.data, att_v_cond.data)

    def test_mixed_batch_per_sample_fallback(self):
        """Zero-row samples stay bit-exact inside a conditioned batch."""
        module = Rel2AttModule(config())
        v, t = sequences()
        masks = self._masks()
        masks[0] = 0.0  # sample 0 falls back, sample 1 conditions
        _, _, att_v_flat, att_t_flat = module(v, t)
        _, _, att_v, att_t = module(v, t, clause_masks=masks)
        assert np.array_equal(att_v.data[0], att_v_flat.data[0])
        assert np.array_equal(att_t.data[0], att_t_flat.data[0])
        assert not np.allclose(att_v.data[1], att_v_flat.data[1])

    def test_token_mask_still_respected(self):
        """PAD positions stay zero even when a clause row covers them."""
        module = Rel2AttModule(config())
        v, t = sequences()
        token_mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        masks = np.zeros((2, 2, 3))
        masks[:, 0, 0] = 1.0
        masks[:, 1, 1:] = 1.0  # overlaps the PAD slot
        _, _, _, att_t = module(v, t, token_mask, masks)
        assert np.allclose(att_t.data[:, 2], 0.0)

    def test_gradients_flow_with_clause_masks(self):
        module = Rel2AttModule(config())
        v, t = sequences()
        av, at, _, _ = module(v, t, clause_masks=self._masks())
        (av.sum() + at.sum()).backward()
        assert v.grad is not None and t.grad is not None

    def test_no_new_parameters(self):
        """Clause conditioning is pure pooling; checkpoints stay loadable."""
        module = Rel2AttModule(config())
        v, t = sequences()
        module(v, t, clause_masks=self._masks())
        names = set(module.state_dict())
        fresh = set(Rel2AttModule(config()).state_dict())
        assert names == fresh

    def test_stack_accepts_clause_masks(self):
        stack = Rel2AttStack(config())
        v, t = sequences()
        out_flat, _ = stack(v, t)
        out_cond, masks = stack(v, t, clause_masks=self._masks())
        assert out_cond.shape == v.shape
        assert len(masks) == 2
        assert not np.allclose(out_flat.data, out_cond.data)


class TestClausePoolingReference:
    """The vectorised clause pooling equals one ``_attention_scores``
    pass per clause row, pooled as documented."""

    @staticmethod
    def reference(module, v, t, token_mask, clause_masks):
        cfg, (batch, m), n = module.config, v.shape[:2], t.shape[1]
        relation = module.relation_map(v, t)
        base = np.ones((batch, n)) if token_mask is None else token_mask
        image, text = np.zeros((batch, m)), np.zeros((batch, n))
        coverage, active = np.zeros((batch, n)), np.zeros((batch, 1))
        for c in range(clause_masks.shape[1]):
            row = clause_masks[:, c] * base
            act = (row.sum(axis=1, keepdims=True) > 0).astype(float)
            weights = _relation_weight_mask(
                batch, m, n, row, cfg.use_self_attention,
                cfg.use_co_attention)
            blocks = _self_attention_blocks(m, n)
            gated = Tensor(weights * (blocks * module.self_gate.data
                                      + (1.0 - blocks)))
            att = module._attention_scores(
                relation * gated, weights, m).data[:, 0]
            image += att[:, :m] * act
            text += att[:, m:] * row
            coverage += row
            active += act
        return (image / np.maximum(active, 1.0),
                text / np.maximum(coverage, 1.0), active[:, 0] >= 2)

    @pytest.mark.parametrize("overrides", [
        {}, {"block_balanced_attention": False},
        {"use_self_attention": False}, {"use_co_attention": False},
    ])
    @pytest.mark.usefixtures("float64")
    def test_matches_per_clause_scores(self, overrides):
        module = Rel2AttModule(config(**overrides))
        module.self_gate.data[...] = 0.6  # an open gate is pooled too
        v, t = sequences(m=6, n=5, batch=4, seed=3)
        token_mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0],
                               [1, 1, 1, 1, 0], [1, 1, 0, 0, 0]], float)
        masks = np.zeros((4, 3, 5))
        masks[:, 0, :2] = 1.0
        masks[:, 1, 1:4] = 1.0
        masks[:, 2, 3:] = 1.0  # covers PAD in samples 1-3
        masks[3, 0] = 0.0  # sample 3: one active row -> flat
        _, _, att_v, att_t = module(v, t, token_mask, masks)
        image, text, conditioned = self.reference(module, v, t,
                                                  token_mask, masks)
        assert conditioned.tolist() == [True, True, True, False]
        np.testing.assert_allclose(att_v.data[:3], image[:3],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(att_t.data[:3], text[:3],
                                   rtol=0, atol=1e-12)


class TestRel2AttStack:
    @staticmethod
    def per_block(stack, v, t, token_mask, clause_masks):
        """The stack's forward with every block building its own masks."""
        attention = []
        for block in stack.blocks:
            attended_v, attended_t, att_v, _ = block(v, t, token_mask, clause_masks)
            v, t = v + attended_v, t + attended_t
            attention.append(att_v)
        return v, attention

    @pytest.mark.parametrize("clauses", [False, True], ids=["flat", "clauses"])
    def test_masks_built_once_per_forward(self, monkeypatch, clauses):
        import repro.core.rel2att as rel2att

        stack = Rel2AttStack(config(num_rel2att=3))
        for index, block in enumerate(stack.blocks):
            block.self_gate.data[...] = 0.25 * index  # open gates differ
        v, t = sequences(m=6, n=4, batch=3, seed=5)
        token_mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0]], float)
        clause_masks = None
        if clauses:
            clause_masks = np.zeros((3, 2, 4))
            clause_masks[:, 0, :2] = 1.0
            clause_masks[:, 1, 1:] = 1.0
        calls = []
        build = rel2att._relation_weight_mask

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(rel2att, "_relation_weight_mask", counted)
        out, attention = stack(v, t, token_mask, clause_masks)
        assert len(calls) == 1
        ref_out, ref_attention = self.per_block(stack, v, t, token_mask, clause_masks)
        assert len(calls) == 1 + len(stack.blocks)
        assert out.data.tobytes() == ref_out.data.tobytes()
        for a, b in zip(attention, ref_attention):
            assert a.data.tobytes() == b.data.tobytes()

    def test_stack_depth_respected(self):
        stack = Rel2AttStack(config())
        v, t = sequences()
        out, masks = stack(v, t)
        assert len(masks) == 2
        assert out.shape == v.shape

    def test_residual_connections_change_features(self):
        stack = Rel2AttStack(config())
        v, t = sequences()
        out, _ = stack(v, t)
        assert not np.allclose(out.data, v.data)

    def test_bounded_reweighting_stays_finite(self):
        """Large-magnitude inputs must not overflow through the stack."""
        stack = Rel2AttStack(config(num_rel2att=3))
        rng = np.random.default_rng(0)
        v = Tensor(rng.normal(scale=30.0, size=(1, 6, 8)))
        t = Tensor(rng.normal(scale=30.0, size=(1, 3, 8)))
        out, masks = stack(v, t)
        assert np.all(np.isfinite(out.data))
        assert all(np.all(np.isfinite(m.data)) for m in masks)
