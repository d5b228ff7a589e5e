"""Full YOLLO model, trainer, and Grounder wrapper."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import Grounder, YolloConfig, YolloModel, YolloTrainer
from repro.data import REFCOCO, build_dataset
from repro.core.yollo import NMS_IOU
from repro.data.loader import encode_batch
from repro.detection import clip_boxes, decode_offsets, nms
from repro.runtime import read_checkpoint, write_checkpoint


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(REFCOCO.scaled(0.04))


@pytest.fixture(scope="module")
def cfg(dataset):
    return YolloConfig(
        backbone="tiny", d_model=12, d_rel=16, ffn_hidden=16, head_hidden=16,
        num_rel2att=2, max_query_length=max(6, dataset.max_query_length),
        batch_size=4,
    )


@pytest.fixture(scope="module")
def model(dataset, cfg):
    return YolloModel(cfg, vocab_size=len(dataset.vocab))


class TestForward:
    def test_output_shapes(self, dataset, cfg, model):
        batch = encode_batch(dataset["train"][:2], dataset.vocab, cfg.max_query_length)
        out = model(Tensor(batch["images"]), batch["token_ids"], batch["token_mask"])
        num_anchors = model.anchor_grid.num_anchors
        assert out.cls_logits.shape == (2, num_anchors, 2)
        assert out.reg_offsets.shape == (2, num_anchors, 4)
        assert len(out.attention_masks) == cfg.num_rel2att

    def test_predictions_are_valid_boxes(self, dataset, cfg, model):
        batch = encode_batch(dataset["val"][:3], dataset.vocab, cfg.max_query_length)
        preds = model.predict(batch["images"], batch["token_ids"], batch["token_mask"])
        assert len(preds) == 3
        for p in preds:
            x1, y1, x2, y2 = p.box
            assert 0 <= x1 <= x2 <= cfg.image_width
            assert 0 <= y1 <= y2 <= cfg.image_height
            assert 0.0 <= p.score <= 1.0
            assert p.attention_map.shape == (model.encoder.grid_h, model.encoder.grid_w)

    def test_predict_restores_train_mode(self, dataset, cfg, model):
        batch = encode_batch(dataset["val"][:1], dataset.vocab, cfg.max_query_length)
        model.train()
        model.predict(batch["images"], batch["token_ids"], batch["token_mask"])
        assert model.training


class TestRankedDecode:
    """``_rank_sample`` decodes a score-ordered prefix; its answer is the
    decode of every in-bounds anchor, bytes and dtypes included."""

    @staticmethod
    def reference(model, probs, offsets, top_k):
        anchors = model.anchor_grid.all_anchors()
        valid = probs >= 0.0
        if not valid.any():
            valid = np.ones_like(probs, dtype=bool)
        boxes = clip_boxes(decode_offsets(anchors[valid], offsets[valid]),
                           model.config.image_height, model.config.image_width)
        scores = probs[valid]
        keep = nms(boxes, scores, iou_threshold=NMS_IOU, max_keep=top_k)
        return boxes[keep], scores[keep], np.flatnonzero(valid)[keep]

    @staticmethod
    def cases(num_anchors, seed):
        """Seeded probabilities (about a third cross-boundary, at -1) and
        offsets, the same probabilities rounded to one decimal so scores
        tie, and a row with no in-bounds anchor."""
        rng = np.random.default_rng(seed)
        dtype = (np.float32, np.float64)[seed % 2]
        probs = rng.uniform(size=num_anchors).astype(dtype)
        probs[rng.uniform(size=num_anchors) < 0.35] = -1.0
        offsets = rng.normal(scale=0.6, size=(num_anchors, 4)).astype(dtype)
        tied = np.where(probs >= 0.0, np.round(probs, 1), probs).astype(dtype)
        outside = np.full(num_anchors, -1.0, dtype=dtype)
        return [(probs, offsets), (tied, offsets), (outside, offsets)]

    def test_prefix_decode_matches_decoding_every_anchor(self, model):
        num_anchors = model.anchor_grid.num_anchors
        checked = 0
        for seed in range(12):
            for probs, offsets in self.cases(num_anchors, seed):
                for top_k in (1, 5, num_anchors, num_anchors + 7):
                    got = model._rank_sample(probs, offsets, top_k)
                    want = self.reference(model, probs, offsets, top_k)
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and a.shape == b.shape
                        assert a.tobytes() == b.tobytes()
                    checked += 1
        assert checked == 12 * 3 * 4

    def test_model_outputs_rank_as_before(self, dataset, cfg, model):
        batch = encode_batch(dataset["val"][:4], dataset.vocab, cfg.max_query_length)
        probs, offsets, _ = model._predict_arrays(
            batch["images"], batch["token_ids"], batch["token_mask"], attention=False)
        for b in range(len(probs)):
            for top_k in (1, 5, 50):
                got = model._rank_sample(probs[b], offsets[b], top_k)
                want = self.reference(model, probs[b], offsets[b], top_k)
                assert all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                           for x, y in zip(got, want))


class TestTrainer:
    def test_loss_decreases_on_fixed_batch(self, dataset, cfg):
        model = YolloModel(cfg, vocab_size=len(dataset.vocab))
        trainer = YolloTrainer(model, dataset, cfg)
        def step():
            loss, _ = trainer.slot_forward_backward(trainer.iteration, 0, np.arange(4))
            trainer.apply_step(loss)
            return loss

        first = step()
        for _ in range(15):
            last = step()
        assert last < first

    def test_train_records_history_and_curve(self, dataset, cfg):
        model = YolloModel(cfg, vocab_size=len(dataset.vocab))
        trainer = YolloTrainer(model, dataset, cfg)
        history = trainer.train(epochs=1, eval_every=1, eval_samples=2)
        assert history.iterations == len(history.losses)
        assert history.curve.iterations  # at least one eval point
        assert len(history.loss_components) == history.iterations

    def test_save_load_preserves_predictions(self, dataset, cfg, tmp_path):
        model = YolloModel(cfg, vocab_size=len(dataset.vocab))
        path = str(tmp_path / "yollo.ckpt")
        write_checkpoint(path, model.state_dict())
        clone = YolloModel(cfg, vocab_size=len(dataset.vocab))
        clone.load_state_dict(read_checkpoint(path).payload)
        batch = encode_batch(dataset["val"][:2], dataset.vocab, cfg.max_query_length)
        a = model.predict(batch["images"], batch["token_ids"], batch["token_mask"])
        b = clone.predict(batch["images"], batch["token_ids"], batch["token_mask"])
        assert np.allclose(a[0].box, b[0].box)


class TestClauseConditionedInference:
    def _masks(self, model, cfg, batch_size):
        n = cfg.max_query_length
        masks = np.zeros((batch_size, 2, n))
        masks[:, 0, :2] = 1.0
        masks[:, 1, 1:3] = 1.0
        return masks

    def test_predict_accepts_clause_masks(self, dataset, cfg, model):
        batch = encode_batch(dataset["val"][:2], dataset.vocab,
                             cfg.max_query_length)
        preds = model.predict(batch["images"], batch["token_ids"],
                              batch["token_mask"],
                              clause_masks=self._masks(model, cfg, 2))
        assert len(preds) == 2
        for p in preds:
            assert np.all(np.isfinite(p.box))
            assert 0.0 <= p.score <= 1.0

    def test_zero_masks_match_flat_predictions(self, dataset, cfg, model):
        """All-zero clause rows take the flat path bit-exactly."""
        batch = encode_batch(dataset["val"][:2], dataset.vocab,
                             cfg.max_query_length)
        flat = model.predict(batch["images"], batch["token_ids"],
                             batch["token_mask"])
        zero = model.predict(batch["images"], batch["token_ids"],
                             batch["token_mask"],
                             clause_masks=np.zeros(
                                 (2, 2, cfg.max_query_length)))
        for a, b in zip(flat, zero):
            assert np.array_equal(a.box, b.box)
            assert a.score == b.score

    def test_grounder_single_clause_bit_exact(self, dataset, cfg, model):
        """Single-clause queries compile to None masks: the conditioned
        grounder is bit-exact with the plain one."""
        flat = Grounder(model, dataset.vocab)
        conditioned = Grounder(model, dataset.vocab,
                               clause_conditioning=True)
        image = dataset["val"][0].image
        a = flat.ground(image, "the red dog")
        b = conditioned.ground(image, "the red dog")
        assert np.array_equal(a.box, b.box)
        assert a.score == b.score

    def test_grounder_compositional_query(self, dataset, cfg, model):
        grounder = Grounder(model, dataset.vocab, clause_conditioning=True)
        image = dataset["val"][0].image
        prediction = grounder.ground(
            image, "there is a red car . the dog next to it")
        assert np.all(np.isfinite(prediction.box))

    def test_checkpoint_roundtrip_in_clause_mode(self, dataset, cfg,
                                                 tmp_path):
        """Clause conditioning adds no parameters; old checkpoints load."""
        model = YolloModel(cfg, vocab_size=len(dataset.vocab))
        path = str(tmp_path / "yollo.ckpt")
        write_checkpoint(path, model.state_dict())
        clone = YolloModel(cfg, vocab_size=len(dataset.vocab))
        clone.load_state_dict(read_checkpoint(path).payload)
        grounder = Grounder(clone, dataset.vocab, clause_conditioning=True)
        reference = Grounder(model, dataset.vocab, clause_conditioning=True)
        image = dataset["val"][0].image
        query = "the dog next to the car that is to the left of the lamp"
        a = reference.ground(image, query)
        b = grounder.ground(image, query)
        assert np.array_equal(a.box, b.box)


class TestGrounder:
    def test_ground_single_query(self, dataset, cfg, model):
        grounder = Grounder(model, dataset.vocab)
        sample = dataset["val"][0]
        prediction = grounder.ground(sample.image, sample.query)
        assert prediction.box.shape == (4,)

    def test_grounder_protocol(self, dataset, cfg, model):
        grounder = Grounder(model, dataset.vocab)
        responses = grounder(dataset["val"][:3])
        assert len(responses) == 3
        assert all(r.boxes.shape == (1, 4) for r in responses)

    def test_unknown_words_handled(self, dataset, cfg, model):
        grounder = Grounder(model, dataset.vocab)
        prediction = grounder.ground(dataset["val"][0].image, "xyzzy plugh")
        assert np.all(np.isfinite(prediction.box))
