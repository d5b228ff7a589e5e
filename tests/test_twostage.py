"""Two-stage baselines: proposals, region features, matchers, pipeline."""

import numpy as np
import pytest

from repro.data import REFCOCO, SceneGenerator, build_dataset
from repro.data.render import render_scene
from repro.detection import iou_matrix
from repro.twostage import (
    ListenerMatcher,
    RegionEncoder,
    RPNProposer,
    SegmentationProposer,
    SpeakerScorer,
    TwoStageGrounder,
    crop_and_resize,
    spatial_features,
    train_listener,
    train_speaker,
)
from repro.twostage import listener as listener_module
from repro.twostage import proposals as proposals_module
from repro.twostage import regions as regions_module
from repro.twostage import speaker as speaker_module
from tests.test_data_render import render_scene_float64


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(REFCOCO.scaled(0.04))


@pytest.fixture
def matcher_kwargs(dataset, monkeypatch):
    # Narrow embeddings keep the matchers quick to build and train.
    monkeypatch.setattr(listener_module, "EMBED_DIM", 12)
    monkeypatch.setattr(speaker_module, "EMBED_DIM", 12)
    return dict(max_query_length=dataset.max_query_length)


class TestRegions:
    def test_crop_shape(self, dataset):
        image = dataset["val"][0].image
        crop = crop_and_resize(image, np.array([5.0, 5.0, 25.0, 20.0]), (16, 16))
        assert crop.shape == (3, 16, 16)

    def test_crop_clips_out_of_bounds(self, dataset):
        image = dataset["val"][0].image
        crop = crop_and_resize(image, np.array([-10.0, -10.0, 200.0, 200.0]), (8, 8))
        assert crop.shape == (3, 8, 8)

    def test_spatial_features(self):
        feats = spatial_features(np.array([[0.0, 0.0, 36.0, 24.0]]), 48, 72)
        assert feats.shape == (1, 5)
        assert np.isclose(feats[0, 4], 36 * 24 / (48 * 72))

    def test_region_encoder_shapes(self, dataset, monkeypatch):
        monkeypatch.setattr(regions_module, "BACKBONE", "tiny")
        encoder = RegionEncoder(12)
        image = dataset["val"][0].image
        boxes = np.array([[0.0, 0.0, 20.0, 20.0], [10.0, 10.0, 40.0, 30.0]])
        out = encoder(image, boxes)
        assert out.shape == (2, 12)


class TestSegmentationProposer:
    def test_finds_objects(self, dataset, monkeypatch):
        monkeypatch.setattr(proposals_module, "QUALITY", 1.0)
        proposer = SegmentationProposer(rng=np.random.default_rng(0))
        hits = []
        for sample in dataset["val"]:
            proposals = proposer.propose(sample.image)
            hits.append(iou_matrix(proposals.boxes, sample.target_box[None]).max() > 0.4)
        assert np.mean(hits) >= 0.5

    def test_lower_quality_lowers_recall(self, dataset, monkeypatch):
        # Averaged over proposer seeds and the larger train split: a
        # single-seed measurement on the 4-sample val split swings by
        # 0.25 per flipped sample, drowning the quality effect in noise.
        def recall(quality, seed):
            monkeypatch.setattr(proposals_module, "QUALITY", quality)
            proposer = SegmentationProposer(rng=np.random.default_rng(seed))
            return np.mean([
                iou_matrix(proposer.propose(s.image).boxes, s.target_box[None]).max() > 0.5
                for s in dataset["train"]
            ])

        high = np.mean([recall(1.0, seed) for seed in range(5)])
        low = np.mean([recall(0.3, seed) for seed in range(5)])
        assert high >= low - 0.15

    def test_respects_max_proposals(self, dataset, monkeypatch):
        monkeypatch.setattr(proposals_module, "SEGMENTATION_MAX_PROPOSALS", 5)
        proposer = SegmentationProposer(rng=np.random.default_rng(0))
        assert len(proposer.propose(dataset["val"][0].image)) <= 5

    def test_float32_and_float64_renders_give_identical_proposals(self):
        generator = SceneGenerator(rng=np.random.default_rng(8))
        for index in range(12):
            scene = generator.generate()
            image = render_scene(scene, rng=np.random.default_rng(index))
            reference = render_scene_float64(scene, rng=np.random.default_rng(index))
            assert image.dtype == np.float32
            left = SegmentationProposer(rng=np.random.default_rng(index)).propose(image)
            right = SegmentationProposer(rng=np.random.default_rng(index)).propose(reference)
            assert left.boxes.tobytes() == right.boxes.tobytes()
            assert left.scores.tobytes() == right.scores.tobytes()

    def test_blank_image_fallback(self):
        proposer = SegmentationProposer(rng=np.random.default_rng(0))
        blank = np.full((3, 48, 72), 0.1)
        proposals = proposer.propose(blank)
        assert len(proposals) >= 1


class TestRPN:
    def test_propose_shapes(self, dataset, monkeypatch):
        monkeypatch.setattr(proposals_module, "RPN_MAX_PROPOSALS", 7)
        rpn = RPNProposer(backbone="tiny")
        proposals = rpn.propose(dataset["val"][0].image)
        assert proposals.boxes.shape[1] == 4
        assert len(proposals) <= 7


class TestListener:
    def test_scores_shape(self, dataset, matcher_kwargs):
        listener = ListenerMatcher(dataset.vocab, **matcher_kwargs)
        sample = dataset["val"][0]
        proposer = SegmentationProposer(rng=np.random.default_rng(0))
        proposals = proposer.propose(sample.image)
        ids, mask = dataset.vocab.encode(sample.tokens, listener.max_query_length)
        scores = listener(sample.image, proposals, ids, mask)
        assert scores.shape == (len(proposals),)

    def test_training_runs_and_reduces_loss(self, dataset, matcher_kwargs,
                                            monkeypatch):
        monkeypatch.setattr(proposals_module, "QUALITY", 1.0)
        listener = ListenerMatcher(dataset.vocab, **matcher_kwargs)
        proposer = SegmentationProposer(rng=np.random.default_rng(1))
        losses = train_listener(listener, dataset["train"], proposer, steps=40)
        assert losses, "expected at least one valid training step"
        assert np.mean(losses[-5:]) <= np.mean(losses[:5]) + 0.1


class TestSpeaker:
    def test_log_likelihoods_shape(self, dataset, matcher_kwargs):
        speaker = SpeakerScorer(dataset.vocab, **matcher_kwargs)
        sample = dataset["val"][0]
        boxes = np.array([[0.0, 0.0, 20.0, 20.0], [5.0, 5.0, 30.0, 30.0]])
        ids, mask = dataset.vocab.encode(sample.tokens, speaker.max_query_length)
        scores = speaker.log_likelihoods(sample.image, boxes, ids, mask)
        assert scores.shape == (2,)
        assert np.all(scores.data <= 0.0)  # log probabilities

    def test_training_reduces_loss(self, dataset, matcher_kwargs, monkeypatch):
        monkeypatch.setattr(speaker_module, "MMI_MARGIN", 0.0)  # captioning only
        speaker = SpeakerScorer(dataset.vocab, **matcher_kwargs)
        losses = train_speaker(speaker, dataset["train"], steps=30)
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_mmi_margin_runs(self, dataset, matcher_kwargs):
        speaker = SpeakerScorer(dataset.vocab, **matcher_kwargs)
        losses = train_speaker(speaker, dataset["train"], steps=5)
        assert len(losses) == 5


class TestPipeline:
    def test_grounder_protocol(self, dataset, matcher_kwargs):
        listener = ListenerMatcher(dataset.vocab, **matcher_kwargs)
        proposer = SegmentationProposer(rng=np.random.default_rng(2))
        grounder = TwoStageGrounder(proposer, {"listener": listener})
        responses = grounder(dataset["val"][:3])
        assert len(responses) == 3
        for response in responses:
            assert response.boxes.shape == (1, 4)
            assert response.scores.shape == (1,)
            assert not response.not_found

    def test_requires_matcher(self, dataset):
        with pytest.raises(ValueError):
            TwoStageGrounder(SegmentationProposer(), {})

    def test_timing_fields_recorded(self, dataset, matcher_kwargs):
        listener = ListenerMatcher(dataset.vocab, **matcher_kwargs)
        grounder = TwoStageGrounder(
            SegmentationProposer(rng=np.random.default_rng(3)), {"listener": listener}
        )
        grounder.ground_sample(dataset["val"][0])
        assert grounder.last_proposal_seconds > 0
        assert grounder.last_matching_seconds > 0
        assert grounder.proposal_time(dataset["val"][0]) > 0

    def test_ensemble_name(self, dataset, matcher_kwargs):
        listener = ListenerMatcher(dataset.vocab, **matcher_kwargs)
        speaker = SpeakerScorer(dataset.vocab, **matcher_kwargs)
        grounder = TwoStageGrounder(
            SegmentationProposer(), {"speaker": speaker, "listener": listener}
        )
        assert grounder.name == "speaker+listener"

    def test_stage_spans_recorded(self, dataset, matcher_kwargs):
        from repro.obs import collect_spans

        listener = ListenerMatcher(dataset.vocab, **matcher_kwargs)
        grounder = TwoStageGrounder(
            SegmentationProposer(rng=np.random.default_rng(5)),
            {"listener": listener},
        )
        with collect_spans() as spans:
            grounder.ground_sample(dataset["val"][0])
        assert spans.calls.get("twostage.propose") == 1
        assert spans.calls.get("twostage.match") == 1

    def test_matching_builds_no_grad_tensors(self, dataset, matcher_kwargs):
        from tests.conftest import record_grad_children

        listener = ListenerMatcher(dataset.vocab, **matcher_kwargs)
        grounder = TwoStageGrounder(
            SegmentationProposer(rng=np.random.default_rng(6)),
            {"listener": listener},
        )
        with record_grad_children() as tracked:
            grounder.ground_sample(dataset["val"][0])
        assert tracked == [], (
            f"two-stage inference allocated {len(tracked)} grad-tracked tensors"
        )


class TestInferenceKeepsMode:
    """Inference switches to eval mode and hands back the mode it found."""

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("kind", ["rpn", "listener", "speaker"])
    def test_mode_restored(self, dataset, matcher_kwargs, kind, training):
        sample = dataset["val"][0]
        if kind == "rpn":
            module = RPNProposer(backbone="tiny")
            module.train(training)
            module.propose(sample.image)
        else:
            cls = ListenerMatcher if kind == "listener" else SpeakerScorer
            module = cls(dataset.vocab, **matcher_kwargs)
            module.train(training)
            proposals = SegmentationProposer(
                rng=np.random.default_rng(0)).propose(sample.image)
            ids, mask = dataset.vocab.encode(sample.tokens,
                                             module.max_query_length)
            module(sample.image, proposals, ids, mask)
        assert all(m.training == training for m in module.modules())
