"""repro.zoo: preset registry, lowering, and the full-registry smoke.

The parametrized smoke is the zoo's acceptance test: every registered
preset must build, take a train step, answer the ranked protocol,
round-trip through a fingerprinted checkpoint, and compile bit-exactly.
Fast-tier presets run in tier-1; paper-scale presets are slow-marked.
"""

import numpy as np
import pytest

from repro.core import UnknownConfigFieldError, YolloConfig, YolloTrainer
from repro.core.response import responses_equal
from repro.data import REFCOCO, build_dataset
from repro.data.loader import encode_batch
from repro.runtime import CheckpointManager
from repro.runtime.checkpoint import FingerprintMismatchError
from repro.zoo import (
    ModelPreset,
    UnknownPresetError,
    available_presets,
    build_model,
    get_preset,
    lower_config,
    preset_fingerprint,
    register_preset,
)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(REFCOCO.scaled(0.04))


def _maxlen(dataset):
    return max(8, dataset.max_query_length)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registry_spans_every_component_axis(self):
        presets = available_presets()
        assert len(presets) >= 5
        configs = [lower_config(name) for name in presets]
        assert any(c.context_encoder == "dilated" for c in configs)
        assert any(c.fusion == "word2pix" for c in configs)
        assert any(c.matcher == "topk" for c in configs)
        assert any(c.cls_loss == "focal" for c in configs)
        # the baseline preset keeps every default component
        baseline = lower_config("tiny")
        assert (baseline.context_encoder, baseline.fusion,
                baseline.matcher, baseline.cls_loss) == (
            "none", "rel2att", "iou", "softmax_ce")

    def test_unknown_preset_lists_registry(self):
        with pytest.raises(UnknownPresetError) as excinfo:
            get_preset("nope")
        message = str(excinfo.value)
        assert "nope" in message
        assert "tiny" in message

    def test_tiers_partition_the_registry(self):
        fast = available_presets(tier="fast")
        full = available_presets(tier="full")
        assert fast and full
        assert set(fast).isdisjoint(full)
        assert sorted(fast + full) == sorted(available_presets())

    def test_register_rejects_unknown_config_keys(self):
        with pytest.raises(UnknownConfigFieldError) as excinfo:
            register_preset(ModelPreset(
                name="broken", description="typo'd field",
                config={"no_such_field": 1}))
        message = str(excinfo.value)
        assert "no_such_field" in message
        assert "d_model" in message  # lists the valid fields
        assert "broken" not in available_presets()

    def test_register_rejects_unknown_tier(self):
        with pytest.raises(ValueError):
            register_preset(ModelPreset(
                name="odd-tier", description="", tier="medium"))
        assert "odd-tier" not in available_presets()

    def test_lists_normalise_to_tuples(self):
        preset = ModelPreset(name="inline", description="",
                             config={"encoder_dilations": [1, 2]})
        assert lower_config(preset).encoder_dilations == (1, 2)

    def test_with_overrides_unknown_key_names_fields(self):
        with pytest.raises(UnknownConfigFieldError) as excinfo:
            YolloConfig().with_overrides(dmodel=32)
        message = str(excinfo.value)
        assert "dmodel" in message
        assert "d_model" in message

    def test_fingerprints_separate_presets_and_config_drift(self):
        prints = {preset_fingerprint(name) for name in available_presets()}
        assert len(prints) == len(available_presets())
        assert (preset_fingerprint("tiny", d_model=32)
                != preset_fingerprint("tiny"))
        # two presets lowering identically still fingerprint apart
        twin = ModelPreset(name="tiny-twin", description="",
                           config=dict(get_preset("tiny").config))
        assert preset_fingerprint(twin) != preset_fingerprint("tiny")


class TestConstructor:
    def test_preset_grounder_matches_hand_built_weights(self, tmp_path,
                                                        monkeypatch):
        """The zoo constructor draws random numbers in the order the
        hand-built sequence did (dataset, backbone, model), so serving
        replicas and cached weights keep their exact values."""
        from repro.backbone import load_pretrained_backbone
        from repro.core import YolloModel
        from repro.utils import seed_everything
        from repro.zoo import build_preset_grounder

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        seed_everything(0)
        built = build_preset_grounder(preset="tiny", scale=0.1,
                                      pretrain_steps=1).model.state_dict()

        seed_everything(0)
        dataset = build_dataset(REFCOCO.scaled(0.1))
        config = lower_config("tiny", max_query_length=_maxlen(dataset))
        backbone = load_pretrained_backbone(config.backbone, steps=1)
        by_hand = YolloModel(config, vocab_size=len(dataset.vocab),
                             backbone=backbone).state_dict()

        assert list(built) == list(by_hand)
        for key in by_hand:
            assert built[key].dtype == by_hand[key].dtype, key
            assert built[key].tobytes() == by_hand[key].tobytes(), key

    def test_backbone_override_builds_same_weights(self, dataset, tmp_path,
                                                   monkeypatch):
        """A ``backbone`` override is lowered into the config once; it
        used to reach :func:`build_model` a second time and raise
        ``TypeError``.  Overriding with the preset's own trunk changes
        nothing, so the weights match a default build byte for byte."""
        from repro.utils import seed_everything
        from repro.zoo import build_yollo_model

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        seed_everything(0)
        default = build_yollo_model("tiny", dataset).state_dict()
        seed_everything(0)
        model = build_yollo_model("tiny", dataset, backbone="tiny")
        assert model.config.backbone == "tiny"
        overridden = model.state_dict()
        assert list(overridden) == list(default)
        for key in default:
            assert overridden[key].tobytes() == default[key].tobytes(), key

    def test_pre_gate_model_file_is_refused_by_its_stamp(self, dataset,
                                                         tmp_path,
                                                         monkeypatch):
        """A file saved before Rel2Att had its self-attention gate carries
        the old fingerprint (no format entry) and is refused by it, not
        later by the strict ``load_state_dict`` on a missing key."""
        from dataclasses import asdict

        from repro.runtime import config_fingerprint, write_checkpoint
        from repro.zoo import build_yollo_model

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        model = build_model("tiny", vocab_size=len(dataset.vocab),
                            max_query_length=_maxlen(dataset))
        state = {name: value for name, value in model.state_dict().items()
                 if not name.endswith("self_gate")}
        parent = config_fingerprint({"preset": "tiny",
                                     **asdict(lower_config("tiny"))})
        assert parent != preset_fingerprint("tiny")
        path = write_checkpoint(str(tmp_path / "pre-gate.ckpt"), state,
                                fingerprint=parent)
        with pytest.raises(FingerprintMismatchError):
            build_yollo_model("tiny", dataset, model_path=path)


# ----------------------------------------------------------------------
# Full-registry smoke: every preset earns its registry slot
# ----------------------------------------------------------------------
def _clause_masks(token_mask):
    """Three clause rows for every other sample, flat rows elsewhere."""
    batch, length = token_mask.shape
    masks = np.zeros((batch, 3, length))
    masks[::2, 0, :2] = 1.0
    masks[::2, 1, 1:3] = 1.0
    masks[::2, 2, 2:] = 1.0
    return masks


def _smoke_params():
    fast = available_presets(tier="fast")
    full = available_presets(tier="full")
    return ([pytest.param(name, False, id=name) for name in fast]
            + [pytest.param(name, True, id=f"{name}+clauses")
               for name in fast]
            + [pytest.param(name, False, id=name, marks=pytest.mark.slow)
               for name in full])


class TestPresetSmoke:
    @pytest.mark.parametrize("name,clauses", _smoke_params())
    def test_build_train_predict_checkpoint_compile(self, name, clauses,
                                                    dataset, tmp_path):
        config = lower_config(name, max_query_length=_maxlen(dataset))
        model = build_model(name, vocab_size=len(dataset.vocab),
                            max_query_length=_maxlen(dataset))

        # one real optimisation step through the preset's matcher + loss
        trainer = YolloTrainer(model, dataset, config)
        loss, _ = trainer.slot_forward_backward(0, 0, np.arange(2))
        trainer.apply_step(loss)
        assert np.isfinite(loss)

        # ranked protocol answers with valid, ordered scores
        model.eval()
        val = encode_batch(dataset["val"][:2], dataset.vocab,
                           config.max_query_length)
        clause_masks = _clause_masks(val["token_mask"]) if clauses else None
        responses = model.predict_ranked(
            val["images"], val["token_ids"], val["token_mask"], top_k=3,
            clause_masks=clause_masks)
        assert len(responses) == 2
        for response in responses:
            assert response.boxes.shape[1] == 4
            assert (np.diff(response.scores) <= 1e-12).all()

        # fingerprinted checkpoint round-trip restores predictions
        fingerprint = preset_fingerprint(name,
                                         max_query_length=_maxlen(dataset))
        manager = CheckpointManager(str(tmp_path), fingerprint=fingerprint)
        path = manager.save(model.state_dict(), 1)
        record = CheckpointManager(str(tmp_path),
                                   fingerprint=fingerprint).load(path)
        clone = build_model(name, vocab_size=len(dataset.vocab),
                            max_query_length=_maxlen(dataset))
        clone.load_state_dict(record.payload)
        clone.eval()
        restored = clone.predict_ranked(
            val["images"], val["token_ids"], val["token_mask"], top_k=3,
            clause_masks=clause_masks)
        assert all(responses_equal(a, b)
                   for a, b in zip(responses, restored))

        # compiled inference replays bit-exactly
        model.compile()
        compiled = model.predict_ranked(
            val["images"], val["token_ids"], val["token_mask"], top_k=3,
            clause_masks=clause_masks)
        # every conv (dilated ones included) runs the shared kernel, not
        # the generic eager replay
        plans = list(model.plan_cache._plans.values())
        assert plans and all(plan.fallbacks == 0 for plan in plans)
        model.uncompile()
        assert all(responses_equal(a, b)
                   for a, b in zip(responses, compiled))

    def test_checkpoints_do_not_cross_load_between_presets(self, dataset,
                                                           tmp_path):
        model = build_model("tiny", vocab_size=len(dataset.vocab),
                            max_query_length=_maxlen(dataset))
        manager = CheckpointManager(
            str(tmp_path), fingerprint=preset_fingerprint(
                "tiny", max_query_length=_maxlen(dataset)))
        path = manager.save(model.state_dict(), 1)
        other = CheckpointManager(
            str(tmp_path), fingerprint=preset_fingerprint(
                "tiny-word2pix", max_query_length=_maxlen(dataset)))
        with pytest.raises(FingerprintMismatchError):
            other.load(path)

    def test_presets_diverge_in_behaviour(self, dataset):
        """The variants are real: different presets, same seed, different
        answers (otherwise the registry is five names for one model)."""
        from repro.utils import seed_everything

        val = encode_batch(dataset["val"][:1], dataset.vocab,
                           _maxlen(dataset))
        answers = {}
        for name in ("tiny", "tiny-word2pix", "tiny-dilated"):
            seed_everything(77)
            model = build_model(name, vocab_size=len(dataset.vocab),
                                max_query_length=_maxlen(dataset))
            model.eval()
            response = model.predict_ranked(
                val["images"], val["token_ids"], val["token_mask"],
                top_k=1)[0]
            answers[name] = response.boxes.tobytes() + response.scores.tobytes()
        assert len(set(answers.values())) > 1


# ----------------------------------------------------------------------
# Ranked decode: a batch answers like its samples one at a time
# ----------------------------------------------------------------------
class TestRankedDecode:
    @pytest.fixture(scope="class")
    def requests(self, dataset):
        samples = [sample for split in ("train", "val", "testA", "testB")
                   for sample in dataset[split]][:16]
        assert len(samples) == 16
        return encode_batch(samples, dataset.vocab, _maxlen(dataset))

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("top_k,clauses", [
        pytest.param(1, False, id="1"), pytest.param(5, False, id="5"),
        pytest.param(1, True, id="1+clauses"),
        pytest.param(5, True, id="5+clauses"),
    ])
    def test_batch_equals_single_samples(self, dataset, requests, compiled,
                                         top_k, clauses):
        from repro.utils import seed_everything

        seed_everything(5)
        model = build_model("tiny", vocab_size=len(dataset.vocab),
                            max_query_length=_maxlen(dataset))
        model.eval()
        if compiled:
            model.compile()
        images, token_ids, token_mask = (
            requests["images"], requests["token_ids"], requests["token_mask"])
        # with clauses, flat samples share their batch with clause ones
        masks = _clause_masks(token_mask) if clauses else None
        batch = model.predict_ranked(images, token_ids, token_mask,
                                     top_k=top_k, clause_masks=masks)
        singles = [model.predict_ranked(
            images[i:i + 1], token_ids[i:i + 1], token_mask[i:i + 1],
            top_k=top_k,
            clause_masks=None if masks is None else masks[i:i + 1])[0]
            for i in range(len(images))]
        assert all(len(response) <= top_k for response in batch)
        assert all(responses_equal(a, b) for a, b in zip(batch, singles))
        if compiled:
            plans = list(model.plan_cache._plans.values())
            assert len(plans) == 2 and all(p.fallbacks == 0 for p in plans)
