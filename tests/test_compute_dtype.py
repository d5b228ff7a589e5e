"""One compute dtype: every float a model holds or computes is float32.

Compiled plans are the strictest witness: a float64 helper array fed
to a float32 model shows up as a ``cast`` node in the plan.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.backbone import build_backbone
from repro.backbone.pretrain import _sample_classification_batch
from repro.core.rel2att import (
    _attention_normalizers,
    _clause_pooling_arrays,
    _relation_weight_mask,
)
from repro.core.word2pix import _word_mask_arrays
from repro.data import REFCOCO, SceneGenerator, build_dataset
from repro.data.loader import encode_batch
from repro.lang import clause_token_masks, pad_clause_masks, parse
from repro.zoo import available_presets, build_model

#: Kernels of the compiled ``tiny`` plan at batch 1, with no cast among them.
FLAT_KERNELS = 149
CLAUSE_KERNELS = 209


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(REFCOCO.scaled(0.1))


def _maxlen(dataset):
    return max(8, dataset.max_query_length)


def _float_dtypes(arrays):
    return {np.asarray(a).dtype for a in arrays if np.asarray(a).dtype.kind == "f"}


def test_compiled_tiny_plans_hold_no_cast(dataset):
    model = build_model("tiny", vocab_size=len(dataset.vocab),
                        max_query_length=_maxlen(dataset))
    model.eval()
    model.compile()
    batch = encode_batch(dataset["val"][:1], dataset.vocab, _maxlen(dataset))
    clause_masks = pad_clause_masks([None], _maxlen(dataset))
    for masks in (None, clause_masks):
        model.predict(batch["images"], batch["token_ids"], batch["token_mask"],
                      clause_masks=masks)

    plans = {key[-1] is not None: plan
             for key, plan in model.plan_cache._plans.items()}
    assert plans[False].num_kernels == FLAT_KERNELS
    assert plans[True].num_kernels == CLAUSE_KERNELS
    for plan in plans.values():
        assert [node for node in plan.graph.nodes if node.op == "cast"] == []
        assert {node.dtype for node in plan.graph.nodes
                if node.dtype is not None and node.dtype.kind == "f"} == {
            np.dtype(np.float32)}


@pytest.mark.parametrize("name", available_presets(tier="fast"))
def test_every_parameter_and_buffer_is_float32(dataset, name):
    model = build_model(name, vocab_size=len(dataset.vocab),
                        max_query_length=_maxlen(dataset))
    state = model.state_dict()
    assert _float_dtypes(state.values()) == {np.dtype(np.float32)}
    model.load_state_dict({key: value.astype(np.float64)
                           for key, value in state.items()})
    assert _float_dtypes(model.state_dict().values()) == {np.dtype(np.float32)}


def test_batchnorm_buffers_stay_float32():
    """Built, updated by a training step and loaded from float64."""
    backbone = build_backbone("tiny-bn")
    float32 = {np.dtype(np.float32)}
    assert backbone.buffers() and _float_dtypes(backbone.buffers()) == float32
    backbone(Tensor(np.random.default_rng(0).random((2, 3, 16, 16))))
    assert _float_dtypes(backbone.buffers()) == float32
    backbone.load_state_dict({key: value.astype(np.float64)
                              for key, value in backbone.state_dict().items()})
    assert _float_dtypes(backbone.buffers()) == float32


def test_helper_masks_are_float32(dataset):
    length = _maxlen(dataset)
    batch = encode_batch(dataset["val"][:2], dataset.vocab, length)
    token_mask = batch["token_mask"]
    rows = clause_token_masks(parse("the red car left of the dog next to "
                                    "the blue ball"), length)
    assert rows is not None
    clause_masks = pad_clause_masks([rows, None], length)
    helpers = [
        token_mask,
        dataset.vocab.encode("the red car", length)[1],
        clause_masks,
        _relation_weight_mask(2, 6, length, token_mask, True, False),
        *_attention_normalizers(
            _relation_weight_mask(2, 6, length, token_mask, True, True),
            clause_masks, 6, True),
        *_clause_pooling_arrays(clause_masks, token_mask, 6),
        *_word_mask_arrays(2, length, token_mask),
        *_word_mask_arrays(2, length, None),
    ]
    assert _float_dtypes(helpers) == {np.dtype(np.float32)}


def test_batches_hold_float32_images_the_tensor_adopts(dataset):
    images = encode_batch(dataset["val"][:3], dataset.vocab,
                          _maxlen(dataset))["images"]
    assert images.dtype == np.float32
    assert np.shares_memory(Tensor(images).data, images)


def test_pretraining_batches_are_float32():
    images, _, _ = _sample_classification_batch(
        SceneGenerator(), 3, np.random.default_rng(0))
    assert images.dtype == np.float32
