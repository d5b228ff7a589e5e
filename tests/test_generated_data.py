"""Generated ground truth: parser agreement and pinned digests for every generator."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.refcoco import DATASET_SPECS, build_dataset
from repro.lang import parse, resolve_tree
from repro.scenarios import available_scenarios, get_scenario
from repro.utils import seed_everything

GENERATORS = list(DATASET_SPECS) + available_scenarios()
ROOT = Path(__file__).resolve().parents[1]

#: sha256 of (query, target_index, boxes) per generator, dataset
#: flavours at ``scaled(0.1)`` and scenarios at 4 scenes.  A change here
#: means generated data changed: say so, and why, when re-pinning.
PINNED_DIGESTS = {
    "RefCOCO": "1aa75213199206a7b414d937f588614d5316f2c3361cc09b4e5a8e9f6aeb76c2",
    "RefCOCO+": "3c9476069fbdd3c5971894e4ddcaf1441d40764987948009ae59c014acc8d0a1",
    "RefCOCOg": "04e6b706057aee548f717ca2982e1d9658fc2a0124fe5cb8a7e830e93f642b0c",
    "crowded": "f2756b1096d9e3a50a812e9b6d9ade82a8a2fe170c7e05ae6b9d062e6172fae7",
    "driving": "364ef38ec98bef76be7cb48daf02b6eb9fb1deb6126354869611f3eae6496b81",
    "weak": "d158ec67476db9b8fd5f1126d6fab89151f3ca89775509b7688aef039c2b4e9d",
    "compositional": "38fc9374bee743f646fd0b11fff0d737feb750fa7ddb7b8de2ae85bd79b25cf2",
}


def generated_samples(name, dataset_scale, scenario_scenes):
    """Samples of one dataset flavour or scenario, built after ``seed_everything(0)``."""
    seed_everything(0)
    if name in DATASET_SPECS:
        spec = DATASET_SPECS[name].scaled(dataset_scale)
        return build_dataset(spec).all_samples()
    return get_scenario(name).eval_samples(scenario_scenes)


def target_boxes(sample):
    """Every ground-truth box in answer order (empty for no-target)."""
    boxes = getattr(sample, "all_target_boxes", None)
    return sample.target_box.reshape(1, 4) if boxes is None else boxes


@pytest.mark.parametrize("name", GENERATORS)
def test_parsed_queries_resolve_to_ground_truth(name):
    samples = generated_samples(name, dataset_scale=1.0, scenario_scenes=100)
    misses = []
    for sample in samples:
        resolved = resolve_tree(parse(sample.query), sample.scene)
        boxes = target_boxes(sample)
        if len(resolved) != len(boxes) or not all(
                np.array_equal(o.box, box) for o, box in zip(resolved, boxes)):
            misses.append(sample.query)
    assert not misses, f"{len(misses)}/{len(samples)} missed: {misses[:5]}"


def data_digest(name):
    """sha256 of every sample's query, target_index and target boxes."""
    digest = hashlib.sha256()
    for sample in generated_samples(name, dataset_scale=0.1,
                                    scenario_scenes=4):
        boxes = np.round(np.asarray(target_boxes(sample), dtype=float), 4)
        digest.update(f"{sample.query}\t{sample.target_index}\t"
                      f"{boxes.tolist()}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", GENERATORS)
def test_generated_data_matches_pinned_digest(name):
    assert data_digest(name) == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", GENERATORS)
def test_generated_images_are_float32(name):
    samples = generated_samples(name, dataset_scale=0.1, scenario_scenes=4)
    assert {sample.image.dtype for sample in samples} == {np.dtype(np.float32)}


def test_compositional_data_ignores_string_hash_seed():
    # Set iteration order follows PYTHONHASHSEED; generated data must not.
    code = ("from tests.test_generated_data import data_digest; "
            "print(data_digest('compositional'))")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(ROOT / "src"), str(ROOT),
                        os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert digests == {PINNED_DIGESTS["compositional"]}
