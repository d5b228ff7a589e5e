"""Graph-compiled inference vs eager — the compile pipeline must pay.

Traces the tiny-preset YOLLO forward into an execution plan (constant
folding, BatchNorm folding, conv/add epilogue fusion, buffers laid
out in the plan cache's one workspace) and times ``predict`` eager vs
compiled, printing the bytes that workspace holds beside the speed-up,
so a memory regression shows next to a latency one.  Measurement is single-query (batch 1), matching the paper's
deployment-style Table-5 timing and ``repro.eval.timing``.  Timing is
min-of-N: the minimum over repeated passes is the stable estimator for
CPU microbenchmarks, where the mean is polluted by scheduler noise.
Eager and compiled passes alternate, so a burst of load elsewhere on
the machine slows both sides rather than one.
Compiled inference must be at least 1.3x faster than eager on the same
inputs, bit-for-bit equal outputs being asserted first — a speedup from
diverging numerics would be meaningless.
"""

import copy
import time

import pytest
from conftest import write_artifact

from repro.core import YolloConfig, YolloModel
from repro.data import REFCOCO, build_dataset
from repro.data.loader import encode_batch
from repro.utils import seed_everything

pytestmark = pytest.mark.slow

BATCH_SIZE = 1
REPS = 12
MIN_SPEEDUP = 1.3


def _make_model():
    seed_everything(13)
    dataset = build_dataset(REFCOCO.scaled(0.2))
    cfg = YolloConfig(
        backbone="tiny", d_model=16, d_rel=24, ffn_hidden=24, head_hidden=24,
        num_rel2att=2, batch_size=BATCH_SIZE,
        max_query_length=max(6, dataset.max_query_length),
    )
    model = YolloModel(cfg, vocab_size=len(dataset.vocab))
    model.eval()
    return model, dataset, cfg


def _time_predict(models, batch, reps=REPS):
    """Min-of-N seconds for one ``predict`` over the batch, per model.

    The models take turns within each repetition.
    """
    best = [float("inf")] * len(models)
    for _ in range(reps):
        for index, model in enumerate(models):
            start = time.perf_counter()
            model.predict(batch["images"], batch["token_ids"],
                          batch["token_mask"])
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_compiled_inference_speedup(results_dir):
    model, dataset, cfg = _make_model()
    batch = encode_batch(
        dataset["val"][:BATCH_SIZE], dataset.vocab, cfg.max_query_length
    )

    # Correctness gate before any timing: compiled must equal eager
    # byte-for-byte on boxes, scores, and attention maps.
    eager_preds = model.predict(
        batch["images"], batch["token_ids"], batch["token_mask"]
    )
    compiled = copy.deepcopy(model).compile()
    compile_start = time.perf_counter()
    compiled_preds = compiled.predict(
        batch["images"], batch["token_ids"], batch["token_mask"]
    )
    compile_wall = time.perf_counter() - compile_start
    for e, c in zip(eager_preds, compiled_preds):
        assert e.box.tobytes() == c.box.tobytes()
        assert e.score == c.score and e.anchor_index == c.anchor_index
        assert e.attention_map.tobytes() == c.attention_map.tobytes()

    eager_wall, compiled_wall = _time_predict([model, compiled], batch)
    workspace_kib = compiled.plan_cache.stats()["workspace_bytes"] / 1024

    speedup = eager_wall / compiled_wall
    assert speedup >= MIN_SPEEDUP, (
        f"compiled inference only {speedup:.2f}x faster than eager "
        f"(need >= {MIN_SPEEDUP}x): eager {eager_wall * 1e3:.2f}ms, "
        f"compiled {compiled_wall * 1e3:.2f}ms"
    )

    lines = [
        f"Compiled inference speedup (tiny preset, single query, "
        f"min of {REPS}, eager and compiled interleaved)",
        f"  eager    : {eager_wall * 1e3:8.2f} ms/query",
        f"  compiled : {compiled_wall * 1e3:8.2f} ms/query",
        f"  speedup  : {speedup:8.2f} x  (floor {MIN_SPEEDUP}x)",
        f"  workspace: {workspace_kib:8.1f} KiB  (plan cache: arena + conv scratch)",
        f"  first call (trace+passes+plan, whose checked first run answers): "
        f"{compile_wall * 1e3:.1f} ms",
        "  outputs  : bit-exact (boxes, scores, attention maps)",
    ]
    write_artifact(results_dir, "compile_speedup.txt", "\n".join(lines))
