"""Serving throughput — batched engine vs one-request-at-a-time grounding.

Replays a synthetic request trace with repeated (image, query) pairs
through :class:`repro.serve.ServeEngine` and compares queries/second
against the naive loop that calls ``Grounder.ground`` once per request.
The engine must win by at least 2x on this trace: micro-batching keeps
the conv backbone's vectorised path full and the LRU cache plus
in-flight deduplication absorb the repeats.
"""

import time

import numpy as np
from conftest import write_artifact

from repro.core import Grounder, YolloConfig, YolloModel
from repro.data import REFCOCO, build_dataset
from repro.serve import ServeEngine, synthetic_trace
from repro.utils import seed_everything, spawn_rng

import pytest

pytestmark = pytest.mark.slow

NUM_REQUESTS = 160
REPEAT_FRACTION = 0.5
MAX_BATCH = 16
MIN_SPEEDUP = 2.0


def _make_grounder():
    seed_everything(13)
    dataset = build_dataset(REFCOCO.scaled(0.2))
    cfg = YolloConfig(
        backbone="tiny", d_model=16, d_rel=24, ffn_hidden=24, head_hidden=24,
        num_rel2att=2, batch_size=8,
        max_query_length=max(6, dataset.max_query_length),
    )
    model = YolloModel(cfg, vocab_size=len(dataset.vocab))
    model.eval()
    pool = dataset["val"] + dataset["testA"]
    return Grounder(model, dataset.vocab), pool


def test_serve_throughput(results_dir):
    grounder, pool = _make_grounder()
    trace = synthetic_trace(
        pool, NUM_REQUESTS, repeat_fraction=REPEAT_FRACTION,
        rng=spawn_rng("serve-bench"),
    )

    # Warm both paths once so JIT-free numpy allocations settle.
    grounder.ground(trace[0].image, trace[0].query)

    start = time.perf_counter()
    naive = np.stack(
        [grounder.ground(r.image, r.query).box for r in trace]
    )
    naive_wall = time.perf_counter() - start
    naive_qps = len(trace) / naive_wall

    with ServeEngine(grounder, max_batch=MAX_BATCH,
                     cache_size=256) as engine:
        start = time.perf_counter()
        served = engine.ground_many(trace)
        served_wall = time.perf_counter() - start
        stats = engine.stats()
    served_qps = len(trace) / served_wall
    speedup = served_qps / naive_qps

    # The top-1 response's box is the paper's answer, byte for byte.
    assert np.array_equal(np.stack([r.top_box for r in served]), naive), (
        "served boxes diverged from the one-at-a-time baseline"
    )
    assert stats.cache_hits > 0, "repeated trace produced zero cache hits"

    lines = [
        f"Serving throughput ({NUM_REQUESTS} requests, "
        f"repeat fraction {REPEAT_FRACTION}, pool {len(pool)})",
        f"  one-at-a-time : {naive_qps:8.1f} qps  ({naive_wall:.3f}s)",
        f"  serve engine  : {served_qps:8.1f} qps  ({served_wall:.3f}s)",
        f"  speedup       : {speedup:8.2f}x",
        "",
        stats.render(),
    ]
    write_artifact(results_dir, "serve_throughput.txt", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"serve engine only reached {speedup:.2f}x over the naive loop "
        f"(required {MIN_SPEEDUP}x)"
    )
