"""Graph compiler: tracing, optimisation passes, plans, compiled predict."""

import numpy as np
import pytest

from repro import autograd
from repro.autograd import Tensor, get_default_dtype, no_grad
from repro.core import Grounder, YolloConfig, YolloModel, responses_equal
from repro.data import REFCOCO, build_dataset
from repro.data.loader import encode_batch
from repro.graph import (
    ExecutionPlan,
    PlanCache,
    eliminate_dead_nodes,
    fold_batchnorm,
    fold_constants,
    fuse_epilogues,
    optimize_graph,
    trace,
)
from repro.nn.norm import BatchNorm2d
from repro.utils import seed_everything


@pytest.fixture(scope="module")
def dataset():
    seed_everything(29)
    return build_dataset(REFCOCO.scaled(0.04))


def make_model(dataset, backbone="tiny"):
    seed_everything(31)
    cfg = YolloConfig(
        backbone=backbone, d_model=12, d_rel=16, ffn_hidden=16, head_hidden=16,
        num_rel2att=2, max_query_length=max(6, dataset.max_query_length),
        batch_size=4,
    )
    model = YolloModel(cfg, vocab_size=len(dataset.vocab))
    model.eval()
    return model, cfg


def batch_of(dataset, cfg, n=3, split="val"):
    return encode_batch(dataset[split][:n], dataset.vocab, cfg.max_query_length)


def assert_predictions_bitwise_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.box.tobytes() == b.box.tobytes()
        assert a.score == b.score
        assert a.anchor_index == b.anchor_index
        assert a.attention_map.tobytes() == b.attention_map.tobytes()


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTrace:
    def test_records_ops_inputs_and_constants(self):
        weight = Tensor(np.arange(6.0).reshape(3, 2))

        def fn(x):
            return (x.matmul(weight.transpose(1, 0)) + 1.0).relu()

        x = Tensor(np.ones((4, 2)))
        traced = trace(fn, x, name="toy")
        ops = traced.graph.op_counts()
        assert len(traced.graph.inputs) == 1
        assert ops.get("matmul") == 1
        assert ops.get("add") == 1
        assert ops.get("relu") == 1
        # The weight and its transpose are trace-time constants.
        assert ops.get("constant", 0) >= 1

    def test_replay_matches_eager_on_fresh_inputs(self):
        weight = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4))

        def fn(x):
            return (x.matmul(weight) - 0.25).relu().sum(axis=1)

        traced = trace(fn, Tensor(np.zeros((2, 3))))
        optimize_graph(traced.graph)
        plan = ExecutionPlan(traced)
        fresh = Tensor(np.linspace(-2.0, 2.0, 6).reshape(2, 3))
        eager = fn(fresh).data
        compiled = plan.run(fresh).data
        assert eager.tobytes() == compiled.tobytes()

    def test_pytree_output_structure_roundtrips(self):
        def fn(x):
            doubled = x * 2.0
            return {"pair": (doubled, x + 1.0), "list": [x.relu()]}

        x = Tensor(np.array([[1.0, -1.0]]))
        traced = trace(fn, x)
        plan = ExecutionPlan(traced)
        out = plan.run(x)
        assert set(out) == {"pair", "list"}
        assert isinstance(out["pair"], tuple) and len(out["pair"]) == 2
        np.testing.assert_array_equal(out["pair"][0].data, [[2.0, -2.0]])
        np.testing.assert_array_equal(out["list"][0].data, [[1.0, 0.0]])

    def test_model_forward_traces_without_fallbacks(self, dataset):
        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg)
        with no_grad():
            traced = trace(
                model.forward, Tensor(batch["images"]),
                batch["token_ids"], batch["token_mask"],
            )
        optimize_graph(traced.graph)
        plan = ExecutionPlan(traced)
        assert plan.fallbacks == 0


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class TestPasses:
    def test_fold_constants_collapses_constant_subtree(self):
        w = Tensor(np.full((2, 2), 3.0))

        def fn(x):
            return x + (w * 2.0).transpose(1, 0)

        traced = trace(fn, Tensor(np.zeros((2, 2))))
        folded = fold_constants(traced.graph)
        assert folded >= 2  # the mul and the transpose
        ops = traced.graph.op_counts()
        assert "mul" not in ops and "transpose" not in ops

    def test_dead_node_elimination_counts_and_removes(self):
        def fn(x):
            unused = x * 100.0  # noqa: F841 — traced but not returned
            return x + 1.0

        traced = trace(fn, Tensor(np.ones(3)))
        before = len(traced.graph)
        removed = eliminate_dead_nodes(traced.graph)
        assert removed == 2  # the mul and its lifted 100.0 constant
        assert len(traced.graph) == before - 2
        assert "mul" not in traced.graph.op_counts()

    def test_batchnorm_chain_folds_to_single_affine(self):
        mean = Tensor(np.array([1.0, -2.0]).reshape(1, 2, 1, 1))
        denom = Tensor(np.array([2.0, 4.0]).reshape(1, 2, 1, 1))
        scale = Tensor(np.array([0.5, 1.5]).reshape(1, 2, 1, 1))
        shift = Tensor(np.array([0.1, -0.1]).reshape(1, 2, 1, 1))

        def fn(x):
            return ((x - mean) / denom) * scale + shift

        x = Tensor(np.arange(16.0).reshape(1, 2, 2, 4))
        traced = trace(fn, x)
        fold_constants(traced.graph)
        assert fold_batchnorm(traced.graph) == 1
        assert len(traced.graph.find("bn_affine")) == 1
        for op in ("sub", "div", "mul", "add"):
            assert op not in traced.graph.op_counts()
        plan = ExecutionPlan(traced)
        fresh = Tensor(np.linspace(-3.0, 3.0, 16).reshape(1, 2, 2, 4))
        assert plan.run(fresh).data.tobytes() == fn(fresh).data.tobytes()

    def test_conv_relu_fuses_into_one_node(self):
        weight = Tensor(np.linspace(-0.5, 0.5, 2 * 3 * 3 * 3).reshape(2, 3, 3, 3))
        bias = Tensor(np.array([0.25, -0.25]))

        def fn(x):
            # Call through the module so the tracer's patched binding is
            # the one resolved (frozen ``from … import conv2d`` names in
            # non-repro modules are deliberately left untouched).
            return autograd.conv2d(x, weight, bias, stride=1, padding=1).relu()

        x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 6, 6)))
        traced = trace(fn, x)
        fold_constants(traced.graph)
        assert fuse_epilogues(traced.graph) == 1
        eliminate_dead_nodes(traced.graph)
        fused = traced.graph.find("conv2d")
        assert len(fused) == 1 and fused[0].name == "conv2d+relu"
        assert "relu" not in traced.graph.op_counts()
        plan = ExecutionPlan(traced)
        fresh = Tensor(np.random.default_rng(6).normal(size=(2, 3, 6, 6)))
        assert plan.run(fresh).data.tobytes() == fn(fresh).data.tobytes()

    def test_model_level_batchnorm_folding_count(self, dataset):
        model, cfg = make_model(dataset, backbone="tiny-bn")
        batch = batch_of(dataset, cfg)
        with no_grad():
            traced = trace(
                model.forward, Tensor(batch["images"]),
                batch["token_ids"], batch["token_mask"],
            )
        counts = optimize_graph(traced.graph)
        bn_modules = sum(
            isinstance(m, BatchNorm2d) for m in model.modules()
        )
        assert bn_modules > 0
        assert counts["folded_batchnorm"] == bn_modules
        assert counts["fused_epilogues"] > 0
        assert counts["eliminated_dead"] > 0

    def test_model_level_fusion_on_norm_free_backbone(self, dataset):
        model, cfg = make_model(dataset, backbone="tiny")
        batch = batch_of(dataset, cfg)
        with no_grad():
            traced = trace(
                model.forward, Tensor(batch["images"]),
                batch["token_ids"], batch["token_mask"],
            )
        counts = optimize_graph(traced.graph)
        assert counts["folded_batchnorm"] == 0
        assert counts["fused_epilogues"] > 0
        names = {node.name for node in traced.graph.nodes}
        assert any(name.startswith("conv2d+") for name in names)

    @pytest.mark.parametrize("clauses", [False, True], ids=["flat", "clauses"])
    @pytest.mark.parametrize("backbone", ["tiny-preset", "tiny-bn"])
    def test_optimized_tiny_graphs_keep_their_kernels(self, dataset, backbone, clauses):
        """The one-pass BatchNorm folding and epilogue fusion build the
        very graphs the restarting passes built."""
        from collections import Counter

        from repro.zoo import build_model

        relu, bn = ("relu",), ("bn_affine", 2, 3, 4, 5)
        if backbone == "tiny-preset":
            seed_everything(31)
            model = build_model("tiny", vocab_size=len(dataset.vocab),
                                max_query_length=max(6, dataset.max_query_length))
            fused = {("conv2d+relu", (relu,)): 5, ("add+relu", (relu,)): 10}
        else:
            model, _ = make_model(dataset, backbone="tiny-bn")
            fused = {("conv2d+bn+relu", (bn, relu)): 3, ("conv2d+bn", (bn,)): 4,
                     ("conv2d+relu", (relu,)): 2, ("add+relu", (relu,)): 10}
        grounder = Grounder(model.eval(), dataset.vocab,
                            clause_conditioning=clauses).compile()
        grounder(dataset["val"][:3])
        (plan,) = grounder.plan_cache._plans.values()
        nodes = [node for _, node, _ in plan._schedule]
        assert plan.num_kernels == (194 if clauses else 143)
        assert plan.fallbacks == 0
        assert not any(node.op == "bn_affine" for node in nodes)
        steps = Counter(
            (node.name, tuple((step["op"], *step.get("slots", ()))
                              for step in node.attrs["epilogue"]))
            for node in nodes if node.attrs.get("epilogue"))
        assert steps == fused


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class TestExecutor:
    def _plan(self):
        w1 = Tensor(np.linspace(-1.0, 1.0, 16).reshape(4, 4))
        w2 = Tensor(np.linspace(1.0, -1.0, 16).reshape(4, 4))

        def fn(x):
            h = (x.matmul(w1) + 0.5).relu()
            h = (h.matmul(w2) - 0.5).relu()
            return h.sum(axis=1)

        traced = trace(fn, Tensor(np.zeros((8, 4))))
        optimize_graph(traced.graph)
        return fn, ExecutionPlan(traced)

    def test_arena_reuses_buffers(self):
        _, plan = self._plan()
        assert plan.arena_reuses > 0
        assert plan.arena_buffers < plan.num_kernels

    def test_outputs_are_private_copies(self):
        fn, plan = self._plan()
        x = Tensor(np.random.default_rng(0).normal(size=(8, 4)))
        first = plan.run(x)
        first_bytes = first.data.tobytes()
        first.data[:] = np.nan  # clobber the returned array
        second = plan.run(x)
        assert second.data.tobytes() == first_bytes

    def test_shape_mismatch_is_rejected(self):
        from repro.graph.executor import CompileError

        _, plan = self._plan()
        with pytest.raises(CompileError):
            plan.run(Tensor(np.zeros((3, 4))))

    def test_describe_mentions_kernels_and_arena(self):
        _, plan = self._plan()
        text = plan.describe()
        assert "kernels" in text and "arena" in text

    def test_idle_plan_pins_no_input_or_activation(self):
        import gc
        import weakref

        scale = Tensor(np.linspace(0.5, 2.0, 4))

        def fn(x):
            total = x.sum(axis=1, keepdims=True)  # not pooled, not an output
            return (x * total + scale).relu()

        traced = trace(fn, Tensor(np.zeros((8, 4))))
        optimize_graph(traced.graph)
        plan = ExecutionPlan(traced)
        index = next(i for i, (_, node, _) in enumerate(plan._schedule)
                     if node.op == "sum")
        slot, kernel = plan._steps[index]
        produced = []

        def spy():
            value = kernel()
            produced.append(weakref.ref(value))
            return value

        plan._steps[index] = (slot, spy)
        x = np.random.default_rng(0).normal(size=(8, 4)).astype(get_default_dtype())
        expected = fn(Tensor(x)).data
        given = weakref.ref(x)
        assert plan.run(x).data.tobytes() == expected.tobytes()
        del x
        gc.collect()
        assert given() is None
        assert len(produced) == 1 and produced[0]() is None

    def test_validation_drops_traced_values_after_their_last_use(self, dataset):
        import gc
        import weakref

        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg)
        with no_grad():
            traced = trace(model.forward, Tensor(batch["images"]),
                           batch["token_ids"], batch["token_mask"])
        optimize_graph(traced.graph)
        early = next(node for node in traced.graph.nodes if node.op == "conv2d")
        activation = weakref.ref(early.value)
        seen = []

        class SpyPlan(ExecutionPlan):
            def _bind(self, buffer):
                super()._bind(buffer)
                slot, kernel = self._steps[-1]

                def last_kernel():
                    gc.collect()
                    seen.append(activation())
                    return kernel()
                self._steps[-1] = (slot, last_kernel)

        plan = SpyPlan(traced)
        assert seen == [None]
        assert plan.fallbacks == 0

    def test_failed_kernel_still_falls_back_to_eager_replay(self):
        fn, clean = self._plan()
        traced = trace(fn, Tensor(np.zeros((8, 4))))
        optimize_graph(traced.graph)
        target = next(node for node in traced.graph.nodes if node.op == "matmul")

        class WrongPlan(ExecutionPlan):
            def _build_kernel(self, node, buffer, outs):
                kernel = super()._build_kernel(node, buffer, outs)
                return (lambda: kernel() + 1.0) if node is target else kernel

        plan = WrongPlan(traced)
        assert plan.fallbacks == clean.fallbacks + 1
        x = np.random.default_rng(3).normal(size=(8, 4)).astype(get_default_dtype())
        assert plan.run(x).data.tobytes() == fn(Tensor(x)).data.tobytes()

    @pytest.mark.parametrize("when", ["bound", "validated"])
    def test_max_pool_binds_taps_only_over_a_written_buffer(self, when):
        """A max pool binds its tap views over its producer's arena
        buffer, unless the producer is a generic replay: one from the
        start (``bound``) or one whose kernel fails its check in the
        first run (``validated``).  Then it reads the replay's output."""
        rng = np.random.default_rng(4)
        weight = Tensor(rng.normal(size=(3, 2, 3, 3)))

        def fn(x):
            return autograd.max_pool2d(autograd.conv2d(x, weight, padding=1).relu(), 2)

        x0 = rng.normal(size=(1, 2, 6, 8)).astype(get_default_dtype())
        traced = trace(fn, Tensor(x0))
        optimize_graph(traced.graph)
        conv = next(node for node in traced.graph.nodes if node.op == "conv2d")

        class FallbackPlan(ExecutionPlan):
            def _build_kernel(self, node, buffer, outs):
                if node is not conv:
                    return super()._build_kernel(node, buffer, outs)
                if when == "bound":
                    return self._build_generic_kernel(node)
                kernel = super()._build_kernel(node, buffer, outs)
                return lambda: kernel() + 1.0

        plan = FallbackPlan(traced)
        assert plan.fallbacks == 1  # the conv alone
        pool = next(k for (_, node, _), (_, k) in zip(plan._schedule, plan._steps)
                    if node.op == "max_pool2d")
        assert pool.__name__ == ("kernel_max_pool" if when == "bound"
                                 else "kernel_bound_max_pool")
        x = rng.normal(size=(1, 2, 6, 8)).astype(get_default_dtype())
        assert plan.run(x).data.tobytes() == fn(Tensor(x)).data.tobytes()

    def test_first_answer_is_the_traced_call_handed_over_once(self):
        fn, plan = self._plan()  # traced on zeros((8, 4))
        expected = fn(Tensor(np.zeros((8, 4)))).data
        assert plan.first_answer().data.tobytes() == expected.tobytes()
        with pytest.raises(RuntimeError):
            plan.first_answer()

    def test_compile_and_its_first_answer_run_each_kernel_once(self, dataset,
                                                               monkeypatch):
        from collections import Counter

        runs = Counter()
        bind = ExecutionPlan._bind

        def counting_bind(plan, buffer):
            bind(plan, buffer)

            def counted(node_id, kernel):
                def step():
                    runs[node_id] += 1
                    return kernel()
                return step
            plan._steps = [(slot, counted(node.id, kernel)) for (slot, kernel), (_, node, _)
                           in zip(plan._steps, plan._schedule)]

        monkeypatch.setattr(ExecutionPlan, "_bind", counting_bind)
        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg)
        args = (batch["images"], batch["token_ids"], batch["token_mask"])
        eager = model.predict(*args)
        model.compile()
        first = model.predict(*args)  # miss: trace, passes, the first run
        (plan,) = model.plan_cache._plans.values()
        kernels = {node.id for _, node, _ in plan._schedule}
        assert plan.fallbacks == 0 and set(runs) == kernels
        assert set(runs.values()) == {1}
        again = model.predict(*args)  # hit: one replay
        assert set(runs.values()) == {2}
        assert_predictions_bitwise_equal(eager, first)
        assert_predictions_bitwise_equal(eager, again)

    def test_arena_region_reused_before_its_last_read_fails_at_build(self):
        """A layout fault fails the build: the first run chains kernels
        through the arena, so a clobbered operand is read as such."""
        from repro.graph.executor import CompileError

        w = Tensor(np.linspace(-1.0, 1.0, 16).reshape(4, 4))

        def fn(x):
            a = x.matmul(w)
            b = a * 2.0  # a is read here first...
            c = b + 0.5  # ...so a faulty layout hands a's region to c
            return c * a  # ...and this reads c's bytes as a

        class FirstReadFrees(ExecutionPlan):
            def _liveness(self, graph, schedule, base):
                first_read = {}
                for position, node in enumerate(schedule):
                    for src in node.inputs:
                        first_read.setdefault(base[src.id], position)
                for node in graph.outputs:
                    first_read[base[node.id]] = float("inf")
                return first_read

        x = Tensor(np.random.default_rng(2).normal(size=(8, 4)))
        assert ExecutionPlan(trace(fn, x)).fallbacks == 0
        with pytest.raises(CompileError):
            FirstReadFrees(trace(fn, x))

    def test_output_overwritten_after_its_check_fails_at_build(self):
        """No kernel reads the clobbered output: the final check of the
        copies the first run returns catches it."""
        from repro.graph.executor import CompileError

        w = Tensor(np.linspace(-1.0, 1.0, 16).reshape(4, 4))

        def fn(x):
            a = x.matmul(w)
            return a + 1.0, a * 2.0

        class SharedOutputs(ExecutionPlan):
            def _lay_out(self, graph, schedule):
                super()._lay_out(graph, schedule)
                first, second = graph.outputs
                self._offsets[second.id] = self._offsets[first.id]

        x = Tensor(np.random.default_rng(2).normal(size=(8, 4)))
        assert ExecutionPlan(trace(fn, x)).fallbacks == 0
        with pytest.raises(CompileError, match="overwritten"):
            SharedOutputs(trace(fn, x))

    def test_padded_conv_in_a_dirty_workspace(self):
        """Pad borders live in shared scratch: garbage there changes nothing."""
        rng = np.random.default_rng(4)
        w1 = Tensor(rng.normal(size=(3, 2, 3, 3)))
        w2 = Tensor(rng.normal(size=(2, 3, 3, 3)))

        def fn(x):
            h = autograd.functional.conv2d(x, w1, padding=1).relu()
            return autograd.functional.conv2d(h, w2, padding=(2, 1), stride=2)

        traced = trace(fn, Tensor(np.zeros((2, 2, 7, 6))))
        optimize_graph(traced.graph)
        plan = ExecutionPlan(traced)
        assert plan.fallbacks == 0 and plan.scratch_bytes > 0
        assert plan.workspace_bytes == plan.arena_bytes + plan.scratch_bytes
        for seed in range(3):
            plan._workspace.buffer[:] = 255  # NaN bytes everywhere
            x = np.random.default_rng(seed).normal(size=(2, 2, 7, 6)).astype(get_default_dtype())
            assert plan.run(x).data.tobytes() == fn(Tensor(x)).data.tobytes()


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_lru_eviction_and_counters(self):
        cache = PlanCache(max_plans=2)
        cache.store("a", object(), 1.0)
        cache.store("b", object(), 2.0)
        assert cache.get("a") is not None  # refresh: "b" is coldest
        cache.store("c", object(), 3.0)
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["compiles"] == 3
        assert stats["lookups"] == 4 and stats["hits"] == 3

    def test_drain_compile_events_empties_queue(self):
        cache = PlanCache()
        cache.store("k1", object(), 12.5)
        cache.store("k2", object(), 2.5)
        events = cache.drain_compile_events()
        assert [key for key, _ in events] == ["k1", "k2"]
        assert sum(ms for _, ms in events) == 15.0
        assert cache.drain_compile_events() == []

    def test_clear_resets_plans(self):
        cache = PlanCache()
        cache.store("k", object(), 1.0)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_concurrent_get_store_keeps_counters_consistent(self):
        import threading

        cache = PlanCache(max_plans=8)
        workers = 8
        rounds = 200
        misses = [0] * workers

        def pound(tid):
            key = ("shape-a", "shape-b")[tid % 2]
            for _ in range(rounds):
                if cache.get(key) is None:
                    misses[tid] += 1
                    cache.store(key, object(), 0.1)

        threads = [
            threading.Thread(target=pound, args=(tid,))
            for tid in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = cache.stats()
        # Two shapes racing: every lookup is counted exactly once, every
        # miss compiled exactly once, and nothing was evicted or lost.
        assert stats["lookups"] == workers * rounds
        assert stats["compiles"] == sum(misses)
        assert stats["hits"] == stats["lookups"] - sum(misses)
        assert stats["evictions"] == 0
        assert stats["plans"] == 2
        assert cache.get("shape-a") is not None
        assert cache.get("shape-b") is not None

    def test_eviction_frees_evicted_plans_arena(self):
        import gc
        import weakref

        def make_plan(batch):
            w = Tensor(np.linspace(-1.0, 1.0, 16).reshape(4, 4))

            def fn(x):
                return (x.matmul(w) + 1.0).relu().sum(axis=1)

            traced = trace(fn, Tensor(np.zeros((batch, 4))))
            optimize_graph(traced.graph)
            return ExecutionPlan(traced)

        small = make_plan(2)
        big = make_plan(64)
        assert big.arena_bytes > small.arena_bytes
        evicted = weakref.ref(big)

        cache = PlanCache(max_plans=1)
        cache.store((64, 4), big, 1.0)
        del big
        cache.store((2, 4), small, 1.0)  # evicts the large plan
        gc.collect()

        assert cache.stats()["evictions"] == 1
        # The evicted plan (and with it the arena backing its kernels)
        # is actually collectable — the cache keeps no hidden reference.
        assert evicted() is None
        retained = sum(
            plan.arena_bytes for plan in cache._plans.values()
        )
        assert retained == small.arena_bytes
        assert f"{small.arena_bytes / 1024:.1f} KiB" in small.describe()
        # The cache's one workspace shrank to the plan it still holds.
        assert cache.stats()["workspace_bytes"] == small.workspace_bytes
        assert f"{small.workspace_bytes / 1024:.1f} KiB" in small.describe()

    def test_evicted_plan_still_runs_privately(self):
        w = Tensor(np.linspace(-1.0, 1.0, 16).reshape(4, 4))

        def fn(x):
            return (x.matmul(w) + 1.0).relu().sum(axis=1)

        plans = {}
        for batch in (64, 2):
            traced = trace(fn, Tensor(np.zeros((batch, 4))))
            optimize_graph(traced.graph)
            plans[batch] = ExecutionPlan(traced)
        cache = PlanCache(max_plans=1)
        cache.store(64, plans[64], 1.0)
        assert plans[64]._workspace is cache._workspace
        cache.store(2, plans[2], 1.0)  # evicts the batch-64 plan
        assert cache.stats()["workspace_bytes"] == plans[2].workspace_bytes
        x = np.random.default_rng(1).normal(size=(64, 4)).astype(get_default_dtype())
        assert plans[64].run(x).data.tobytes() == fn(Tensor(x)).data.tobytes()
        assert plans[64]._workspace.buffer.nbytes == plans[64].workspace_bytes
        assert cache.stats()["workspace_bytes"] == plans[2].workspace_bytes


class TestSharedWorkspace:
    """One workspace per plan cache, sized to its largest plan."""

    @staticmethod
    def _batches(dataset, sizes):
        pool = list(dataset["train"]) + list(dataset["val"])
        return {n: [pool[i % len(pool)] for i in range(n)] for n in sizes}

    @staticmethod
    def _root(array):
        while array.base is not None:
            array = array.base
        return array

    @staticmethod
    def _closure_arrays(kernel):
        """Arrays a kernel closes over, directly or in a list or tuple
        (the conv's pad borders, the max pool's bound tap views)."""
        for cell in kernel.__closure__ or ():
            value = cell.cell_contents
            items = value if isinstance(value, (list, tuple)) else (value,)
            yield from (item for item in items if isinstance(item, np.ndarray))

    def test_sixteen_batch_shapes_hold_one_workspace(self, dataset):
        import weakref

        from repro.graph.executor import _POOLED_OPS

        model, _ = make_model(dataset)
        grounder = Grounder(model, dataset.vocab).compile()
        cache = grounder.plan_cache
        batches = self._batches(dataset, range(1, 17))
        buffers = []  # weak references to every buffer the workspace had
        for batch in batches.values():
            grounder(batch)
            if not buffers or buffers[-1]() is not cache._workspace.buffer:
                buffers.append(weakref.ref(cache._workspace.buffer))
        assert len(buffers) > 1
        # Growing the workspace unbinds every plan: nothing outside the
        # dropped kernels may keep a superseded buffer alive.
        assert [ref() is None for ref in buffers[:-1]] == [True] * (len(buffers) - 1)
        plans = list(cache._plans.values())
        assert len(plans) == 16 and all(p.fallbacks == 0 for p in plans)
        largest = max(plans, key=lambda p: p.workspace_bytes)
        assert largest is plans[-1]  # the batch-16 plan
        stats = cache.stats()
        assert stats["workspace_bytes"] == largest.workspace_bytes
        assert stats["workspace_bytes"] < sum(p.workspace_bytes for p in plans)
        # No plan or kernel owns a buffer of its own: every array a
        # pooled kernel closes over is a view of the cache's workspace
        # or a trace-time constant.
        for batch in batches.values():
            grounder(batch)  # every plan binds into the final buffer
        assert [ref() is None for ref in buffers[:-1]] == [True] * (len(buffers) - 1)
        buffer = cache._workspace.buffer
        assert buffers[-1]() is buffer
        constants = {id(self._root(node.value)) for p in plans
                     for node in p.graph.nodes if node.is_constant
                     and isinstance(node.value, np.ndarray)}
        checked = {}
        for plan in plans:
            assert plan._workspace is cache._workspace and plan._bound is buffer
            for (_, node, _), (_, kernel) in zip(plan._schedule, plan._steps):
                if node.op not in _POOLED_OPS:
                    continue
                for array in self._closure_arrays(kernel):
                    root = self._root(array)
                    assert root is buffer or id(root) in constants, node.name
                    checked[node.op] = checked.get(node.op, 0) + 1
        assert {"conv2d", "max_pool2d", "matmul", "add"} <= set(checked), checked
        # Answers after every plan ran in the one workspace: unchanged.
        eager = Grounder(make_model(dataset)[0], dataset.vocab)
        for batch in (batches[16], batches[3]):
            assert all(responses_equal(a, b)
                       for a, b in zip(grounder(batch), eager(batch)))

    def test_two_threads_run_two_plans_of_one_cache(self, dataset):
        import sys
        import threading

        model, _ = make_model(dataset)
        grounder = Grounder(model, dataset.vocab)
        batches = self._batches(dataset, (2, 5))
        expected = {n: grounder(batch) for n, batch in batches.items()}
        grounder.compile()
        for batch in batches.values():
            grounder(batch)  # compile both plans before the race
        answers = {n: [] for n in batches}
        errors = []

        def serve(n):
            try:
                for _ in range(15):
                    answers[n].append(grounder(batches[n]))
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=serve, args=(n,))
                   for n in (2, 5, 2, 5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = grounder.plan_cache.stats()
        assert stats["compiles"] == 2 and stats["plans"] == 2
        for n, runs in answers.items():
            assert len(runs) == 30
            for responses in runs:
                assert all(responses_equal(a, b)
                           for a, b in zip(responses, expected[n]))

    def test_a_growing_first_run_frees_the_old_buffer_first(self, dataset, monkeypatch):
        import gc
        import weakref

        model, _ = make_model(dataset)
        grounder = Grounder(model, dataset.vocab).compile()
        cache = grounder.plan_cache
        batches = self._batches(dataset, (1, 4))
        grounder(batches[1])
        old = weakref.ref(cache._workspace.buffer)
        seen = []
        validate = ExecutionPlan._validate

        def spy(plan):
            gc.collect()
            seen.append((plan._bound is cache._workspace.buffer, old() is None))
            return validate(plan)

        monkeypatch.setattr(ExecutionPlan, "_validate", spy)
        grounder(batches[4])
        # The batch-4 plan ran first in the cache's grown workspace, and
        # the old buffer was gone by then: never two workspaces at once.
        assert seen == [(True, True)]
        assert cache.stats()["workspace_bytes"] == max(
            plan.workspace_bytes for plan in cache._plans.values())

    def test_threads_compiling_and_running_share_one_workspace(self, dataset):
        """First runs grow the workspace under its lock while other
        threads replay plans in it: every answer stays eager's."""
        import sys
        import threading

        model, _ = make_model(dataset)
        grounder = Grounder(model, dataset.vocab)
        batches = self._batches(dataset, (1, 2, 3, 4, 5))
        expected = {n: grounder(batch) for n, batch in batches.items()}
        grounder.compile()
        answers = {n: [] for n in batches}
        errors = []

        def serve(order):
            try:
                for _ in range(2):
                    for n in order:
                        answers[n].append(grounder(batches[n]))
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        orders = [(1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (3, 1, 5, 2, 4), (2, 5, 4, 1, 3)]
        threads = [threading.Thread(target=serve, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        cache = grounder.plan_cache
        plans = list(cache._plans.values())
        assert len(plans) == 5 and all(plan.fallbacks == 0 for plan in plans)
        assert cache.stats()["workspace_bytes"] == max(p.workspace_bytes for p in plans)
        for n, runs in answers.items():
            assert len(runs) == 2 * len(orders)
            for responses in runs:
                assert all(responses_equal(a, b)
                           for a, b in zip(responses, expected[n]))

    def test_growth_eviction_and_clear_resize_the_workspace(self, dataset):
        import gc
        import weakref

        model, _ = make_model(dataset)
        grounder = Grounder(model, dataset.vocab).compile(max_plans=2)
        cache = grounder.plan_cache
        batches = self._batches(dataset, (1, 4, 2))
        grounder(batches[1])
        (one,) = cache._plans.values()
        first_buffer = weakref.ref(cache._workspace.buffer)
        assert cache.stats()["workspace_bytes"] == one.workspace_bytes
        grounder(batches[4])  # larger: its own buffer becomes the cache's
        four = list(cache._plans.values())[-1]
        gc.collect()
        assert first_buffer() is None  # no plan kept the old buffer alive
        assert cache.stats()["workspace_bytes"] == four.workspace_bytes
        assert one._bound is None and four._bound is cache._workspace.buffer
        grounder(batches[1])  # rebinds lazily into the grown buffer
        assert one._bound is cache._workspace.buffer
        grounder(batches[2])  # evicts the batch-4 plan (least recent)
        assert four not in cache._plans.values()
        two = list(cache._plans.values())[-1]
        assert cache.stats()["workspace_bytes"] == max(
            one.workspace_bytes, two.workspace_bytes)
        assert four._workspace is not cache._workspace and four._bound is None
        expected = Grounder(make_model(dataset)[0], dataset.vocab)(batches[4])
        model.train()  # clear(): every plan leaves, the workspace empties
        model.eval()
        assert len(cache) == 0 and cache.stats()["workspace_bytes"] == 0
        assert all(responses_equal(a, b)
                   for a, b in zip(grounder(batches[4]), expected))


# ----------------------------------------------------------------------
# Compiled predict — bit-exactness across presets
# ----------------------------------------------------------------------
class TestCompiledPredict:
    @pytest.mark.parametrize(
        "backbone", ["tiny", "tiny-bn", "resnet50-bn", "vgg"]
    )
    def test_compiled_matches_eager_bitwise(self, dataset, backbone):
        model, cfg = make_model(dataset, backbone=backbone)
        batch = batch_of(dataset, cfg, n=3)
        eager = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        model.compile()
        compiled = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        again = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        assert_predictions_bitwise_equal(eager, compiled)
        assert_predictions_bitwise_equal(eager, again)
        stats = model.plan_cache.stats()
        assert stats["compiles"] == 1 and stats["hits"] == 1

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("clauses", [False, True], ids=["flat", "clauses"])
    def test_answer_on_a_miss_equals_eager_and_a_replay(self, dataset, clauses, size):
        import dataclasses

        from repro.text.tokenizer import tokenize

        samples = list(dataset["val"][:size])
        if clauses:
            queries = ["there is a red car . the dog next to it",
                       "the dog next to the car that is to the left of the lamp",
                       "the lamp"]
            samples = [dataclasses.replace(s, query=q, tokens=tokenize(q))
                       for s, q in zip(samples, queries)]
        eager = Grounder(make_model(dataset)[0], dataset.vocab,
                         clause_conditioning=clauses)(samples)
        grounder = Grounder(make_model(dataset)[0], dataset.vocab,
                            clause_conditioning=clauses).compile()
        first = grounder(samples)  # the plan's first run answers
        replay = grounder(samples)
        stats = grounder.plan_cache.stats()
        assert stats["compiles"] == 1 and stats["hits"] == 1
        for a, b, c in zip(eager, first, replay):
            assert responses_equal(a, b) and responses_equal(b, c)

    def test_compiled_matches_eager_without_mask(self, dataset):
        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=2)
        eager = model.predict(batch["images"], batch["token_ids"], None)
        model.compile()
        compiled = model.predict(batch["images"], batch["token_ids"], None)
        assert_predictions_bitwise_equal(eager, compiled)

    def test_distinct_batch_shapes_compile_distinct_plans(self, dataset):
        model, cfg = make_model(dataset)
        model.compile()
        big = batch_of(dataset, cfg, n=3)
        small = batch_of(dataset, cfg, n=1)
        model.predict(big["images"], big["token_ids"], big["token_mask"])
        model.predict(small["images"], small["token_ids"], small["token_mask"])
        assert len(model.plan_cache) == 2

    def test_bit_exact_after_checkpoint_roundtrip(self, dataset, tmp_path):
        model, cfg = make_model(dataset, backbone="tiny-bn")
        batch = batch_of(dataset, cfg, n=2)
        model.compile()
        before = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        state = model.state_dict()
        model.load_state_dict(state)
        assert len(model.plan_cache) == 0  # plans invalidated by new weights
        after = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        assert_predictions_bitwise_equal(before, after)

    def test_train_mode_invalidates_plans(self, dataset):
        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=1)
        model.compile()
        model.predict(batch["images"], batch["token_ids"], batch["token_mask"])
        assert len(model.plan_cache) == 1
        model.train()
        assert len(model.plan_cache) == 0

    def test_uncompile_restores_eager_predict(self, dataset):
        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=1)
        model.compile()
        model.predict(batch["images"], batch["token_ids"], batch["token_mask"])
        model.uncompile()
        assert model.plan_cache is None
        # Eager path still works and matches.
        model.predict(batch["images"], batch["token_ids"], batch["token_mask"])

    def test_plan_key_covers_argument_dtypes(self, dataset):
        """Same shapes, other dtypes: a new plan, not a CompileError."""
        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=2)
        images, ids, mask = (batch["images"], batch["token_ids"],
                             batch["token_mask"])
        variants = [(ids, mask), (ids.astype(np.int32), mask),
                    (ids, mask.astype(bool)), (ids, None)]
        eager = [model.predict(images, i, m) for i, m in variants]
        model.compile()
        compiled = [model.predict(images, i, m) for i, m in variants]
        for left, right in zip(eager, compiled):
            assert_predictions_bitwise_equal(left, right)
        assert model.plan_cache.stats()["compiles"] == len(variants)

    def test_trace_does_not_freeze_clause_masks(self, dataset):
        """One plan traced on one mask pattern replays every other one
        bit-exactly: the masks are an input, not a traced constant."""
        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=3)
        length = cfg.max_query_length
        short = int(batch["token_mask"].sum(axis=1).min())
        assert short < length  # some sample has PAD positions

        def pattern(*spans):
            masks = np.zeros((3, 3, length))
            for row, (start, end) in enumerate(spans):
                masks[:, row, start:end] = 1.0
            return masks

        traced_on = pattern((0, 2), (1, 3))
        replays = [
            np.zeros((3, 3, length)),  # every sample flat
            pattern((0, 2)),  # one active row: below the threshold
            pattern((0, 1), (1, 2), (2, short)),  # three active rows
            pattern((0, 1), (0, length)),  # a row covering PAD
        ]
        mixed = pattern((0, 1), (1, 2), (0, length))
        mixed[1] = 0.0  # one flat sample inside a conditioned batch
        replays.append(mixed)
        images, ids, mask = (batch["images"], batch["token_ids"],
                             batch["token_mask"])
        eager = [model.predict(images, ids, mask, clause_masks=m)
                 for m in [traced_on] + replays]
        model.compile()
        compiled = [model.predict(images, ids, mask, clause_masks=m)
                    for m in [traced_on] + replays]
        for left, right in zip(eager, compiled):
            assert_predictions_bitwise_equal(left, right)
        assert model.plan_cache.stats()["compiles"] == 1
        (plan,) = model.plan_cache._plans.values()
        assert plan.fallbacks == 0
        # the replays really differ, so equality above is not vacuous
        maps = {p.attention_map.tobytes() for preds in compiled for p in preds}
        assert len(maps) > 3

    def test_grounder_compile_roundtrip(self, dataset):
        model, cfg = make_model(dataset)
        grounder = Grounder(model, dataset.vocab)
        samples = dataset["val"][:2]
        eager = grounder(samples)
        grounder.compile()
        compiled = grounder(samples)
        assert all(responses_equal(a, b) for a, b in zip(eager, compiled))
        assert grounder.plan_cache is model.plan_cache
        grounder.uncompile()
        assert grounder.plan_cache is None

    def test_ranked_grounder_reuses_compiled_plans(self, dataset):
        model, cfg = make_model(dataset)
        samples = dataset["val"][:2]
        grounder = Grounder(model, dataset.vocab).compile()
        grounder(samples)  # warm: the one plan for this batch shape
        compiles = grounder.plan_cache.compiles
        ranked = grounder.ranked(top_k=3)
        responses = ranked(samples)
        assert ranked.plan_cache is grounder.plan_cache
        assert ranked.plan_cache.compiles == compiles
        assert all(len(r) <= 3 for r in responses)
        # the top-1 answer is shared: ranking only lengthens the list
        for short, long in zip(grounder(samples), responses):
            assert short.top_box.tobytes() == long.top_box.tobytes()
        assert (grounder.top_k, ranked.top_k) == (1, 3)
        grounder.uncompile()


# ----------------------------------------------------------------------
# Observability integration
# ----------------------------------------------------------------------
class TestProfilerAttribution:
    def test_plan_execution_records_op_events_and_span(self, dataset):
        from repro.obs import profile

        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=1)
        model.compile()
        # Compile outside the profiled region: steady-state attribution.
        model.predict(batch["images"], batch["token_ids"], batch["token_mask"])
        with profile() as prof:
            model.predict(
                batch["images"], batch["token_ids"], batch["token_mask"]
            )
        names = {stat.name for stat in prof.op_stats()}
        assert any("conv2d" in name for name in names)
        span_totals = prof.span_totals()
        assert "graph.execute" in span_totals
        assert "yollo.forward" in span_totals

    def test_tracing_under_active_profiler_succeeds(self, dataset):
        from repro.obs import profile

        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=1)
        model.compile()
        with profile():
            compiled = model.predict(
                batch["images"], batch["token_ids"], batch["token_mask"]
            )
        model.uncompile()
        eager = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        assert_predictions_bitwise_equal(eager, compiled)
