"""Distributed runtime: flatten, sampler, collectives, bit-exactness.

The spawn-based integration tests are marked ``dist`` and run in the
default (tier-1) suite — they exercise the real multi-process path at
tiny scale.  Everything else runs in-process (threads over pipe
meshes), so protocol failures are cheap to provoke.
"""

import tempfile
import threading
from multiprocessing import Pipe, get_context

import numpy as np
import pytest

from repro.dist import (
    Collective,
    CollectiveTimeout,
    DistConfig,
    PeerLostError,
    ProtocolError,
    ShardedSampler,
    TensorManifest,
    WorkerGroup,
    WorkerSpec,
    build_pretrain_task,
    build_yollo_task,
    flatten_tensors,
    owned_slots,
    slot_bounds,
    unflatten_tensors,
    warm_backbone,
)


# ----------------------------------------------------------------------
# Gradient flattening
# ----------------------------------------------------------------------
def test_flatten_round_trip_views():
    arrays = [
        np.arange(6, dtype=np.float64).reshape(2, 3),
        np.full((4,), 2.0),
        np.zeros((1, 2, 2)),
    ]
    flat, manifest = flatten_tensors(arrays)
    assert flat.size == manifest.total_size == 6 + 4 + 4
    back = unflatten_tensors(flat, manifest)
    for original, view in zip(arrays, back):
        assert np.array_equal(original, view)
    # The unflattened tensors are views: mutating the flat buffer in
    # place (what clip_grad_norm does) must propagate.
    flat *= 0.5
    assert np.array_equal(back[0], arrays[0] * 0.5)


def test_flatten_fills_missing_grads_with_zeros():
    templates = [np.ones((2, 2)), np.ones(3)]
    flat, manifest = flatten_tensors(
        [None, np.arange(3, dtype=np.float64)], like=templates
    )
    assert np.array_equal(flat[:4], np.zeros(4))
    assert np.array_equal(flat[4:], [0.0, 1.0, 2.0])
    assert manifest.shapes[0] == (2, 2)


def test_manifest_validate_rejects_wrong_buffer():
    _, manifest = flatten_tensors([np.ones(3)])
    with pytest.raises(ValueError):
        manifest.validate(np.ones(4))


# ----------------------------------------------------------------------
# Sharded sampling
# ----------------------------------------------------------------------
def test_slot_bounds_partition_is_balanced_and_contiguous():
    for total in (0, 1, 7, 16):
        for parts in (1, 3, 4, 5):
            bounds = slot_bounds(total, parts)
            assert bounds[0][0] == 0 and bounds[-1][1] == total
            sizes = [hi - lo for lo, hi in bounds]
            assert sum(sizes) == total
            assert max(sizes) - min(sizes) <= 1
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo


def test_owned_slots_cover_all_slots_disjointly():
    for world in (1, 2, 3, 4):
        seen = [s for r in range(world) for s in owned_slots(r, world, 4)]
        assert sorted(seen) == list(range(4))


def test_sharded_sampler_is_rank_invariant_and_covers_epoch():
    a = ShardedSampler(num_samples=10, batch_size=4, grad_shards=4)
    b = ShardedSampler(num_samples=10, batch_size=4, grad_shards=4)
    per_epoch = a.iterations_per_epoch()
    assert per_epoch == 3  # ceil(10 / 4)
    epoch_indices = []
    for iteration in range(per_epoch):
        slots_a = a.slots(iteration)
        slots_b = b.slots(iteration)
        # Two independent sampler instances (≈ two ranks) agree exactly.
        for x, y in zip(slots_a, slots_b):
            assert np.array_equal(x, y)
        weights = a.slot_weights(iteration)
        assert abs(sum(weights) - 1.0) < 1e-12
        epoch_indices.extend(int(i) for slot in slots_a for i in slot)
    assert sorted(epoch_indices) == list(range(10))
    # Different epochs shuffle differently.
    assert not np.array_equal(a.epoch_order(0), a.epoch_order(1))


# ----------------------------------------------------------------------
# Collective layer (thread-based pipe meshes)
# ----------------------------------------------------------------------
def _mesh(world):
    conns = {rank: {} for rank in range(world)}
    for i in range(world):
        for j in range(i + 1, world):
            a, b = Pipe(duplex=True)
            conns[i][j] = a
            conns[j][i] = b
    return conns


def _run_ranks(world, fn, timeout=30.0):
    conns = _mesh(world)
    results = {}
    errors = []

    def runner(rank):
        collective = Collective(rank, world, conns[rank], timeout=10.0)
        try:
            results[rank] = fn(collective)
        except BaseException as exc:  # surfaced below
            errors.append(exc)
        finally:
            collective.close()

    threads = [
        threading.Thread(target=runner, args=(rank,)) for rank in range(world)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    if errors:
        raise errors[0]
    return results


def test_collective_broadcast_gather_barrier():
    def body(c):
        got = c.broadcast({"weights": c.rank} if c.rank == 1 else None, root=1)
        c.barrier()
        gathered = c.gather(c.rank * 2, root=0)
        everyone = c.all_gather(c.rank)
        return got, gathered, everyone

    results = _run_ranks(3, body)
    for rank in range(3):
        got, gathered, everyone = results[rank]
        assert got == {"weights": 1}
        assert everyone == [0, 1, 2]
        assert gathered == ([0, 2, 4] if rank == 0 else None)


def test_collective_timeout_raises():
    conns = _mesh(2)
    lonely = Collective(1, 2, conns[1], timeout=0.1)
    with pytest.raises(CollectiveTimeout) as excinfo:
        lonely.broadcast(None, root=0)  # rank 0 never sends
    assert excinfo.value.peer == 0


def test_dead_peer_raises_peer_lost():
    conns = _mesh(2)
    conns[0][1].close()
    lonely = Collective(1, 2, conns[1], timeout=5.0)
    with pytest.raises(PeerLostError) as excinfo:
        lonely.broadcast(None, root=0)
    assert excinfo.value.peer == 0


def test_desynchronised_op_raises_protocol_error():
    conns = _mesh(2)
    conns[0][1].send(("bogus-op", 1, None))
    lonely = Collective(1, 2, conns[1], timeout=5.0)
    with pytest.raises(ProtocolError):
        lonely.broadcast(None, root=0)


# ----------------------------------------------------------------------
# Flat-bucket gradient clipping (equivalence with the per-tensor path)
# ----------------------------------------------------------------------
def test_clip_grad_norm_flat_matches_per_tensor():
    from repro.autograd import Tensor
    from repro.optim import clip_grad_norm

    rng = np.random.default_rng(3)

    def make_params():
        params = []
        for shape in [(4, 3), (7,), (2, 2, 2)]:
            p = Tensor(np.zeros(shape), requires_grad=True)
            p.grad = rng.normal(size=shape) * 10
            params.append(p)
        return params

    reference = make_params()
    rng = np.random.default_rng(3)
    flat_params = make_params()

    clip_grad_norm(reference, max_norm=1.0)

    grads = [p.grad for p in flat_params]
    flat, manifest = flatten_tensors(grads)
    for param, view in zip(flat_params, unflatten_tensors(flat, manifest)):
        param.grad = view
    clip_grad_norm(flat_params, max_norm=1.0, flat=flat)

    for ref, got in zip(reference, flat_params):
        assert np.allclose(ref.grad, got.grad, rtol=1e-12, atol=0)
    total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in flat_params))
    assert total <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# Spawn integration (real worker processes)
# ----------------------------------------------------------------------
def _assert_states_equal(a, b, path=""):
    if isinstance(a, dict):
        assert set(a) == set(b), f"{path}: keys differ"
        for key in a:
            _assert_states_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length differs"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_states_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, np.asarray(b)), f"{path}: arrays differ"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def _pretrain_spec(**overrides):
    base = dict(
        builder=build_pretrain_task,
        task_kwargs=dict(backbone="tiny", steps=3, grad_shards=4,
                         batch_size=8, lr=1e-3),
        dist=DistConfig(grad_shards=4, timeout=60.0),
        seed=0,
        warmup=warm_backbone,
        warmup_kwargs=dict(name="tiny", pretrain_steps=1),
    )
    base.update(overrides)
    return WorkerSpec(**base)


@pytest.mark.dist
def test_pretrain_bit_exact_across_world_sizes():
    states = {}
    for world in (1, 2):
        report = WorkerGroup(_pretrain_spec(), world_size=world).run()
        assert report.generations == 1
        states[world] = report.final_state
    _assert_states_equal(states[1], states[2])


@pytest.mark.dist
def test_yollo_training_bit_exact_1_2_4_workers():
    kwargs = dict(dataset_name="RefCOCO", scale=0.05, grad_shards=4,
                  iterations=3, eval_every=0, preset="tiny",
                  pretrain_steps=1, config_overrides=dict(batch_size=8))
    states = {}
    for world in (1, 2, 4):
        spec = WorkerSpec(
            builder=build_yollo_task, task_kwargs=kwargs,
            dist=DistConfig(grad_shards=4, timeout=120.0), seed=0,
            warmup=warm_backbone,
            warmup_kwargs=dict(name="tiny", pretrain_steps=1),
        )
        report = WorkerGroup(spec, world_size=world).run()
        states[world] = report.final_state
    _assert_states_equal(states[1], states[2])
    _assert_states_equal(states[1], states[4])


@pytest.mark.dist
def test_worker_crash_triggers_rebuild_and_completion():
    from repro.runtime.faults import FaultPlan

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        spec = _pretrain_spec(
            task_kwargs=dict(backbone="tiny", steps=4, grad_shards=4,
                             batch_size=8, lr=1e-3),
            dist=DistConfig(grad_shards=4, timeout=30.0),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=1,
            fault_plan=FaultPlan(crash_at_iteration=2),
            fault_rank=1,
        )
        report = WorkerGroup(spec, world_size=2, max_rebuilds=2).run()
    assert report.generations == 2
    assert report.launched_world_size == 2
    assert report.world_size == 1  # finished at the reduced world size
    assert len(report.result["loss"]) == 4  # no step was lost

    # The crash-recovered trajectory matches an undisturbed 4-step run:
    # checkpoint/resume plus the rank-invariant slot decomposition make
    # the fault invisible to the final state.
    clean = WorkerGroup(
        _pretrain_spec(task_kwargs=dict(backbone="tiny", steps=4,
                                        grad_shards=4, batch_size=8,
                                        lr=1e-3)),
        world_size=1,
    ).run()
    _assert_states_equal(clean.final_state, report.final_state)


@pytest.mark.dist
def test_dist_metrics_flow_back_to_controller():
    report = WorkerGroup(_pretrain_spec(), world_size=2).run()
    assert len(report.rank_metrics) == 2
    merged = report.merged_metrics()
    snapshot = merged.snapshot()
    assert snapshot["dist.steps"] == 2 * 3  # both ranks step
    assert snapshot["dist.bytes_sent"] > 0
    assert "dist.broadcast_seconds" in snapshot


def _spawn_probe(queue):
    import repro.dist as dist_module

    missing = [
        name for name in dist_module.__all__
        if not hasattr(dist_module, name)
    ]
    queue.put(missing)


@pytest.mark.dist
def test_public_api_importable_under_spawn():
    """Guard for satellite 5: repro.dist must stay spawn-safe."""
    context = get_context("spawn")
    queue = context.Queue()
    process = context.Process(target=_spawn_probe, args=(queue,))
    process.start()
    missing = queue.get(timeout=60)
    process.join(timeout=60)
    assert process.exitcode == 0
    assert missing == []
