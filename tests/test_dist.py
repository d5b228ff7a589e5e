"""Distributed runtime: flatten, batch schedule, collectives, bit-exactness.

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

from repro.backbone import load_pretrained_backbone
from repro.core import YolloTrainer
from repro.dist import (
    Collective,
    CollectiveTimeout,
    DistConfig,
    DistributedTrainer,
    PeerLostError,
    ProtocolError,
    WorkerGroup,
    WorkerSpec,
    build_pretrain_task,
    build_yollo_task,
    flatten_tensors,
    slot_bounds,
    unflatten_tensors,
)
from repro.runtime import TrainingSupervisor
from repro.utils import seed_everything


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
# Batch schedule and slot decomposition
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


def test_global_batch_covers_each_epoch_and_agrees_across_trainers():
    batch = 3
    built = build_yollo_task(scale=0.03, config_overrides=dict(batch_size=batch))
    task, twin = (YolloTrainer(built.model, built.dataset,
                               rng=np.random.default_rng(3)) for _ in range(2))
    n = len(built.dataset["train"])
    per_epoch = task.iterations_per_epoch()
    assert n % batch and per_epoch == -(-n // batch)
    epochs = []
    for epoch in range(2):
        steps = range(epoch * per_epoch, (epoch + 1) * per_epoch)
        batches = [task.global_batch(step) for step in steps]
        for step, indices in zip(steps, batches):
            assert np.array_equal(indices, twin.global_batch(step))
        assert [len(b) for b in batches] == [batch] * (per_epoch - 1) + [n % batch]
        epochs.append(np.concatenate(batches))
        assert sorted(epochs[-1]) == list(range(n))
    # Different epochs shuffle differently.
    assert not np.array_equal(epochs[0], epochs[1])


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
        return got

    results = _run_ranks(3, body)
    assert results == {rank: {"weights": 1} for rank in range(3)}


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
# Task builders: the workers run the single-process task objects
# ----------------------------------------------------------------------
def test_builders_return_the_single_process_tasks(tmp_path, monkeypatch):
    from repro.backbone import build_backbone, pretrain

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    supervised = []
    real_supervisor = pretrain.TrainingSupervisor

    def spy(task, **kwargs):
        supervised.append(task)
        return real_supervisor(task, **kwargs)

    monkeypatch.setattr(pretrain, "TrainingSupervisor", spy)
    monkeypatch.setattr(pretrain, "BATCH_SIZE", 2)
    pretrain.pretrain_backbone(build_backbone("tiny"), steps=1)
    assert type(build_pretrain_task(steps=1)) is type(supervised[0])

    trainer = build_yollo_task(scale=0.03, iterations=2)
    assert isinstance(trainer, YolloTrainer)
    assert trainer.total_iterations == 2


def test_one_slot_distributed_yollo_run_equals_single_process():
    """A single-process step is slot 0 of one: same batches, same anchors."""
    kwargs = dict(dataset_name="RefCOCO", scale=0.05, iterations=5,
                  preset="tiny", pretrain_steps=1,
                  config_overrides=dict(batch_size=8))
    seed_everything(0)
    single = build_yollo_task(**kwargs)
    TrainingSupervisor(single).run()
    seed_everything(0)
    task = build_yollo_task(**kwargs)
    TrainingSupervisor(DistributedTrainer(
        task, Collective(0, 1, {}), DistConfig(grad_shards=1))).run()
    assert len(single.history.losses) == 5
    _assert_states_equal(single.state_dict(), task.state_dict())


def test_one_slot_distributed_pretrain_equals_single_process(monkeypatch):
    """A single-process pretrain step is slot 0 of one: same renders."""
    from repro.backbone import pretrain

    monkeypatch.setattr(pretrain, "BATCH_SIZE", 8)
    kwargs = dict(backbone="tiny", steps=3)
    seed_everything(0)
    single = build_pretrain_task(**kwargs)
    TrainingSupervisor(single).run()
    seed_everything(0)
    task = build_pretrain_task(**kwargs)
    TrainingSupervisor(DistributedTrainer(
        task, Collective(0, 1, {}), DistConfig(grad_shards=1))).run()
    assert len(single.history["loss"]) == 3
    _assert_states_equal(single.state_dict(), task.state_dict())


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
        task_kwargs=dict(backbone="tiny", steps=3),
        dist=DistConfig(grad_shards=4, timeout=60.0),
        seed=0,
        warmup=load_pretrained_backbone,
        warmup_kwargs=dict(name="tiny", steps=1),
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
    kwargs = dict(dataset_name="RefCOCO", scale=0.05, iterations=3,
                  eval_every=0, preset="tiny", pretrain_steps=1,
                  config_overrides=dict(batch_size=8))
    states = {}
    for world in (1, 2, 4):
        spec = WorkerSpec(
            builder=build_yollo_task, task_kwargs=kwargs,
            dist=DistConfig(grad_shards=4, timeout=120.0), seed=0,
            warmup=load_pretrained_backbone,
            warmup_kwargs=dict(name="tiny", steps=1),
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
            task_kwargs=dict(backbone="tiny", steps=4),
            dist=DistConfig(grad_shards=4, timeout=30.0),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=1,
            fault_plan=FaultPlan(crash_at_iteration=2),
            fault_rank=1,
        )
        report = WorkerGroup(spec, world_size=2).run()
    assert report.generations == 2
    assert report.launched_world_size == 2
    assert report.world_size == 1  # finished at the reduced world size
    assert len(report.result["loss"]) == 4  # no step was lost

    # The crash-recovered trajectory matches an undisturbed 4-step run:
    # checkpoint/resume plus the rank-invariant slot decomposition make
    # the fault invisible to the final state.
    clean = WorkerGroup(
        _pretrain_spec(task_kwargs=dict(backbone="tiny", steps=4)),
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
