"""Deterministic sharded sampling for data-parallel training.

:class:`ShardedSampler` gives every rank the same view of the epoch:
the per-epoch permutation is derived from ``spawn_rng`` with an
epoch-indexed tag (so it is a pure function of the global seed and the
epoch number — independent of rank, world size, and whatever else the
process drew before), and each iteration's *global* batch is cut into
``grad_shards`` fixed micro-batch slots.  Ranks own disjoint,
contiguous ranges of slots; changing the world size only changes which
rank computes a slot, never the slot's contents.  That fixed
decomposition is what makes N-worker training bit-exact against the
single-process run: gradients are produced per slot and summed in slot
order on every rank.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.utils.seeding import spawn_rng


def slot_bounds(total: int, parts: int) -> List[Tuple[int, int]]:
    """Balanced contiguous partition of ``range(total)`` into ``parts``."""
    return [
        ((i * total) // parts, ((i + 1) * total) // parts)
        for i in range(parts)
    ]


def owned_slots(rank: int, world_size: int, grad_shards: int) -> List[int]:
    """Slot ids computed by ``rank`` — contiguous, balanced, disjoint."""
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} outside world of {world_size}")
    start, stop = slot_bounds(grad_shards, world_size)[rank]
    return list(range(start, stop))


class ShardedSampler:
    """Rank-invariant epoch shuffling and micro-batch slot decomposition.

    :class:`~repro.dist.DistributedTrainer` builds one from
    ``DistConfig.grad_shards`` and the task's ``num_samples`` and
    ``batch_size``.  It mirrors ``YolloTrainer``'s epoch arithmetic
    (``ceil(n / batch)`` iterations per epoch, last batch short) but
    derives each epoch's permutation from a seeded stream instead of
    consuming the trainer's RNG, so every rank reconstructs the
    identical order locally with no communication.
    """

    def __init__(self, num_samples: int, batch_size: int, grad_shards: int):
        if num_samples < 1:
            raise ValueError("ShardedSampler needs at least one sample")
        if batch_size < 1 or grad_shards < 1:
            raise ValueError("batch_size and grad_shards must be >= 1")
        self.num_samples = num_samples
        self.batch_size = batch_size
        self.grad_shards = grad_shards
        self._epoch = -1
        self._order: np.ndarray = np.empty(0, dtype=np.int64)

    def iterations_per_epoch(self) -> int:
        full, remainder = divmod(self.num_samples, self.batch_size)
        return full + (1 if remainder else 0)

    def epoch_order(self, epoch: int) -> np.ndarray:
        """The epoch's sample permutation (cached per epoch)."""
        if epoch != self._epoch:
            rng = spawn_rng(f"dist-sampler-epoch{epoch}")
            self._order = rng.permutation(self.num_samples)
            self._epoch = epoch
        return self._order

    def global_batch(self, iteration: int) -> np.ndarray:
        """Sample indices of the global batch for a 0-based iteration."""
        per_epoch = self.iterations_per_epoch()
        epoch, position = divmod(iteration, per_epoch)
        order = self.epoch_order(epoch)
        return order[position * self.batch_size:(position + 1) * self.batch_size]

    def slots(self, iteration: int) -> List[np.ndarray]:
        """The iteration's global batch cut into ``grad_shards`` slots.

        Slots are contiguous ranges of the (shuffled) global batch; a
        short final batch simply yields smaller (possibly empty) slots.
        """
        batch = self.global_batch(iteration)
        return [batch[lo:hi] for lo, hi in slot_bounds(len(batch), self.grad_shards)]

    def slot_weights(self, iteration: int) -> List[float]:
        """Per-slot loss weights: ``len(slot) / len(global batch)``.

        A per-slot loss is a mean over the slot's samples; scaling by
        these weights and summing over slots reproduces the mean over
        the full global batch.
        """
        batch_len = len(self.global_batch(iteration))
        return [
            (hi - lo) / float(batch_len)
            for lo, hi in slot_bounds(batch_len, self.grad_shards)
        ]
