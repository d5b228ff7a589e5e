"""Micro-batch slot decomposition for data-parallel training.

:class:`~repro.dist.DistributedTrainer` cuts each iteration's global
batch, ``task.global_batch(iteration)``, into ``grad_shards`` slots
with :func:`slot_bounds` and hands contiguous ranges of slots to the
ranks with the same function.  The slots depend only on the batch and
``grad_shards``; changing the world size only changes which rank
computes a slot, never its contents, so gradients produced per slot and
summed in slot order are the same at every world size.
"""

from __future__ import annotations

from typing import List, Tuple


def slot_bounds(total: int, parts: int) -> List[Tuple[int, int]]:
    """Balanced contiguous partition of ``range(total)`` into ``parts``."""
    return [
        ((i * total) // parts, ((i + 1) * total) // parts)
        for i in range(parts)
    ]
