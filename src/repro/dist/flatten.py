"""Flattened gradient buckets: pack many arrays into one wire buffer.

Collectives operate on single contiguous arrays, but gradients live as
one array per parameter.  :func:`flatten_tensors` concatenates a list
of arrays into one flat buffer and records a :class:`TensorManifest`
(shapes, dtypes, offsets) so :func:`unflatten_tensors` can recover the
originals — as *views* into the flat buffer when dtypes allow, which is
what lets the distributed trainer hand the optimiser per-parameter
gradients that alias the reduced bucket (scaling the bucket in
:func:`repro.optim.clip_grad_norm` then scales every gradient).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TensorManifest:
    """Layout of a flattened bucket: per-tensor shapes, dtypes, offsets.

    The manifest is what makes a bucket self-describing on the wire: a
    receiving rank validates an incoming buffer against its own manifest
    before trusting it (shape/dtype drift between ranks is a bug, not
    something to silently reinterpret).
    """

    shapes: Tuple[Tuple[int, ...], ...]
    dtypes: Tuple[str, ...]
    offsets: Tuple[int, ...] = field(default=())  #: start index per tensor
    total_size: int = 0
    flat_dtype: str = "float64"

    @classmethod
    def of(cls, arrays: Sequence[np.ndarray]) -> "TensorManifest":
        shapes = tuple(tuple(a.shape) for a in arrays)
        dtypes = tuple(str(a.dtype) for a in arrays)
        sizes = [int(np.prod(s)) if s else 1 for s in shapes]
        offsets = tuple(int(v) for v in np.cumsum([0] + sizes[:-1]))
        flat_dtype = str(np.result_type(*[np.dtype(d) for d in dtypes]))
        return cls(shapes=shapes, dtypes=dtypes, offsets=offsets,
                   total_size=int(sum(sizes)), flat_dtype=flat_dtype)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(int(np.prod(s)) if s else 1 for s in self.shapes)

    def validate(self, flat: np.ndarray) -> None:
        if flat.ndim != 1 or flat.size != self.total_size:
            raise ValueError(
                f"flat buffer has {flat.size} elements, manifest expects "
                f"{self.total_size}"
            )
        if str(flat.dtype) != self.flat_dtype:
            raise ValueError(
                f"flat buffer dtype {flat.dtype} does not match manifest "
                f"dtype {self.flat_dtype}"
            )


def flatten_tensors(
    arrays: Sequence[Optional[np.ndarray]],
    like: Optional[Sequence[np.ndarray]] = None,
    manifest: Optional[TensorManifest] = None,
) -> Tuple[np.ndarray, TensorManifest]:
    """Concatenate arrays into one flat buffer plus its manifest.

    ``None`` entries (parameters that received no gradient this step)
    are zero-filled using the matching entry of ``like`` for shape and
    dtype, so every rank ships buckets with identical layouts.
    """
    resolved: List[np.ndarray] = []
    for index, array in enumerate(arrays):
        if array is None:
            if like is None:
                raise ValueError(
                    f"array {index} is None and no 'like' templates given"
                )
            template = like[index]
            array = np.zeros(template.shape, dtype=template.dtype)
        resolved.append(np.asarray(array))
    if manifest is None:
        manifest = TensorManifest.of(resolved)
    flat = np.empty(manifest.total_size, dtype=manifest.flat_dtype)
    for array, offset, size in zip(resolved, manifest.offsets, manifest.sizes):
        flat[offset:offset + size] = array.reshape(-1)
    return flat, manifest


def unflatten_tensors(flat: np.ndarray, manifest: TensorManifest) -> List[np.ndarray]:
    """Recover per-tensor arrays from a flat buffer.

    Each returned array is a reshaped *view* of the buffer whenever its
    dtype matches the buffer's dtype — mutating the buffer in place
    (e.g. gradient clipping) is then visible through every view.
    """
    manifest.validate(flat)
    out: List[np.ndarray] = []
    for shape, dtype, offset, size in zip(
        manifest.shapes, manifest.dtypes, manifest.offsets, manifest.sizes
    ):
        chunk = flat[offset:offset + size].reshape(shape)
        if str(chunk.dtype) != dtype:
            chunk = chunk.astype(dtype)
        out.append(chunk)
    return out
