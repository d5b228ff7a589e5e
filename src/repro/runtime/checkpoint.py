"""Atomic, checksummed checkpoints: the one file format for weights.

Training resumes, ``train --out`` models, fleet reloads and every
derived artifact :func:`cached` keeps are all written by
:func:`write_checkpoint` and read by :func:`read_checkpoint`.  A
checkpoint is a single file::

    MAGIC (14 bytes) || sha256 hexdigest of body (64 bytes) || "\\n" || body

where ``body`` is the pickled record ``{"fingerprint", "iteration",
"payload"}``.  Writes go to a temporary file in the same directory,
are fsynced, and then atomically renamed into place, so a crash
mid-write can never shadow a good checkpoint with a torn one.  Reads
verify the checksum and unpickle through an allowlist of numpy's array,
dtype and scalar reconstructors, so loading a file never runs code.
:class:`CheckpointManager` rotates files under one directory and falls
back to the previous rotation when the newest file is corrupt.

The fingerprint is a stable hash of the configuration; a checkpoint
written under a different configuration is refused rather than silently
producing a chimera run or model.  :func:`cached` names each derived
artifact after the fingerprint of everything that determines it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.autograd.tensor import as_compute_array

MAGIC = b"REPRO-CKPT-v1\n"
_DIGEST_LEN = 64  # sha256 hexdigest

#: The only globals a checkpoint body may name (numpy 1.x and 2.x paths);
#: builtin containers and scalars need none.
_ALLOWED_GLOBALS = {("numpy", "dtype"), ("numpy", "ndarray")} | {
    (f"numpy.{core}.{module}", name) for core in ("core", "_core")
    for module, name in (("multiarray", "_reconstruct"),
                         ("multiarray", "scalar"), ("numeric", "_frombuffer"))}


class CheckpointError(RuntimeError):
    """Base class for checkpoint failures."""


class CheckpointCorruptError(CheckpointError):
    """The file is truncated, has a bad checksum, or fails to unpickle."""


class FingerprintMismatchError(CheckpointError):
    """The checkpoint was written under a different training configuration."""


def config_fingerprint(data: Any) -> str:
    """Stable short hash of a JSON-serialisable configuration description."""
    blob = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def state_checksum(state: Dict[str, Any]) -> str:
    """Content hash of a state dict: the weight values a model holds.

    Keys are visited in sorted order and every value is hashed as its
    bytes plus its shape, floats in the compute dtype, so a float64
    payload hashes like the float32 copy a model loads from it, across
    pickling, pipes and load/re-extract cycles.  Fleet reloads compare
    it; evaluation reports are cached under it.
    """
    digest = hashlib.sha256()
    for key in sorted(state):
        value = np.ascontiguousarray(as_compute_array(state[key]))
        digest.update(key.encode("utf-8"))
        digest.update(str(value.shape).encode("ascii"))
        digest.update(value.tobytes())
    return digest.hexdigest()


@dataclass
class Checkpoint:
    """A verified checkpoint loaded from disk."""

    path: str
    iteration: int
    fingerprint: Optional[str]
    payload: Dict[str, Any]


class _AllowlistUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if (module, name) not in _ALLOWED_GLOBALS:
            raise pickle.UnpicklingError(
                f"global {module}.{name} is not allowed in a checkpoint")
        return super().find_class(module, name)


def write_checkpoint(path: str, payload: Any,
                     fingerprint: Optional[str] = None,
                     iteration: int = 0) -> str:
    """Atomically write one checksummed checkpoint file; returns ``path``."""
    record = {"fingerprint": fingerprint, "iteration": int(iteration),
              "payload": payload}
    body = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.writelines((MAGIC, digest, b"\n", body))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def read_checkpoint(path: str, fingerprint: Optional[str] = None) -> Checkpoint:
    """Read and verify one checkpoint file.

    An unreadable, torn or tampered file, or one naming a global outside
    the allowlist, raises :class:`CheckpointCorruptError` without running
    anything; a stamp other than ``fingerprint`` (when both are set)
    raises :class:`FingerprintMismatchError`.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointCorruptError(f"cannot read {path}: {exc}") from exc
    header_len = len(MAGIC) + _DIGEST_LEN + 1
    if len(raw) < header_len or not raw.startswith(MAGIC):
        raise CheckpointCorruptError(f"{path}: bad or truncated header")
    digest = raw[len(MAGIC) : len(MAGIC) + _DIGEST_LEN]
    body = raw[header_len:]
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        raise CheckpointCorruptError(f"{path}: checksum mismatch")
    try:
        record = _AllowlistUnpickler(io.BytesIO(body)).load()
    except Exception as exc:
        raise CheckpointCorruptError(f"{path}: unpickle failed: {exc}") from exc
    stamp = record.get("fingerprint")
    if fingerprint is not None and stamp is not None and stamp != fingerprint:
        raise FingerprintMismatchError(
            f"{path} was written under configuration {stamp}, "
            f"this run is {fingerprint}; refusing to load it"
        )
    return Checkpoint(path=path, iteration=int(record["iteration"]),
                      fingerprint=stamp, payload=record["payload"])


def cached(directory: Optional[str], kind: str, key: Any,
           compute: Callable[[], Any]) -> Any:
    """The payload cached under ``key``; ``compute()`` makes it on a miss.

    One checkpoint ``<kind>-<config_fingerprint(key)>.ckpt`` stamped with
    that fingerprint, in ``directory`` (default ``$REPRO_CACHE_DIR``,
    else ``~/.cache/repro``).  ``key`` must hold everything the payload
    depends on, upstream entries' keys included.  A corrupt entry is
    recomputed.
    """
    directory = directory or os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro")
    fingerprint = config_fingerprint(key)
    path = os.path.join(directory, f"{kind}-{fingerprint}.ckpt")
    if os.path.exists(path):
        try:
            return read_checkpoint(path, fingerprint=fingerprint).payload
        except CheckpointCorruptError:
            pass
    payload = compute()
    os.makedirs(directory, exist_ok=True)
    write_checkpoint(path, payload, fingerprint=fingerprint)
    return payload


class CheckpointManager:
    """Write and recover rotated checkpoints under one directory.

    Parameters
    ----------
    directory:
        Where ``ckpt-<iteration>.ckpt`` files live (created if absent).
    keep:
        Number of most-recent checkpoints retained; older rotations are
        deleted after each successful write.
    fingerprint:
        Configuration fingerprint stamped into every write and checked
        on every load (``None`` disables the check).
    fault_plan:
        Optional :class:`repro.runtime.faults.FaultPlan`; its
        checkpoint hooks are invoked around each write so IO-failure
        and corruption recovery paths are testable.
    """

    def __init__(self, directory: str, keep: int = 3,
                 fingerprint: Optional[str] = None, fault_plan=None,
                 logger=None):
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.directory = directory
        self.keep = keep
        self.fingerprint = fingerprint
        self.fault_plan = fault_plan
        self.logger = logger
        self._write_index = 0
        os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, iteration: int) -> str:
        return os.path.join(self.directory, f"ckpt-{iteration:08d}.ckpt")

    def paths(self) -> List[str]:
        """Checkpoint files sorted oldest-first (by iteration number)."""
        names = [n for n in os.listdir(self.directory)
                 if n.startswith("ckpt-") and n.endswith(".ckpt")]
        return [os.path.join(self.directory, n) for n in sorted(names)]

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def save(self, payload: Dict[str, Any], iteration: int) -> str:
        """Atomically write one checkpoint and rotate old ones."""
        index = self._write_index
        self._write_index += 1
        if self.fault_plan is not None:
            self.fault_plan.on_checkpoint_write(index)
        path = write_checkpoint(self.path_for(iteration), payload,
                                fingerprint=self.fingerprint,
                                iteration=iteration)
        if self.fault_plan is not None:
            self.fault_plan.after_checkpoint_write(index, path)
        self._rotate()
        return path

    def _rotate(self) -> None:
        for stale in self.paths()[: -self.keep]:
            try:
                os.remove(stale)
            except OSError:
                pass  # a missing/locked stale rotation is not fatal

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def load(self, path: str) -> Checkpoint:
        """Load and verify one checkpoint file against this run's fingerprint."""
        return read_checkpoint(path, fingerprint=self.fingerprint)

    def load_latest(self) -> Optional[Checkpoint]:
        """Newest valid checkpoint, falling back across corrupt rotations.

        Returns ``None`` when no usable checkpoint exists; a fingerprint
        mismatch propagates (it is a configuration error, not damage).
        """
        for path in reversed(self.paths()):
            try:
                return self.load(path)
            except CheckpointCorruptError as exc:
                if self.logger is not None:
                    self.logger.log(f"skipping corrupt checkpoint: {exc}")
        return None
