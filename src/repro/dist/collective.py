"""Socket/pipe-based collective communication between worker ranks.

Each rank holds one duplex :class:`multiprocessing.connection.Connection`
per peer (a full mesh — world sizes here are single-digit).  On top of
that, :class:`Collective` implements the small set of collectives the
data-parallel runtime needs:

* ``broadcast`` — root fans an arbitrary picklable object out to every
  rank (initial weights, resume payloads, and each gradient slot from
  the rank that computed it);
* ``barrier`` — a star pattern through rank 0, built from the same
  ordered primitives.

Every receive is bounded by a timeout (straggler detection) and every
message carries an (op, sequence) header so a desynchronised group
fails loudly (:class:`ProtocolError`) instead of silently reducing the
wrong step's gradients.  A dead peer surfaces as :class:`PeerLostError`
(EOF on its pipe) or :class:`CollectiveTimeout`; the worker runtime
turns either into a group-rebuild request.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.obs import MetricsRegistry, get_registry, trace_span


class CollectiveError(RuntimeError):
    """Base class for collective-layer failures."""


class CollectiveTimeout(CollectiveError):
    """A peer did not answer within the timeout (straggler or hang)."""

    def __init__(self, rank: int, peer: int, op: str, timeout: float):
        super().__init__(
            f"rank {rank}: peer {peer} silent for {timeout:.1f}s during {op}"
        )
        self.peer = peer


class PeerLostError(CollectiveError):
    """A peer's pipe reached EOF — its process died mid-run."""

    def __init__(self, rank: int, peer: int, op: str):
        super().__init__(f"rank {rank}: lost peer {peer} during {op}")
        self.peer = peer


class ProtocolError(CollectiveError):
    """Ranks disagree about which collective op is in flight."""


def _payload_nbytes(payload: Any) -> int:
    """Approximate wire size of a payload for the comm-bytes counters."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (list, tuple)):
        return sum(_payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(_payload_nbytes(v) for v in payload.values())
    return 64  # headers, scalars, small objects


class Collective:
    """Collective operations for one rank over a pipe mesh."""

    def __init__(
        self,
        rank: int,
        world_size: int,
        connections: Optional[Dict[int, Any]] = None,
        timeout: float = 60.0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} outside world of {world_size}")
        connections = connections or {}
        expected = {r for r in range(world_size) if r != rank}
        if set(connections) != expected:
            raise ValueError(
                f"rank {rank} needs connections to {sorted(expected)}, "
                f"got {sorted(connections)}"
            )
        self.rank = rank
        self.world_size = world_size
        self.timeout = timeout
        self.metrics = metrics if metrics is not None else get_registry()
        self._conns = dict(connections)
        self._seq = 0

    # ------------------------------------------------------------------
    # Point-to-point with headers, timeouts, and byte accounting
    # ------------------------------------------------------------------
    def _send(self, peer: int, op: str, seq: int, payload: Any) -> None:
        try:
            self._conns[peer].send((op, seq, payload))
        except (BrokenPipeError, OSError):
            raise PeerLostError(self.rank, peer, op)
        self.metrics.counter("dist.bytes_sent").inc(_payload_nbytes(payload))
        self.metrics.counter("dist.messages_sent").inc()

    def _recv(self, peer: int, op: str, seq: int) -> Any:
        conn = self._conns[peer]
        try:
            if not conn.poll(self.timeout):
                raise CollectiveTimeout(self.rank, peer, op, self.timeout)
            got_op, got_seq, payload = conn.recv()
        except EOFError:
            raise PeerLostError(self.rank, peer, op)
        except (BrokenPipeError, ConnectionResetError):
            raise PeerLostError(self.rank, peer, op)
        if (got_op, got_seq) != (op, seq):
            raise ProtocolError(
                f"rank {self.rank}: expected {op}#{seq} from peer {peer}, "
                f"got {got_op}#{got_seq}"
            )
        self.metrics.counter("dist.bytes_received").inc(_payload_nbytes(payload))
        return payload

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def broadcast(self, obj: Any = None, root: int = 0) -> Any:
        """Fan ``obj`` from ``root`` out to every rank; returns it everywhere."""
        if self.world_size == 1:
            return obj
        seq = self._next_seq()
        with self.metrics.timer("dist.broadcast_seconds"), \
                trace_span("dist.broadcast"):
            if self.rank == root:
                for peer in range(self.world_size):
                    if peer != root:
                        self._send(peer, "bcast", seq, obj)
                return obj
            return self._recv(root, "bcast", seq)

    def barrier(self) -> None:
        """Block until every rank has arrived (star in, star out)."""
        if self.world_size == 1:
            return
        seq = self._next_seq()
        with trace_span("dist.barrier"):
            if self.rank == 0:
                for peer in range(1, self.world_size):
                    self._recv(peer, "bar-in", seq)
                for peer in range(1, self.world_size):
                    self._send(peer, "bar-out", seq, None)
            else:
                self._send(0, "bar-in", seq, None)
                self._recv(0, "bar-out", seq)
