"""Communication accounting for the ring allreduce.

Training computes the averaged gradient in one fused pass over the global
batch (Horovod's tensor fusion: all gradient tensors reduced as one
buffer), so no ring is simulated.  What the ring would *ship* still
matters: :func:`ring_transfer_stats` gives the bandwidth-optimal
Baidu/Horovod ring's per-rank payload and round count, which feed the
communication term of the training cost models and the
``EpochEnd.ring_bytes_per_rank`` event field.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ring_transfer_stats", "RingStats"]


@dataclass(frozen=True)
class RingStats:
    """Communication accounting for one ring-allreduce."""

    num_ranks: int
    message_steps: int  # sequential communication rounds
    bytes_sent_per_rank: int  # payload each rank ships over the ring


def ring_transfer_stats(num_ranks: int, total_bytes: int) -> RingStats:
    """Bytes/steps of a ring allreduce of a ``total_bytes`` buffer.

    Each of the ``2(n-1)`` rounds moves one ``total_bytes / n`` chunk per
    rank, for ``2 (n-1)/n · total_bytes`` shipped per rank — the classic
    bandwidth-optimal figure.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    if num_ranks == 1:
        return RingStats(1, 0, 0)
    steps = 2 * (num_ranks - 1)
    per_rank = int(round(2 * (num_ranks - 1) / num_ranks * total_bytes))
    return RingStats(num_ranks, steps, per_rank)
