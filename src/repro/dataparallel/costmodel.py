"""Analytic training-time model for the simulated cluster clock.

The paper measured real wall-clock on Theta (KNL) nodes; this machine has a
single core, so evaluation *durations* are produced by a calibrated
roofline-style model while the accuracies come from real (scaled-down)
training.  The model captures the effects the search exploits:

- time per epoch falls roughly linearly with the number of ranks ``n``
  (fewer optimizer steps per epoch at fixed per-rank batch size);
- larger per-rank batches amortize per-step overhead;
- bigger architectures (more parameters) train slower;
- a ring-allreduce communication term and a thread-scaling exponent bound
  the speedup below ideal, so there is a real (mild) efficiency cost to
  large ``n``.

Default constants are calibrated against Table I of the paper: a typical
~30k-parameter network on the Covertype-scale training split (244k rows,
batch 256, 20 epochs) costs ≈26.5 simulated minutes at ``n = 1`` and
≈3.3 at ``n = 8`` (paper: 26.54 ± 7.68 and 3.19 ± 0.29).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataparallel.allreduce import ring_transfer_stats

__all__ = ["TrainingCostModel"]

_BYTES_PER_PARAM = 4  # float32 gradients on the wire
_BACKWARD_FLOP_FACTOR = 3.0  # forward + backward ≈ 3× forward FLOPs


@dataclass(frozen=True)
class TrainingCostModel:
    """Maps (architecture size, dataset size, hyperparameters) to sim-minutes.

    Parameters
    ----------
    throughput_flops:
        Sustained per-process FLOP/s of one worker process.
    step_overhead_s:
        Fixed per-optimizer-step cost (framework overhead, data movement).
    link_bandwidth_Bps, link_latency_s:
        Intra-node channel feeding the ring-allreduce term.
    thread_scaling_exponent:
        Per-process throughput scales as ``(threads_per_process)**exponent``;
        with ``threads_per_node`` threads split over ``n`` processes this
        models the mild sub-linearity observed on KNL (exponent 0 would be
        perfectly rank-independent throughput).
    epoch_overhead_s:
        Per-epoch fixed cost (validation pass, callbacks).
    """

    throughput_flops: float = 5.4e8
    step_overhead_s: float = 0.004
    link_bandwidth_Bps: float = 5e9
    link_latency_s: float = 50e-6
    thread_scaling_exponent: float = 0.02
    threads_per_node: int = 64
    epoch_overhead_s: float = 0.5

    def __post_init__(self) -> None:
        if self.throughput_flops <= 0 or self.link_bandwidth_Bps <= 0:
            raise ValueError("throughputs must be positive")
        if not 0.0 <= self.thread_scaling_exponent < 1.0:
            raise ValueError("thread_scaling_exponent must be in [0, 1)")

    # ------------------------------------------------------------------ #
    def steps_per_epoch(self, train_size: int, batch_size: int, num_ranks: int) -> int:
        """Synchronous optimizer steps per epoch (one per global batch).

        Ceil division: the trailing partial batch is still a step, so the
        modeled speedup can never exceed the rank count.
        """
        effective = batch_size * num_ranks
        return max(1, -(-train_size // effective))

    def batch_compute_seconds(self, num_params: int, batch_size: int, num_ranks: int) -> float:
        """Forward+backward time of one per-rank micro-batch."""
        flops = 2.0 * num_params * batch_size * _BACKWARD_FLOP_FACTOR
        threads = max(1, self.threads_per_node // num_ranks)
        throughput = self.throughput_flops * threads**self.thread_scaling_exponent
        return flops / throughput + self.step_overhead_s

    def allreduce_seconds(self, num_params: int, num_ranks: int) -> float:
        """One gradient allreduce over the ring."""
        if num_ranks == 1:
            return 0.0
        stats = ring_transfer_stats(num_ranks, num_params * _BYTES_PER_PARAM)
        return (
            stats.message_steps * self.link_latency_s
            + stats.bytes_sent_per_rank / self.link_bandwidth_Bps
        )

    def epoch_seconds(
        self, num_params: int, train_size: int, batch_size: int, num_ranks: int
    ) -> float:
        steps = self.steps_per_epoch(train_size, batch_size, num_ranks)
        per_step = self.batch_compute_seconds(
            num_params, batch_size, num_ranks
        ) + self.allreduce_seconds(num_params, num_ranks)
        return steps * per_step + self.epoch_overhead_s

    def training_minutes(
        self,
        num_params: int,
        train_size: int,
        batch_size: int,
        num_ranks: int,
        epochs: int,
    ) -> float:
        """Total simulated training duration, in minutes."""
        if num_params < 1 or train_size < 1 or batch_size < 1 or num_ranks < 1 or epochs < 1:
            raise ValueError("all cost-model inputs must be >= 1")
        return epochs * self.epoch_seconds(num_params, train_size, batch_size, num_ranks) / 60.0

    def speedup(
        self, num_params: int, train_size: int, batch_size: int, num_ranks: int
    ) -> float:
        """Speedup of ``num_ranks`` over single-rank training."""
        t1 = self.epoch_seconds(num_params, train_size, batch_size, 1)
        tn = self.epoch_seconds(num_params, train_size, batch_size, num_ranks)
        return t1 / tn
