"""Data-parallel training substrate (paper substitute for Horovod).

Implements synchronous data-parallel SGD with real semantics: the training
set is split into ``n`` mutually exclusive shards, each simulated rank
draws a shard-local micro-batch, and one forward/backward over the
concatenated global batch yields the rank-averaged gradient — the tensor
Horovod's fused allreduce produces — before a single optimizer update with
the linearly scaled learning rate.  The accuracy-vs-``(n, lr, bs)``
landscape that Bayesian optimization must learn is therefore reproduced
genuinely; only wall-clock time (including the ring allreduce's
communication, see :func:`ring_transfer_stats`) is replaced by the
analytic cost model in :mod:`repro.dataparallel.costmodel`.
"""

from repro.dataparallel.sharding import shard_indices
from repro.dataparallel.allreduce import ring_transfer_stats
from repro.dataparallel.scaling import linear_scaled_batch_size, linear_scaled_lr
from repro.dataparallel.trainer import DataParallelTrainer
from repro.dataparallel.costmodel import TrainingCostModel
from repro.dataparallel.multinode import MultiNodeCostModel

__all__ = [
    "MultiNodeCostModel",
    "shard_indices",
    "ring_transfer_stats",
    "linear_scaled_lr",
    "linear_scaled_batch_size",
    "DataParallelTrainer",
    "TrainingCostModel",
]
