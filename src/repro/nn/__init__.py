"""From-scratch neural network substrate (paper substitute for TensorFlow).

Provides dense layers and the skip-connection graph network builder that
materializes an architecture sampled from
:class:`repro.searchspace.ArchitectureSpace`, the compiled execution plan
that trains and serves every network (fused kernels for the activation
set of the AgEBO-Tabular search space: identity, swish, relu, tanh,
sigmoid), the flat-vector Adam optimizer, and the gradual-warmup and
reduce-on-plateau schedules used in the paper's training recipe.  The
training loop is :class:`repro.dataparallel.DataParallelTrainer`; the
reverse-mode differentiation tape the plan replays is a test oracle in
``tests/reference/``.
"""

from repro.nn.initializers import glorot_uniform, he_normal, zeros_init
from repro.nn.layers import Dense, Parameter
from repro.nn.metrics import accuracy, top_k_accuracy
from repro.nn.optimizers import Adam, Optimizer
from repro.nn.schedules import GradualWarmup, ReduceLROnPlateau
from repro.nn.graph_network import GraphNetwork
from repro.nn.compiled import CompiledPlan

__all__ = [
    "glorot_uniform",
    "he_normal",
    "zeros_init",
    "Dense",
    "Parameter",
    "accuracy",
    "top_k_accuracy",
    "Optimizer",
    "Adam",
    "GradualWarmup",
    "ReduceLROnPlateau",
    "GraphNetwork",
    "CompiledPlan",
]
