"""The evaluation function: real training, simulated duration.

One call = one worker node evaluating one :class:`ModelConfig`:

1. decode and build the network;
2. run ``num_ranks``-way synchronous data-parallel training with the
   linearly scaled learning rate, 20-epoch recipe (warmup + plateau);
3. return the validation accuracy as the objective, and the simulated
   training duration from :class:`~repro.dataparallel.TrainingCostModel`
   evaluated at the data set's *nominal* (paper-scale) size.  The duration
   depends on the architecture's size alone, so
   :meth:`ModelEvaluation.duration` gives it without training.

Training runs on the reduced synthetic data, so results are real; only the
clock is modelled.  Per-config seeds are derived deterministically from the
configuration content, and every call trains at one BLAS thread
(:func:`repro.nn.blas.one_blas_thread`), so a call is a pure function of
its config and whole searches are reproducible on any host.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.config import ModelConfig
from repro.dataparallel.costmodel import TrainingCostModel
from repro.dataparallel.trainer import DataParallelTrainer
from repro.datasets.openml_like import TabularDataset
from repro.nn.blas import one_blas_thread
from repro.nn.graph_network import GraphNetwork
from repro.searchspace.archspace import ArchitectureSpace
from repro.workflow.jobs import EvaluationResult

__all__ = ["ModelEvaluation"]


def _config_seed(config: ModelConfig, base_seed: int) -> int:
    """Deterministic 32-bit seed from the configuration content."""
    text = repr(config.arch.tolist()) + repr(sorted(config.hyperparameters.items()))
    return (zlib.crc32(text.encode()) ^ base_seed) & 0x7FFFFFFF


class ModelEvaluation:
    """Callable run function for the evaluators.

    Parameters
    ----------
    dataset:
        Loaded benchmark (reduced arrays + nominal sizes).
    space:
        Architecture space used to decode ``config.arch``.
    cost_model:
        Training-time model for the simulated duration.
    epochs, warmup_epochs, plateau_patience:
        Training recipe (paper: 20 / 5 / 5).
    objective:
        ``"best"`` (max epoch validation accuracy, DeepHyper's default) or
        ``"final"`` (last epoch).
    dtype:
        Model/array precision (default ``"float32"``, the precision the
        paper's TensorFlow/Horovod training runs at); ``"float64"`` is the
        oracle precision.
    """

    def __init__(
        self,
        dataset: TabularDataset,
        space: ArchitectureSpace,
        cost_model: TrainingCostModel | None = None,
        epochs: int = 20,
        warmup_epochs: int = 5,
        plateau_patience: int = 5,
        objective: str = "best",
        base_seed: int = 0,
        keep_best_weights: bool = False,
        nominal_epochs: int | None = None,
        apply_linear_scaling: bool = True,
        dtype="float32",
    ) -> None:
        if objective not in ("best", "final"):
            raise ValueError(f"objective must be 'best' or 'final', got {objective!r}")
        self.dataset = dataset
        self.space = space
        self.cost_model = cost_model or TrainingCostModel()
        self.epochs = epochs
        # Simulated durations are billed at the paper's epoch count even
        # when real training is shortened for bench speed.
        self.nominal_epochs = nominal_epochs if nominal_epochs is not None else epochs
        self.warmup_epochs = warmup_epochs
        self.plateau_patience = plateau_patience
        self.objective = objective
        self.base_seed = base_seed
        self.keep_best_weights = keep_best_weights
        # Ablation knob: disable the linear scaling rule (Eq. 2) so the
        # base learning rate is used unscaled at any rank count.
        self.apply_linear_scaling = apply_linear_scaling
        self.dtype = np.dtype(dtype)

    # ------------------------------------------------------------------ #
    def build_model(self, config: ModelConfig, rng: np.random.Generator) -> GraphNetwork:
        spec = self.space.decode(config.arch)
        return GraphNetwork(
            spec, self.dataset.n_features, self.dataset.n_classes, rng, dtype=self.dtype
        )

    def duration(self, config: ModelConfig) -> float:
        """Simulated training minutes of ``config``, known without training:
        the cost model at the data set's nominal size and ``nominal_epochs``,
        driven by the decoded architecture's parameter count.  A call on
        ``config`` reports exactly this duration, which lets
        :class:`~repro.workflow.SimulatedEvaluator` schedule an attempt's
        completion before training it."""
        spec = self.space.decode(config.arch)
        return self.cost_model.training_minutes(
            num_params=spec.num_parameters(self.dataset.n_features, self.dataset.n_classes),
            train_size=self.dataset.nominal_train_size,
            batch_size=config.batch_size,
            num_ranks=config.num_ranks,
            epochs=self.nominal_epochs,
        )

    def epoch_events(self, job_id: int, config: ModelConfig, result: EvaluationResult) -> list:
        """The ``EpochEnd`` events of job ``job_id``'s ``result`` on ``config``,
        which the evaluator emits as the attempt settles; none for a result
        no call computed (it holds no epoch lists)."""
        from repro.campaign.events import EpochEnd

        losses, accuracies, rings = (
            result.metadata.get(key, ())
            for key in ("epoch_train_losses", "epoch_val_accuracies", "epoch_ring_bytes_per_rank")
        )
        return [
            EpochEnd(job_id, epoch, float(loss), float(acc), config.num_ranks, int(ring))
            for epoch, (loss, acc, ring) in enumerate(zip(losses, accuracies, rings))
        ]

    def __call__(self, config: ModelConfig) -> EvaluationResult:
        # One BLAS thread, so the result is the same on every host.
        with one_blas_thread():
            return self._train(config)

    def _train(self, config: ModelConfig) -> EvaluationResult:
        rng = np.random.default_rng(_config_seed(config, self.base_seed))
        model = self.build_model(config, rng)
        trainer = DataParallelTrainer(
            num_ranks=config.num_ranks,
            epochs=self.epochs,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            warmup_epochs=self.warmup_epochs,
            plateau_patience=self.plateau_patience,
            keep_best_weights=self.keep_best_weights,
            apply_linear_scaling=self.apply_linear_scaling,
        )
        result = trainer.fit(
            model,
            self.dataset.X_train,
            self.dataset.y_train,
            self.dataset.X_valid,
            self.dataset.y_valid,
            rng,
        )
        objective = (
            result.best_val_accuracy if self.objective == "best" else result.final_val_accuracy
        )
        # Only scalar entries reach the search history; the per-epoch lists
        # stay with the job (and its checkpoint row) for epoch_events.
        metadata = {
            "num_params": model.num_parameters(),
            "epoch_val_accuracies": result.epoch_val_accuracies,
            "epoch_train_losses": result.epoch_train_losses,
            "epoch_ring_bytes_per_rank": result.epoch_ring_bytes_per_rank,
            "final_val_accuracy": result.final_val_accuracy,
        }
        if self.keep_best_weights:
            metadata["best_weights"] = result.best_weights
        return EvaluationResult(
            objective=float(objective), duration=self.duration(config), metadata=metadata
        )
