"""Factories for the paper's search variants.

- ``AgE-n`` (Table I / Fig. 3): static data-parallel training with ``n``
  ranks, defaults scaled by the linear scaling rule inside the trainer.
- ``AgEBO-8-LR`` (Fig. 4): tune learning rate only, ``n = 8`` fixed.
- ``AgEBO-8-LR-BS`` (Fig. 4): tune learning rate + batch size, ``n = 8``.
- ``AgEBO`` (everywhere): tune all three hyperparameters.
"""

from __future__ import annotations

from repro.core.age import AgE
from repro.core.agebo import AgEBO
from repro.searchspace.archspace import ArchitectureSpace
from repro.searchspace.hpspace import default_dataparallel_space
from repro.workflow.evaluator import Evaluator

__all__ = ["make_age_variant", "make_agebo_variant", "variant_hp_space", "AGEBO_VARIANTS"]

AGEBO_VARIANTS = ("AgEBO", "AgEBO-8-LR", "AgEBO-8-LR-BS")


def variant_hp_space(variant: str, max_ranks: int = 8):
    """The hyperparameter space of a named AgEBO variant."""
    if variant == "AgEBO":
        return default_dataparallel_space(max_ranks=max_ranks)
    if variant == "AgEBO-8-LR":
        return default_dataparallel_space(
            tune_batch_size=False, tune_num_ranks=False, default_num_ranks=8
        )
    if variant == "AgEBO-8-LR-BS":
        return default_dataparallel_space(tune_num_ranks=False, default_num_ranks=8)
    raise ValueError(f"unknown variant {variant!r}; expected one of {AGEBO_VARIANTS}")


def make_age_variant(
    space: ArchitectureSpace,
    evaluator: Evaluator,
    num_ranks: int = 1,
    batch_size: int = 256,
    learning_rate: float = 0.01,
    **kwargs,
) -> AgE:
    """Build ``AgE-n``.

    The base (n=1) batch size and learning rate are stored; the
    data-parallel trainer applies the linear scaling rule at train time.
    """
    return AgE(
        space,
        evaluator,
        hyperparameters={
            "batch_size": batch_size,
            "learning_rate": learning_rate,
            "num_ranks": num_ranks,
        },
        label=f"AgE-{num_ranks}",
        **kwargs,
    )


def make_agebo_variant(
    variant: str,
    space: ArchitectureSpace,
    evaluator: Evaluator,
    max_ranks: int = 8,
    kappa: float = 0.001,
    **kwargs,
) -> AgEBO:
    """Build one of the Fig. 4 AgEBO ablation variants by name."""
    hp_space = variant_hp_space(variant, max_ranks=max_ranks)
    return AgEBO(space, hp_space, evaluator, kappa=kappa, label=variant, **kwargs)
