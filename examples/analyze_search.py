#!/usr/bin/env python
"""Post-hoc analysis of a search campaign.

Runs a short AgEBO search on the Dionis-analogue (355 classes), persists
the history to JSON, reloads it, and applies the analysis toolbox:

  - best-so-far trajectory,
  - hyperparameter importance (fANOVA-lite marginal variances),
  - PCA of the top configurations,
  - transfer-ready observations for a future warm start.

Usage:
    python examples/analyze_search.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.analysis import PCA, hyperparameter_importance, top_fraction_records
from repro.core import (
    ModelEvaluation,
    extract_hp_observations,
    load_history,
    make_agebo_variant,
    save_history,
)
from repro.datasets import load_dataset
from repro.searchspace import ArchitectureSpace, default_dataparallel_space
from repro.workflow import FaultPolicy, SimulatedEvaluator


def main() -> None:
    ds = load_dataset("dionis", size=4000)
    print(ds.summary())

    space = ArchitectureSpace(num_nodes=4)
    evaluation = ModelEvaluation(ds, space, epochs=4, warmup_epochs=2, nominal_epochs=20)
    evaluator = SimulatedEvaluator(
        evaluation, num_workers=8, fault_policy=FaultPolicy(on_error="penalize")
    )
    search = make_agebo_variant(
        "AgEBO", space, evaluator, population_size=10, sample_size=3, seed=11
    )
    history = search.search(max_evaluations=40)

    # Persist and reload — analysis below runs on the *loaded* history,
    # demonstrating offline inspection of a finished campaign.
    path = Path(tempfile.gettempdir()) / "agebo_dionis_history.json"
    save_history(history, path)
    loaded = load_history(path)
    print(f"\nsaved + reloaded {len(loaded)} evaluations from {path}")

    times, objs = loaded.best_so_far()
    print("\nbest-so-far trajectory (sim minutes -> val acc):")
    for t, o in list(zip(times, objs))[:: max(1, len(times) // 6)]:
        print(f"  {t:7.1f} -> {o:.4f}")

    importance = hyperparameter_importance(loaded, default_dataparallel_space(), seed=0)
    print("\nhyperparameter importance (marginal variance, normalized):")
    for name, value in sorted(importance.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<14} {value:.2%}")

    top = top_fraction_records(loaded, fraction=0.2, minimum=5)
    onehots = np.stack([space.to_onehot(r.config.arch) for r in top])
    pca = PCA(2).fit(onehots)
    print(
        f"\nPCA of top-{len(top)} architectures: 2-D projection conserves "
        f"{pca.explained_variance_ratio_.sum():.0%} variance"
    )

    configs, values = extract_hp_observations(loaded, top_fraction=0.5)
    print(f"{len(configs)} rank-normalized observations ready to warm-start a "
          f"related search (see AgEBO(warm_start=...)).")
    best = loaded.best()
    print(f"\nbest model: val acc {best.objective:.4f} with "
          f"bs={best.config.batch_size}, lr={best.config.learning_rate:.5f}, "
          f"n={best.config.num_ranks}")


if __name__ == "__main__":
    main()
