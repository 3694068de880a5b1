"""Ablation (beyond the paper): BO surrogate model.

Compares the paper's random-forest surrogate against a k-nearest-neighbour
surrogate and pure random hyperparameter sampling inside AgEBO.
Expectation: any model-based surrogate beats random sampling of H_m; the
forest is the strongest (it handles the mixed categorical/log-real space).
"""

from __future__ import annotations

from common import format_table, report
from repro.bo import SURROGATES
from repro.core import AgEBO, ModelEvaluation
from repro.searchspace import default_dataparallel_space
from repro.workflow import SimulatedEvaluator

import common


def run_experiment():
    scale = common.get_scale()
    ds = common.get_dataset("covertype")
    space = common.get_search_space()
    out = {}
    for surrogate in SURROGATES:
        run_fn = ModelEvaluation(
            ds, space, epochs=scale.epochs, warmup_epochs=scale.warmup_epochs,
            nominal_epochs=20,
        )
        evaluator = SimulatedEvaluator(run_fn, num_workers=scale.num_workers)
        search = AgEBO(
            space,
            default_dataparallel_space(),
            evaluator,
            population_size=scale.population_size,
            sample_size=scale.sample_size,
            seed=0,
            surrogate=surrogate,
            label=f"AgEBO[{surrogate}]",
        )
        history = search.search(
            max_evaluations=scale.max_evaluations, wall_time_minutes=scale.wall_minutes
        )
        evaluator.close()
        top10 = history.top_k(min(10, len(history)))
        out[surrogate] = {
            "best": history.best().objective,
            "top10_mean": sum(r.objective for r in top10) / len(top10),
            "n_evals": len(history),
        }
    return out


def test_ablation_surrogate(benchmark):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        [s, r["n_evals"], round(r["top10_mean"], 4), round(r["best"], 4)]
        for s, r in out.items()
    ]
    report(
        "ablation_surrogate",
        format_table(
            "Ablation — BO surrogate model (AgEBO, Covertype)",
            ["surrogate", "evals", "top-10 mean val acc", "best val acc"],
            rows,
        ),
    )
    # Model-based hyperparameter selection concentrates evaluations on good
    # configurations: its top-10 mean should not trail random sampling.
    assert out["forest"]["top10_mean"] >= out["random"]["top10_mean"] - 0.01
