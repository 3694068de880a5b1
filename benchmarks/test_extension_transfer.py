"""Extension bench (paper future-work item 3): transfer warm-start.

Warm-starts AgEBO's BO component on Airlines with the rank-normalized
hyperparameter observations of a finished Covertype search, comparing the
quality of the *early* evaluations against a cold-started search — the
transfer should not hurt and typically lifts the early phase, since the
good (lr, bs, n) regions of related tabular data sets overlap.
"""

from __future__ import annotations

import numpy as np

from common import format_table, get_scale, report, run_search
from repro.core import AgEBO, ModelEvaluation
from repro.core.transfer import extract_hp_observations
from repro.searchspace import default_dataparallel_space
from repro.workflow import SimulatedEvaluator

import common


def run_airlines(warm_start=None):
    scale = get_scale()
    ds = common.get_dataset("airlines")
    space = common.get_search_space()
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
        seed=3,
        warm_start=warm_start,
        label="AgEBO-warm" if warm_start else "AgEBO-cold",
    )
    history = search.search(
        max_evaluations=scale.max_evaluations, wall_time_minutes=scale.wall_minutes
    )
    evaluator.close()
    return history


def run_experiment():
    prior, _ = run_search("covertype", "AgEBO", seed=0)
    observations = list(zip(*extract_hp_observations(prior, top_fraction=0.5)))
    cold = run_airlines()
    warm = run_airlines(warm_start=observations)

    def early_mean(history, k=12):
        objs = history.objectives()
        return float(objs[: min(k, objs.size)].mean())

    return {
        "transferred": len(observations),
        "cold": {"early": early_mean(cold), "best": cold.best().objective},
        "warm": {"early": early_mean(warm), "best": warm.best().objective},
    }


def test_extension_transfer(benchmark):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(
        "extension_transfer",
        format_table(
            f"Extension — BO warm-start (covertype → airlines, "
            f"{out['transferred']} observations transferred)",
            ["variant", "early mean val acc (first 12)", "best val acc"],
            [
                ["cold start", round(out["cold"]["early"], 4), round(out["cold"]["best"], 4)],
                ["warm start", round(out["warm"]["early"], 4), round(out["warm"]["best"], 4)],
            ],
        ),
    )
    # Transfer must be safe: final quality within noise of cold start.
    assert out["warm"]["best"] >= out["cold"]["best"] - 0.02
