"""Ablation (beyond the paper): the linear scaling rule inside AgE-8.

With the rule (paper default), the base lr 0.01 becomes 0.08 at n = 8 —
too hot, which is exactly why AgE-8 degrades in Table I.  Without the rule
the lr stays 0.01 but each epoch takes 8x fewer optimizer steps, so the
model undertrains.  Either way static hyperparameters lose to tuning;
this bench quantifies both failure modes.
"""

from __future__ import annotations

from common import format_table, report
from repro.core import ModelEvaluation, make_age_variant
from repro.workflow import SimulatedEvaluator

import common


def run_experiment():
    scale = common.get_scale()
    ds = common.get_dataset("covertype")
    space = common.get_search_space()
    out = {}
    for scaling in (True, False):
        run_fn = ModelEvaluation(
            ds,
            space,
            epochs=scale.epochs,
            warmup_epochs=scale.warmup_epochs,
            nominal_epochs=20,
            apply_linear_scaling=scaling,
        )
        evaluator = SimulatedEvaluator(run_fn, num_workers=scale.num_workers)
        search = make_age_variant(
            space,
            evaluator,
            num_ranks=8,
            population_size=scale.population_size,
            sample_size=scale.sample_size,
            seed=0,
        )
        history = search.search(
            max_evaluations=scale.max_evaluations, wall_time_minutes=scale.wall_minutes
        )
        evaluator.close()
        key = "with linear scaling" if scaling else "without linear scaling"
        out[key] = {
            "best": history.best().objective,
            "mean": float(history.objectives().mean()),
            "n_evals": len(history),
        }
    return out


def test_ablation_linear_scaling(benchmark):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        [k, r["n_evals"], round(r["mean"], 4), round(r["best"], 4)] for k, r in out.items()
    ]
    report(
        "ablation_linear_scaling",
        format_table(
            "Ablation — linear scaling rule on/off (AgE-8, Covertype)",
            ["setting", "evals", "mean val acc", "best val acc"],
            rows,
        ),
    )
    # Both static settings produce valid searches; neither should collapse.
    for k, r in out.items():
        assert r["best"] > 0.5, k
