"""Ablation (beyond the paper): aging vs elitist population replacement.

Aging evolution (Real et al.) evicts the *oldest* population member, which
regularizes the search (every architecture must re-prove itself).  The
elitist alternative evicts the *worst*, which can lock in early noise.
Expectation: aging is competitive or better on best-accuracy; elitist
tends to reduce architecture diversity.
"""

from __future__ import annotations

from common import format_table, report
from repro.core import ModelEvaluation, make_age_variant
from repro.workflow import SimulatedEvaluator

import common


def unique_architectures(history) -> int:
    return len({r.config.key() for r in history.records})


def run_experiment():
    scale = common.get_scale()
    ds = common.get_dataset("covertype")
    space = common.get_search_space()
    out = {}
    for policy in ("aging", "elitist"):
        run_fn = ModelEvaluation(
            ds, space, epochs=scale.epochs, warmup_epochs=scale.warmup_epochs,
            nominal_epochs=20,
        )
        evaluator = SimulatedEvaluator(run_fn, num_workers=scale.num_workers)
        search = make_age_variant(
            space,
            evaluator,
            num_ranks=4,
            population_size=scale.population_size,
            sample_size=scale.sample_size,
            seed=0,
            replacement=policy,
        )
        history = search.search(
            max_evaluations=scale.max_evaluations, wall_time_minutes=scale.wall_minutes
        )
        evaluator.close()
        out[policy] = {
            "best": history.best().objective,
            "unique": unique_architectures(history),
            "n_evals": len(history),
        }
    return out


def test_ablation_aging(benchmark):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        [p, r["n_evals"], r["unique"], round(r["best"], 4)] for p, r in out.items()
    ]
    report(
        "ablation_aging",
        format_table(
            "Ablation — population replacement policy (AgE-4, Covertype)",
            ["replacement", "evals", "unique architectures", "best val acc"],
            rows,
        ),
    )
    assert out["aging"]["best"] >= out["elitist"]["best"] - 0.02