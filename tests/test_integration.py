"""Integration tests: full searches with real training on the simulated cluster.

These exercise the complete stack — dataset → search space → evaluation
(real data-parallel training) → simulated cluster → search loop → analysis
— at a miniature scale, asserting the paper's qualitative relationships.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import high_performer_threshold, utilization_summary
from repro.core import ModelEvaluation, make_age_variant, make_agebo_variant
from repro.searchspace import ArchitectureSpace
from repro.workflow import SimulatedEvaluator, ThreadedEvaluator


@pytest.fixture(scope="module")
def setting(tiny_covertype):
    return tiny_covertype, ArchitectureSpace(num_nodes=3)


def run_search(ds, space, make_search, max_evals=25, workers=4, epochs=3):
    run = ModelEvaluation(ds, space, epochs=epochs, nominal_epochs=20)
    ev = SimulatedEvaluator(run, num_workers=workers)
    search = make_search(space, ev)
    history = search.search(max_evaluations=max_evals)
    return history, ev


def test_age1_full_pipeline(setting):
    ds, space = setting
    hist, ev = run_search(
        ds,
        space,
        lambda s, e: make_age_variant(s, e, num_ranks=1, population_size=6, sample_size=2, seed=0),
    )
    assert len(hist) >= 25
    assert 0.3 < hist.best().objective <= 1.0
    assert ev.now > 0


def test_agebo_full_pipeline(setting):
    ds, space = setting
    hist, ev = run_search(
        ds,
        space,
        lambda s, e: make_agebo_variant(
            "AgEBO", s, e, population_size=6, sample_size=2, seed=0, n_initial_points=6
        ),
    )
    assert len(hist) >= 25
    # BO explored ranks; durations must reflect the rank choice.
    by_rank = {}
    for r in hist:
        by_rank.setdefault(r.config.num_ranks, []).append(r.duration)
    if len(by_rank) >= 2:
        ranks = sorted(by_rank)
        assert np.mean(by_rank[ranks[-1]]) < np.mean(by_rank[ranks[0]])


def test_agebo_evaluates_more_architectures_than_age1_per_simtime(setting):
    """The headline claim: autotuned DP training packs more evaluations
    into the same simulated wall time."""
    ds, space = setting
    budget = 120.0  # simulated minutes

    def run(make):
        run_fn = ModelEvaluation(ds, space, epochs=2, nominal_epochs=20)
        ev = SimulatedEvaluator(run_fn, num_workers=4)
        search = make(space, ev)
        return search.search(wall_time_minutes=budget)

    hist_age1 = run(
        lambda s, e: make_age_variant(s, e, num_ranks=1, population_size=6, sample_size=2, seed=0)
    )
    hist_age8 = run(
        lambda s, e: make_age_variant(s, e, num_ranks=8, population_size=6, sample_size=2, seed=0)
    )
    assert len(hist_age8) > len(hist_age1)


def test_utilization_is_high(setting):
    ds, space = setting
    hist, ev = run_search(
        ds,
        space,
        lambda s, e: make_age_variant(s, e, num_ranks=2, population_size=6, sample_size=2, seed=1),
        max_evals=30,
    )
    summary = utilization_summary(ev)
    assert summary.utilization > 0.75  # paper reports ≈0.94 at full scale


def test_threshold_and_top_configs_on_real_history(setting):
    ds, space = setting
    hist, _ = run_search(
        ds,
        space,
        lambda s, e: make_age_variant(s, e, num_ranks=1, population_size=6, sample_size=2, seed=2),
        max_evals=20,
    )
    thr = high_performer_threshold([hist], quantile=0.9)
    assert 0.0 < thr <= 1.0


def test_threaded_evaluator_runs_same_search(setting):
    """The search loop is backend-agnostic: real threads work too."""
    ds, space = setting
    run_fn = ModelEvaluation(ds, space, epochs=2)
    ev = ThreadedEvaluator(run_fn, num_workers=2)
    try:
        search = make_age_variant(
            space, ev, num_ranks=1, population_size=4, sample_size=2, seed=0
        )
        hist = search.search(max_evaluations=6)
        assert len(hist) >= 6
        assert all(0.0 <= r.objective <= 1.0 for r in hist)
    finally:
        ev.close()


def test_search_reproducibility_end_to_end(setting):
    ds, space = setting

    def once():
        hist, _ = run_search(
            ds,
            space,
            lambda s, e: make_agebo_variant(
                "AgEBO", s, e, population_size=5, sample_size=2, seed=7, n_initial_points=4
            ),
            max_evals=12,
            epochs=2,
        )
        return hist.objectives()

    np.testing.assert_array_equal(once(), once())
