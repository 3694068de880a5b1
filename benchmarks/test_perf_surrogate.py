"""Perf bench: the forest surrogate vs its per-node oracle.

Times forest ``fit`` (level-synchronous grower vs the per-node oracle in
``tests/forest_oracle.py``), ensemble ``predict`` (single batched
level-walk over all trees × candidates vs the per-row recursive walk) and
the BO ``ask`` hot path (production forest vs the oracle forest) under
fixed seeds, writing before/after medians to ``BENCH_surrogate.json`` at
the repo root.

Timings are recorded, never asserted.  The bench fails only on the
equivalence gates: the grower's node table, the batched predict and the
proposed ask batch must equal the oracle's bit for bit.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from common import BenchEntry, median_time, write_bench_json
from repro.bo import BayesianOptimizer
from repro.bo.forest import RandomForestRegressor
from repro.searchspace import default_dataparallel_space

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))
from forest_oracle import ReferenceForest  # noqa: E402

N_TREES = 25
N_CANDIDATES = 1024
N_OBSERVATIONS = 200
N_FEATURES = 3  # the paper's data-parallel hp space: lr, batch size, ranks


def _training_data(seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N_OBSERVATIONS, N_FEATURES))
    y = np.sin(X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(N_OBSERVATIONS)
    return X, y


def _table(model):
    return model.feature_, model.threshold_, model.left_, model.right_, model.value_


class _OracleOptimizer(BayesianOptimizer):
    """The same ask with the oracle forest as surrogate."""

    def _fit_surrogate(self, X, y):
        proto = self._forest_proto
        return ReferenceForest(n_trees=proto.n_trees, max_depth=proto.max_depth).fit(
            X, y, self._rng
        )


def test_perf_forest_and_ask():
    X, y = _training_data()
    Xq = np.random.default_rng(1).standard_normal((N_CANDIDATES, N_FEATURES))

    def fit(cls):
        return cls(n_trees=N_TREES, max_depth=10).fit(X, y, np.random.default_rng(3))

    space = default_dataparallel_space()
    cfg_rng = np.random.default_rng(4)
    configs = [space.sample(cfg_rng) for _ in range(20)]
    values = list(np.random.default_rng(5).random(20))

    def ask_batch(cls):
        opt = cls(
            space, seed=6, forest=RandomForestRegressor(n_trees=N_TREES, max_depth=10)
        )
        opt.tell(configs, values)
        return opt.ask(4)

    # --- equivalence gates (the only assertions in this bench) --------- #
    forest, oracle = fit(RandomForestRegressor), fit(ReferenceForest)
    for a, b in zip(_table(forest), _table(oracle)):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(forest.predict(Xq), oracle.predict(Xq)):
        assert a.tobytes() == b.tobytes()
    assert ask_batch(BayesianOptimizer) == ask_batch(_OracleOptimizer)

    entries = [
        BenchEntry(
            "forest_fit",
            median_time(lambda: fit(ReferenceForest), repeats=3),
            median_time(lambda: fit(RandomForestRegressor)),
            meta={"n_trees": N_TREES, "rows": N_OBSERVATIONS},
        ),
        BenchEntry(
            "forest_predict",
            median_time(lambda: oracle.predict(Xq), repeats=3),
            median_time(lambda: forest.predict(Xq)),
            meta={"n_trees": N_TREES, "candidates": N_CANDIDATES},
        ),
        # BO ask under a fixed seed (refit-per-lie, pool of 500).
        BenchEntry(
            "bo_ask_batch4",
            median_time(lambda: ask_batch(_OracleOptimizer), repeats=3),
            median_time(lambda: ask_batch(BayesianOptimizer), repeats=3),
            meta={"observations": 20, "batch": 4, "pool": 500},
        ),
    ]

    out = write_bench_json(REPO_ROOT / "BENCH_surrogate.json", "surrogate", entries)
    for e in entries:
        print(f"{e.name}: ref {e.reference_s * 1e3:.2f} ms -> "
              f"opt {e.optimized_s * 1e3:.2f} ms ({e.speedup:.1f}x)")
    print(f"written: {out}")


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
