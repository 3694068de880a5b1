"""Per-node reference for the level-synchronous forest grower.

A plain Python loop over nodes, one level at a time, that follows the draw
order and arithmetic documented in :mod:`repro.bo.forest`: each node sorts
its own rows per candidate feature and scores the thresholds with 1-D
cumulative sums.  The grower must reproduce its node table, and so its
predictions, bit for bit.  The recursive per-row walks over a node table
are the reference for the vectorized ``predict``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReferenceForest", "grow_reference", "predict_recursive", "predict_reference"]


def _best_split(Xn: np.ndarray, yn: np.ndarray, cand: np.ndarray) -> tuple[int, float] | None:
    """Best split of one node (rows in sample order), features in key order."""
    n = yn.size
    counts = np.arange(1, n)
    right_counts = n - counts
    scores, sorted_x = [], []
    for f in cand:
        order = np.argsort(Xn[:, f], kind="stable")
        xs = Xn[order, f]
        ys = yn[order]
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        left_sum = csum[:-1]
        left_sum2 = csum2[:-1]
        right_sum = csum[-1] - left_sum
        right_sum2 = csum2[-1] - left_sum2
        sse = (
            left_sum2
            - left_sum * left_sum / counts
            + right_sum2
            - right_sum * right_sum / right_counts
        )
        sse[~(xs[1:] > xs[:-1])] = np.inf
        scores.append(sse)
        sorted_x.append(xs)
    flat = int(np.argmin(np.concatenate(scores)))
    j, pos = divmod(flat, n - 1)
    if not np.isfinite(scores[j][pos]):
        return None
    return int(cand[j]), float(0.5 * (sorted_x[j][pos] + sorted_x[j][pos + 1]))


def grow_reference(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    n_trees: int = 1,
    max_depth: int = 12,
    min_samples_split: int = 4,
    k: int | None = None,
    bootstrap: bool = False,
) -> tuple[np.ndarray, ...]:
    """Node table ``(feature, threshold, left, right, value)`` of ``n_trees``
    trees with ``k`` candidate features per split (``None``: all)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    k = d if k is None else min(k, d)
    if bootstrap and n > 1:
        samples = rng.integers(0, n, size=(n_trees, n))
    else:
        samples = np.tile(np.arange(n), (n_trees, 1))
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    # A frontier node is (tree, positions into that tree's samples, ascending).
    frontier = [(tree, np.arange(n)) for tree in range(n_trees)]
    for depth in range(max_depth + 1):
        base = len(value)
        eligible = []
        for tree, pos in frontier:
            yn = y[samples[tree, pos]]
            total = 0.0
            for v in yn:
                total += v
            value.append(total / pos.size)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            eligible.append(pos.size >= min_samples_split and yn.max() > yn.min())
        if depth == max_depth or k == 0 or not any(eligible):
            break
        keys = iter(rng.random((sum(eligible), d)))
        children = []
        for j, ((tree, pos), ok) in enumerate(zip(frontier, eligible)):
            if not ok:
                continue
            cand = np.argsort(next(keys), kind="stable")[:k]
            rows = samples[tree, pos]
            split = _best_split(X[rows], y[rows], cand)
            if split is None:
                continue
            f, thr = split
            go_left = X[rows, f] <= thr
            if go_left.all() or not go_left.any():
                continue
            node = base + j
            feature[node] = f
            threshold[node] = thr
            left[node] = base + len(frontier) + len(children)
            right[node] = left[node] + 1
            children += [(tree, pos[go_left]), (tree, pos[~go_left])]
        if not children:
            break
        frontier = children
    return (
        np.asarray(feature, dtype=np.intp),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.intp),
        np.asarray(right, dtype=np.intp),
        np.asarray(value, dtype=float),
    )


def predict_recursive(model, X: np.ndarray, root: int = 0) -> np.ndarray:
    """Per-row walk from ``root`` through a fitted model's node table."""

    def walk(node: int, row: np.ndarray) -> float:
        if model.feature_[node] < 0:
            return float(model.value_[node])
        if row[model.feature_[node]] <= model.threshold_[node]:
            return walk(int(model.left_[node]), row)
        return walk(int(model.right_[node]), row)

    return np.array([walk(root, row) for row in np.asarray(X, dtype=float)])


def predict_reference(forest, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree, per-row (mean, std) of a fitted forest."""
    preds = np.stack([predict_recursive(forest, X, root) for root in range(forest.n_trees)])
    return preds.mean(axis=0), preds.std(axis=0)


class ReferenceForest:
    """Drop-in for :class:`repro.bo.forest.RandomForestRegressor` built on
    :func:`grow_reference` and :func:`predict_reference`."""

    def __init__(
        self,
        n_trees: int = 25,
        max_depth: int = 12,
        min_samples_split: int = 4,
        max_features: int | None = None,
        bootstrap: bool = True,
    ) -> None:
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.bootstrap = bootstrap

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> "ReferenceForest":
        d = np.shape(X)[1]
        k = self.max_features
        if k is None:
            k = d if d <= 3 else max(1, int(np.sqrt(d)))
        self.feature_, self.threshold_, self.left_, self.right_, self.value_ = grow_reference(
            X, y, rng, self.n_trees, self.max_depth, self.min_samples_split, k, self.bootstrap
        )
        return self

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return predict_reference(self, X)
