"""Regression trees and random forests for the BO surrogate.

A small CART implementation built for surrogate latency: the freshness of
the liar-augmented model when workers request new configs is gated by how
fast ``fit``/``predict`` run (Klein et al., model-based asynchronous HPO),
so neither path does Python work per node or per row.

**Level-synchronous growth.**  ``fit`` grows every tree of the ensemble at
once, one depth level per iteration, straight into one node table.  Each
column is argsorted once per tree (stable, so equal values keep sample
order); at every level each split-eligible frontier node of every tree is
scored in one padded ``(nodes, rows, features)`` cumsum batch, and all
columns are partitioned into the children with one stable argsort, so
every node's rows stay sorted.  Frontier nodes are batched in power-of-two
size classes, which bounds a padded batch to twice the frontier's rows.

A split minimises the children's summed squared error
``Σy²_L - (Σy_L)²/n_L + Σy²_R - (Σy_R)²/n_R`` over the thresholds where the
sorted feature changes value, from cumulative sums in that feature's order
(node totals are the last cumulative sum).  A node is split-eligible when
it is shallower than ``max_depth``, holds at least ``min_samples_split``
rows and its targets are not all equal.  Its leaf value is the sum of its
targets, accumulated in sample order, over its size.

**Random draw order** (what a seed fixes):

1. Bootstrap: one ``rng.integers(0, n, size=(n_trees, n))`` draw (forest
   with ``bootstrap=True`` and ``n > 1`` only).
2. Feature keys: one ``rng.random((m, d))`` draw per level, one row per
   split-eligible frontier node in (tree, then breadth-first) order.
   A node's candidate features are its ``max_features`` smallest keys.
3. Ties on the best SSE go to the candidate feature with the smallest key,
   then to the first split position within that feature.

Nodes are numbered level by level: roots ``0..n_trees-1``, then each
level's children in frontier order, left before right.  A split whose
midpoint threshold sends every row to one side leaves the node a leaf.

``predict`` routes all trees × all candidate rows through the table in one
level walk and returns the per-candidate mean and standard deviation across
trees, the (μ, σ) pair skopt's forest surrogate feeds into UCB.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RegressionTree", "RandomForestRegressor"]


def _check_params(max_depth: int, min_samples_split: int, max_features: int | None) -> None:
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if min_samples_split < 2:
        raise ValueError("min_samples_split must be >= 2")
    if max_features is not None and max_features < 1:
        raise ValueError("max_features must be >= 1 (or None)")


def _check_data(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"bad shapes: X {X.shape}, y {y.shape}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on empty data")
    return X, y


def _find_splits(
    xs_all: np.ndarray,
    ys_all: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    cand: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best (feature, threshold) of each node; feature ``-1`` if none.

    ``order`` lists the frontier's sample ids per column, node by node,
    sorted within a node; ``cand`` holds each node's candidate features in
    key order.  Nodes run in power-of-two size classes, each padded to its
    largest node; padding rows follow the real ones, so they never enter a
    real prefix sum and are masked out of the split positions.
    """
    feature = np.full(sizes.size, -1, dtype=np.intp)
    threshold = np.zeros(sizes.size)
    size_class = np.frexp(sizes - 1)[1]
    for c in np.unique(size_class):
        J = np.flatnonzero(size_class == c)
        n = sizes[J]
        L = int(n.max())
        rows = np.minimum(starts[J, None] + np.arange(L), order.shape[0] - 1)
        fc = cand[J][:, None, :]                                   # (m, 1, k)
        sid = order[rows[:, :, None], fc]                          # (m, L, k)
        xs = xs_all[sid, fc]
        ys = ys_all[sid]
        csum = np.cumsum(ys, axis=1)
        csum2 = np.cumsum(ys * ys, axis=1)
        a = np.arange(J.size)
        total = csum[a, n - 1][:, None]
        total2 = csum2[a, n - 1][:, None]
        left_sum = csum[:, :-1]
        left_sum2 = csum2[:, :-1]
        right_sum = total - left_sum
        right_sum2 = total2 - left_sum2
        counts = np.arange(1, L)[:, None]                          # left sizes
        right_counts = np.maximum(n[:, None, None] - counts, 1)    # >= 1 on padding
        sse = (
            left_sum2
            - left_sum * left_sum / counts
            + right_sum2
            - right_sum * right_sum / right_counts
        )
        valid = (xs[:, 1:] > xs[:, :-1]) & (counts < n[:, None, None])
        np.copyto(sse, np.inf, where=~valid)
        # Feature-major flat argmin: smallest key, then first position, wins.
        flat = np.argmin(sse.transpose(0, 2, 1).reshape(J.size, -1), axis=1)
        j, pos = np.divmod(flat, L - 1)
        ok = np.isfinite(sse[a, pos, j])
        feature[J[ok]] = fc[a, 0, j][ok]
        threshold[J[ok]] = (0.5 * (xs[a, pos, j] + xs[a, pos + 1, j]))[ok]
    return feature, threshold


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    samples: np.ndarray,
    max_depth: int,
    min_samples_split: int,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ...]:
    """Grow one tree per row of ``samples`` (row indices into ``X``).

    Returns the node table ``(feature, threshold, left, right, value)``;
    leaves have feature ``-1``.
    """
    t, n = samples.shape
    d = X.shape[1]
    xs = X[samples.ravel()]                                        # (S, d) per sample
    ys = y[samples.ravel()]
    order = np.argsort(xs.reshape(t, n, d), axis=1, kind="stable")
    order = (order + (np.arange(t) * n)[:, None, None]).reshape(t * n, d)
    node_of = np.repeat(np.arange(t), n)                           # frontier index; -1: done
    sizes = np.full(t, n)
    base = 0
    levels = []
    for depth in range(max_depth + 1):
        live = node_of >= 0
        value = np.bincount(node_of[live], weights=ys[live], minlength=sizes.size) / sizes
        feature = np.full(sizes.size, -1, dtype=np.intp)
        threshold = np.zeros(sizes.size)
        left = np.full(sizes.size, -1, dtype=np.intp)
        levels.append((feature, threshold, left, value))
        if depth == max_depth or k == 0:
            break
        starts = np.cumsum(sizes) - sizes
        y_seg = ys[order[:, 0]]
        E = np.flatnonzero(
            (sizes >= min_samples_split)
            & (np.maximum.reduceat(y_seg, starts) > np.minimum.reduceat(y_seg, starts))
        )
        if E.size == 0:
            break
        cand = np.argsort(rng.random((E.size, d)), axis=1, kind="stable")[:, :k]
        feature[E], threshold[E] = _find_splits(xs, ys, order, starts[E], sizes[E], cand)
        # Route every row of a splitting node; a one-sided split stays a leaf.
        seg = np.repeat(np.arange(sizes.size), sizes)
        go_left = xs[order[:, 0], feature[seg]] <= threshold[seg]
        n_left = np.bincount(seg, weights=go_left, minlength=sizes.size)
        one_sided = (n_left == 0) | (n_left == sizes)
        feature[one_sided] = -1
        threshold[one_sided] = 0.0
        split = np.flatnonzero(feature >= 0)
        if split.size == 0:
            break
        child = np.full(sizes.size, -1, dtype=np.intp)
        child[split] = 2 * np.arange(split.size)
        base += sizes.size                                         # next level's first id
        left[split] = base + child[split]
        row_child = np.where(child[seg] >= 0, child[seg] + ~go_left, -1)
        node_of[order[:, 0]] = row_child
        # One stable argsort moves every column into child order; rows of
        # leaves (key 2 * splits) sort last and are dropped.
        key = np.where(node_of >= 0, node_of, 2 * split.size)[order]
        kept = int(sizes[split].sum())
        order = np.take_along_axis(order, np.argsort(key, axis=0, kind="stable")[:kept], axis=0)
        n_left = n_left[split].astype(np.intp)
        sizes = np.column_stack([n_left, sizes[split] - n_left]).ravel()
    feature, threshold, left, value = (np.concatenate(a) for a in zip(*levels))
    right = np.where(left >= 0, left + 1, -1)
    return feature, threshold, left, right, value


class _NodeTable:
    """Fitted node arrays shared by the tree and the forest."""

    feature_: np.ndarray | None = None
    threshold_: np.ndarray | None = None
    left_: np.ndarray | None = None
    right_: np.ndarray | None = None
    value_: np.ndarray | None = None
    max_depth: int
    min_samples_split: int

    def _fit_table(
        self, X: np.ndarray, y: np.ndarray, samples: np.ndarray, k: int, rng: np.random.Generator
    ):
        (self.feature_, self.threshold_, self.left_, self.right_, self.value_) = _grow(
            X, y, samples, self.max_depth, self.min_samples_split, k, rng
        )
        return self

    def _walk(self, X: np.ndarray, n_roots: int) -> np.ndarray:
        """Leaf values ``(n_roots, rows)``: every (tree, row) walker routed
        one level per iteration."""
        if self.value_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        feature = self.feature_
        threshold = self.threshold_
        nodes = np.repeat(np.arange(n_roots), n)
        rows = np.tile(np.arange(n), n_roots)
        active = feature[nodes] >= 0
        while active.any():
            cur = nodes[active]
            go_left = X[rows[active], feature[cur]] <= threshold[cur]
            nodes[active] = np.where(go_left, self.left_[cur], self.right_[cur])
            active = feature[nodes] >= 0
        return self.value_[nodes].reshape(n_roots, n)

    @property
    def node_count(self) -> int:
        return 0 if self.value_ is None else self.value_.size


class RegressionTree(_NodeTable):
    """CART regression tree with random feature subsampling per split.

    Parameters
    ----------
    max_depth:
        Depth cap (root at depth 0).
    min_samples_split:
        Nodes with fewer samples become leaves.
    max_features:
        Number of candidate features per split; ``None`` uses all.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 4,
        max_features: int | None = None,
    ) -> None:
        _check_params(max_depth, min_samples_split, max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> "RegressionTree":
        X, y = _check_data(X, y)
        d = X.shape[1]
        k = d if self.max_features is None else min(self.max_features, d)
        return self._fit_table(X, y, np.arange(X.shape[0])[None], k, rng)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._walk(X, 1)[0]


class RandomForestRegressor(_NodeTable):
    """Bootstrap ensemble of regression trees with (μ, σ) prediction."""

    def __init__(
        self,
        n_trees: int = 25,
        max_depth: int = 12,
        min_samples_split: int = 4,
        max_features: int | None = None,
        bootstrap: bool = True,
    ) -> None:
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        _check_params(max_depth, min_samples_split, max_features)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.bootstrap = bootstrap

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> "RandomForestRegressor":
        X, y = _check_data(X, y)
        n, d = X.shape
        if self.max_features is not None:
            k = min(self.max_features, d)
        else:
            # skopt-style default: all features for small dims, else sqrt.
            k = d if d <= 3 else max(1, int(np.sqrt(d)))
        if self.bootstrap and n > 1:
            samples = rng.integers(0, n, size=(self.n_trees, n))
        else:
            samples = np.broadcast_to(np.arange(n), (self.n_trees, n))
        return self._fit_table(X, y, samples, k, rng)

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (mean, std) across the ensemble, all trees at once."""
        preds = self._walk(X, self.n_trees)
        return preds.mean(axis=0), preds.std(axis=0)
