"""Random forest of gini-split decision trees, built from scratch.

Trees grow without a depth cap on bootstrap resamples, examining a
random ceil(sqrt(d)) feature subset at every split.  A node's split is
the threshold of least weighted gini over all its sampled features;
ties go to the lowest feature index, then to the fewest rows on the
left, i.e. the first minimum in (feature, left size) order.  All
randomness derives from per-tree generators spawned off one master
seed, and the fitted forest serializes to plain JSON-compatible dicts.
"""

from __future__ import annotations

import math

import numpy as np


def _split_search(cols: np.ndarray, y: np.ndarray, min_leaf: int):
    """Best (column, threshold) over a (features, rows) matrix; None if none splits.

    Every column is stable-sorted and scored at each left size k by
    weighted gini.  A k is a candidate only where the sorted value
    changes and both sides keep min_leaf rows.
    """
    n = cols.shape[1]
    order = np.argsort(cols, axis=1, kind="mergesort")
    xs = np.take_along_axis(cols, order, axis=1)
    cum_pos = np.cumsum(y[order], axis=1)
    n_left = np.arange(1, n)
    n_right = n - n_left
    valid = (xs[:, 1:] != xs[:, :-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    pos_left = cum_pos[:, :-1]
    p_left = pos_left / n_left
    p_right = (cum_pos[:, -1:] - pos_left) / n_right
    gini_left = 1.0 - p_left**2 - (1.0 - p_left) ** 2
    gini_right = 1.0 - p_right**2 - (1.0 - p_right) ** 2
    weighted = np.where(valid, (n_left * gini_left + n_right * gini_right) / n, np.inf)
    col, last = divmod(int(np.argmin(weighted)), n - 1)  # last sorted row on the left
    return col, (xs[col, last] + xs[col, last + 1]) / 2.0


class DecisionTree:
    """Binary CART classifier scoring P(positive) from leaf class fractions.

    Nodes are parallel arrays indexed by node id; feature -1 marks a leaf.
    """

    def __init__(self, max_features: int | None = None, min_samples_leaf: int = 1,
                 max_depth: int | None = None):
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.max_depth = max_depth
        self._set_nodes([])

    def _set_nodes(self, nodes) -> None:
        table = np.array(nodes, dtype=float).reshape(-1, 5)
        self.feature = table[:, 0].astype(np.intp)
        self.threshold = table[:, 1]
        self.left = table[:, 2].astype(np.intp)
        self.right = table[:, 3].astype(np.intp)
        self.prob = table[:, 4]

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> "DecisionTree":
        n, d = X.shape
        m = min(self.max_features or d, d)
        nodes = []  # [feature, threshold, left, right, prob] per node id
        # (sample indices, depth, parent node id, is-left) processed LIFO so
        # rng consumption follows a fixed traversal order
        stack = [(np.arange(n), 0, -1, False)]
        while stack:
            idx, depth, parent, is_left = stack.pop()
            node_id = len(nodes)
            prob = float(y[idx].mean())
            node = [-1, 0.0, -1, -1, prob]
            nodes.append(node)
            if parent >= 0:
                nodes[parent][2 if is_left else 3] = node_id

            pure = prob == 0.0 or prob == 1.0
            too_small = len(idx) < 2 * self.min_samples_leaf
            too_deep = self.max_depth is not None and depth >= self.max_depth
            if pure or too_small or too_deep:
                continue

            features = np.sort(rng.choice(d, size=m, replace=False)) if m < d else np.arange(d)
            split = _split_search(X[np.ix_(idx, features)].T, y[idx], self.min_samples_leaf)
            if split is None:
                continue  # no sampled feature splits here: leaf
            node[0], node[1] = int(features[split[0]]), float(split[1])
            mask = X[idx, node[0]] <= node[1]
            stack.append((idx[~mask], depth + 1, node_id, False))
            stack.append((idx[mask], depth + 1, node_id, True))
        self._set_nodes(nodes)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf P(positive) per row; all rows descend one level per step."""
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.arange(len(X))
        while rows.size:
            at = node[rows]
            split = self.feature[at] >= 0
            rows, at = rows[split], at[split]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        return self.prob[node]

    def to_dict(self) -> dict:
        nodes = zip(self.feature.tolist(), self.threshold.tolist(), self.left.tolist(),
                    self.right.tolist(), self.prob.tolist())
        return {"nodes": [list(n) for n in nodes]}

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTree":
        tree = cls()
        tree._set_nodes(data["nodes"])
        return tree


class RandomForestModel:
    """Bootstrap ensemble of probability trees; score is the tree average."""

    kind = "random_forest"

    def __init__(self, n_trees: int = 100, max_features: str | int = "sqrt",
                 min_samples_leaf: int = 1, max_depth: int | None = None):
        self.n_trees = n_trees
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.max_depth = max_depth
        self.trees: list[DecisionTree] = []

    def _resolve_features(self, d: int) -> int:
        if self.max_features == "sqrt":
            return max(1, math.ceil(math.sqrt(d)))
        return int(self.max_features)

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int) -> "RandomForestModel":
        n, d = X.shape
        m = self._resolve_features(d)
        self.trees = []
        for seq in np.random.SeedSequence(seed).spawn(self.n_trees):
            rng = np.random.default_rng(seq)
            sample = rng.integers(0, n, size=n)
            tree = DecisionTree(m, self.min_samples_leaf, self.max_depth)
            tree.fit(X[sample], y[sample], rng)
            self.trees.append(tree)
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise ValueError("model is not fitted")
        # summed tree by tree: equals np.mean over stacked scores, without the stack
        total = np.zeros(len(X))
        for tree in self.trees:
            total += tree.predict_proba(X)
        return total / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_features": self.max_features,
            "min_samples_leaf": self.min_samples_leaf,
            "max_depth": self.max_depth,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RandomForestModel":
        model = cls(
            n_trees=data["n_trees"],
            max_features=data["max_features"],
            min_samples_leaf=data["min_samples_leaf"],
            max_depth=data["max_depth"],
        )
        model.trees = [DecisionTree.from_dict(t) for t in data["trees"]]
        return model
