"""Random forest of gini-split decision trees, built from scratch.

Trees grow without a depth cap on bootstrap resamples, examining a
random ceil(sqrt(d)) feature subset at every split.  A bootstrap is a
multiset of rows, so a tree grows over its distinct rows and weighs each
by how often it was drawn: node sizes, positive counts and left sizes
are sums of those counts, and equal what the drawn copies would give.
A node's split is the threshold of least weighted gini over all its
sampled features; ties go to the lowest feature index, then to the
fewest rows on the left, i.e. the first minimum in (feature, left size)
order.  Columns are ranked once per fit into int64 keys (dense value rank
above row id), so a node sorts integers and scores only rank changes: the
left side is every row at or below a value, so tie order cannot change a
split.  A row's copies and positives share one int64, so one prefix sum
counts both, and a fit takes fewer than 2**31 rows.  All
randomness derives from per-tree generators spawned off one master
seed, and the fitted forest serializes to plain JSON-compatible dicts.
Features must be finite.
"""

from __future__ import annotations

import math

import numpy as np


_LOW = 2**32 - 1  # the low half of a key (row id) or of a weight (positives)


def _rank_keys(X: np.ndarray) -> np.ndarray:
    """(d, n) int64 keys, rank << 32 | row id, of each column's dense value
    ranks; equal values share one, -0.0 and 0.0 too.  Raises ValueError on
    n >= 2**31 rows (before reading X) or on a feature that is not finite."""
    n, d = X.shape
    if n >= 2**31:
        raise ValueError(f"a forest fit takes fewer than 2**31 rows, got {n}")
    if not np.isfinite(X).all():
        raise ValueError("forest features must be finite; X holds NaN or infinity")
    ranks = [np.unique(column, return_inverse=True)[1] for column in X.T]
    return np.array(ranks, dtype=np.int64).reshape(d, n) << 32 | np.arange(n)


def _split_search(keys: np.ndarray, X: np.ndarray, features: np.ndarray,
                  weights: np.ndarray, n: int, pos: int, min_leaf: int):
    """Best split of a node; None if no sampled feature splits it.

    keys, the node's (features, rows) slice of _rank_keys(X), is sorted in
    place; keys[i] ranks column features[i] of X.  Row r stands for
    weights[r] >> 32 >= 1 copies, weights[r] & _LOW of them positive, and
    the node's rows sum to n copies, pos of them positive.  Returns (key
    row, threshold, positives and copies on the left, left rows, right
    rows).  Candidates are rank changes where both sides keep min_leaf
    copies, scored by weighted gini in (key row, left size) order; the
    first minimum wins.  The threshold is the midpoint of the values
    around the split, or the lower one where the midpoint rounds onto the
    upper value or overflows, so every threshold keeps that left side.
    """
    m, u = keys.shape
    keys.sort(axis=1)
    rows = keys & _LOW
    cum = weights.take(rows).cumsum(axis=1)  # copies << 32 | positives up to each row
    # a candidate is the last sorted row left of a rank change; flat
    # positions into the (m, u) arrays come out in (key row, left size) order
    valid = np.zeros((m, u), dtype=bool)
    ranks = keys >> 32
    np.not_equal(ranks[:, 1:], ranks[:, :-1], out=valid[:, :-1])
    if min_leaf > 1:  # at one copy per row or more, min_leaf 1 always holds
        valid &= (cum >= min_leaf << 32) & (cum < (n - min_leaf + 1) << 32)
    at = valid.ravel().nonzero()[0]
    if not at.size:
        return None
    left = cum.take(at)
    n_left, pos_left = left >> 32, left & _LOW
    n_right = n - n_left
    p_left = pos_left / n_left
    p_right = (pos - pos_left) / n_right
    gini_left = 1.0 - p_left**2 - (1.0 - p_left) ** 2
    gini_right = 1.0 - p_right**2 - (1.0 - p_right) ** 2
    best = int(((n_left * gini_left + n_right * gini_right) / n).argmin())
    c, k = divmod(int(at[best]), u)
    order = rows[c].copy()  # the children's rows, without holding the other columns
    below, above = float(X[order[k], features[c]]), float(X[order[k + 1], features[c]])
    threshold = (below + above) / 2.0
    if not below <= threshold < above:
        threshold = below
    return c, threshold, int(pos_left[best]), int(n_left[best]), order[:k + 1], order[k + 1:]


class DecisionTree:
    """Binary CART classifier scoring P(positive) from leaf class fractions.

    Nodes are parallel arrays indexed by node id; feature -1 marks a leaf.
    """

    def __init__(self, max_features: int | None = None, min_samples_leaf: int = 1,
                 max_depth: int | None = None):
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.max_depth = max_depth

    def _set_nodes(self, nodes) -> None:
        table = np.array(nodes, dtype=float).reshape(-1, 5)
        self.feature = table[:, 0].astype(np.intp)
        self.threshold = table[:, 1]
        self.left = table[:, 2].astype(np.intp)
        self.right = table[:, 3].astype(np.intp)
        self.prob = table[:, 4]

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> "DecisionTree":
        return self._grow(X, _rank_keys(X), y, np.ones(len(X), dtype=np.int64), rng)

    def _grow(self, X: np.ndarray, keys: np.ndarray, y: np.ndarray, counts: np.ndarray,
              rng: np.random.Generator) -> "DecisionTree":
        """Grow on X, whose ranks are keys = _rank_keys(X); row i stands for
        counts[i] copies of itself, and rows with a zero count take no part."""
        d = len(keys)
        m = min(self.max_features or d, d)
        weights = counts << 32 | counts * y.astype(np.int64)
        total = int(weights.sum())
        nodes = []  # [feature, threshold, left, right, prob] per node id
        # (distinct rows, copies and positives among them, depth, parent
        # node id, is-left) processed LIFO so rng consumption follows a
        # fixed traversal order
        stack = [(counts.nonzero()[0], total >> 32, total & _LOW, 0, -1, False)]
        while stack:
            idx, size, pos, depth, parent, is_left = stack.pop()
            node_id = len(nodes)
            node = [-1, 0.0, -1, -1, pos / size]
            nodes.append(node)
            if parent >= 0:
                nodes[parent][2 if is_left else 3] = node_id

            pure = pos == 0 or pos == size
            too_small = size < 2 * self.min_samples_leaf
            too_deep = self.max_depth is not None and depth >= self.max_depth
            if pure or too_small or too_deep:
                continue

            features = np.sort(rng.choice(d, size=m, replace=False)) if m < d else np.arange(d)
            node_keys = (keys.take(features, axis=0) if m < d else keys).take(idx, axis=1)
            split = _split_search(node_keys, X, features, weights, size, pos,
                                  self.min_samples_leaf)
            if split is None:
                continue  # no sampled feature splits here: leaf
            col, threshold, pos_left, size_left, left, right = split
            node[0], node[1] = int(features[col]), threshold
            stack.append((right, size - size_left, pos - pos_left, depth + 1, node_id, False))
            stack.append((left, size_left, pos_left, depth + 1, node_id, True))
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
        table = np.array(data["nodes"], dtype=float)
        if table.ndim != 2 or table.shape[1] != 5 or not len(table):
            raise ValueError(f"tree nodes must be an (n, 5) table with n >= 1, "
                             f"got shape {table.shape}")
        ids = table[:, [0, 2, 3]]
        if not np.isfinite(table).all() or (ids != np.round(ids)).any():
            raise ValueError("tree nodes must be finite, with whole feature and child ids")
        tree = cls()
        tree._set_nodes(table)
        return tree

    def check(self, d: int) -> None:
        """Raise ValueError unless every walk over d features ends at a
        leaf: a split has a feature in [0, d) and both children numbered
        after itself (as ``_grow`` numbers them), a leaf has feature -1 and
        a probability in [0, 1]."""
        n = len(self.feature)
        ids = np.arange(n)
        leaf = self.feature == -1
        bad_leaf = leaf & ~((self.prob >= 0.0) & (self.prob <= 1.0))
        bad_split = ~leaf & ~(
            (self.feature >= 0) & (self.feature < d)
            & (self.left > ids) & (self.left < n) & (self.right > ids) & (self.right < n)
        )
        bad = (bad_leaf | bad_split).nonzero()[0]
        if not bad.size:
            return
        i = int(bad[0])
        if bad_leaf[i]:
            raise ValueError(f"node {i}: a leaf needs a probability in [0, 1], "
                             f"got {self.prob[i]}")
        raise ValueError(f"node {i}: a split needs a feature in [0, {d}) and children "
                         f"in ({i}, {n}), got feature {self.feature[i]}, children "
                         f"{self.left[i]} and {self.right[i]}")


def _at_least(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _require(ok: bool, name: str, rule: str, value) -> None:
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


class RandomForestModel:
    """Bootstrap ensemble of probability trees; score is the tree average."""

    kind = "random_forest"
    PARAMS = ("n_trees", "max_features", "min_samples_leaf", "max_depth")

    def __init__(self, n_trees: int = 100, max_features: str | int = "sqrt",
                 min_samples_leaf: int = 1, max_depth: int | None = None):
        _require(_at_least(n_trees, 1), "n_trees", "an int >= 1", n_trees)
        _require(max_features == "sqrt" or _at_least(max_features, 1),
                 "max_features", '"sqrt" or an int >= 1', max_features)
        _require(_at_least(min_samples_leaf, 1), "min_samples_leaf", "an int >= 1",
                 min_samples_leaf)
        _require(max_depth is None or _at_least(max_depth, 0), "max_depth",
                 "None or an int >= 0", max_depth)
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
        keys = _rank_keys(X)  # shared by every tree
        n, d = X.shape
        m = self._resolve_features(d)
        self.trees = []
        for seq in np.random.SeedSequence(seed).spawn(self.n_trees):
            rng = np.random.default_rng(seq)
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)  # the bootstrap
            tree = DecisionTree(m, self.min_samples_leaf, self.max_depth)
            self.trees.append(tree._grow(X, keys, y, counts, rng))
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
        out = {name: getattr(self, name) for name in self.PARAMS}
        out["trees"] = [t.to_dict() for t in self.trees]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RandomForestModel":
        model = cls(**{name: data[name] for name in cls.PARAMS})  # checks the parameters
        model.trees = [DecisionTree.from_dict(t) for t in data["trees"]]
        return model

    def check(self, d: int) -> None:
        """Raise ValueError unless every tree is a tree over d features."""
        for t, tree in enumerate(self.trees):
            try:
                tree.check(d)
            except ValueError as exc:
                raise ValueError(f"random_forest tree {t} {exc}") from None
