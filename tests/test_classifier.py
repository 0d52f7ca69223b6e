import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsforensics.classify import (
    MODEL_KINDS,
    FeatureEncoder,
    NewsClassifier,
    SplitSpec,
    auc_score,
    complete,
    compute_metrics,
    cross_validate,
    make_model,
    predict_profiles,
    rank_split_experiment,
    stratified_folds,
    train_classifier,
)
from newsforensics.classify.forest import (
    DecisionTree,
    RandomForestModel,
    _rank_keys,
    _split_search,
)
from newsforensics.classify.metrics import DECISION_THRESHOLD
from newsforensics.traffic import ProfileTable, TrafficProfile

from oracles import (
    auc_pairwise_reference,
    best_split_reference,
    class_metrics_reference,
    encode_reference,
    forest_reference,
    split_search_reference,
    stratified_folds_reference,
    tree_walk_reference,
)
from synth import permuted_labels, rank_banded_dataset, separable_dataset


@pytest.fixture(scope="module")
def dataset():
    return separable_dataset(n=200, seed=3)


class TestEncoder:
    def test_incomplete_profiles_dropped(self, dataset):
        broken = TrafficProfile("broken.com", "fake", bounce_rate=50.0)
        mask = complete(ProfileTable.of(dataset + [broken]))
        assert mask.tolist() == [True] * len(dataset) + [False]

    def test_constant_feature_dropped(self, dataset):
        pinned = []
        for p in dataset:
            values = vars(p).copy()
            values["src_mail"] = 3.0
            pinned.append(TrafficProfile(**values))
        enc = FeatureEncoder.fit(ProfileTable.of(pinned))
        assert "src_mail" in enc.dropped
        assert "src_mail" not in enc.columns

    def test_one_hot_vocabulary(self, dataset):
        enc = FeatureEncoder.fit(ProfileTable.of(dataset))
        countries = sorted({p.country for p in dataset})
        assert [c for c in enc.columns if c.startswith("country=")] == [
            f"country={c}" for c in countries
        ]

    def test_thirty_two_countries_make_thirty_two_columns(self, dataset):
        spread = []
        for i, p in enumerate(dataset[:64]):
            values = vars(p).copy()
            values["country"] = f"C{i % 32:02d}"
            spread.append(TrafficProfile(**values))
        enc = FeatureEncoder.fit(ProfileTable.of(spread))
        assert sum(1 for c in enc.columns if c.startswith("country=")) == 32

    def test_columns_sorted(self, dataset):
        enc = FeatureEncoder.fit(ProfileTable.of(dataset))
        assert enc.columns == sorted(enc.columns)

    def test_numeric_standardized(self, dataset):
        enc = FeatureEncoder.fit(ProfileTable.of(dataset))
        X = enc.transform(ProfileTable.of(dataset))
        j = enc.columns.index("bounce_rate")
        assert X[:, j].mean() == pytest.approx(0.0, abs=1e-9)
        assert X[:, j].std() == pytest.approx(1.0, abs=1e-9)

    def test_transform_one_missing_feature_errors(self, dataset):
        enc = FeatureEncoder.fit(ProfileTable.of(dataset))
        with pytest.raises(ValueError, match="country"):
            enc.transform_one(TrafficProfile("x.com", "fake", bounce_rate=50.0))

    def test_unknown_category_encodes_all_zeros(self, dataset):
        enc = FeatureEncoder.fit(ProfileTable.of(dataset))
        values = vars(dataset[0]).copy()
        values["country"] = "ZZ"
        row = enc.transform_one(TrafficProfile(**values))
        cols = [i for i, c in enumerate(enc.columns) if c.startswith("country=")]
        assert all(row[i] == 0.0 for i in cols)

    def test_roundtrip(self, dataset):
        enc = FeatureEncoder.fit(ProfileTable.of(dataset))
        back = FeatureEncoder.from_dict(json.loads(json.dumps(enc.to_dict())))
        rows = ProfileTable.of(dataset[:5])
        assert np.array_equal(back.transform(rows), enc.transform(rows))

    def test_transform_matches_row_reference(self, dataset):
        rng = np.random.default_rng(31)
        for trial in range(20):
            picked = rng.choice(len(dataset), size=int(rng.integers(2, 60)), replace=False)
            fitted = []
            for i in picked:
                values = vars(dataset[i]).copy()
                if trial % 2:
                    values["src_mail"] = 3.0  # constant numeric column: dropped
                if trial % 3 == 0:
                    values["category"] = "News"  # constant category: dropped
                fitted.append(TrafficProfile(**values))
            enc = FeatureEncoder.fit(ProfileTable.of(fitted))
            assert ("src_mail" in enc.dropped) == bool(trial % 2)
            assert ("category" in enc.dropped) == (trial % 3 == 0)
            scored = [dataset[i] for i in rng.choice(len(dataset), size=15)]
            values = vars(scored[0]).copy()
            values["country"] = "ZZ"  # unseen category value: all zeros
            scored.append(TrafficProfile(**values))
            expected = np.array([encode_reference(enc, p) for p in scored])
            assert np.array_equal(enc.transform(ProfileTable.of(scored)), expected)
            assert np.array_equal(enc.transform_one(scored[-1]), expected[-1])

    def test_transform_rejects_first_incomplete_profile(self, dataset):
        enc = FeatureEncoder.fit(ProfileTable.of(dataset))
        first = TrafficProfile("first.com", "fake", bounce_rate=50.0)
        second = TrafficProfile("second.com", "fake", country="US")
        with pytest.raises(ValueError) as expected:
            encode_reference(enc, first)
        with pytest.raises(ValueError) as err:
            enc.transform(ProfileTable.of(dataset[:3] + [first] + dataset[3:5] + [second]))
        assert str(err.value) == str(expected.value)

    def test_transform_of_no_profiles_is_empty(self, dataset):
        enc = FeatureEncoder.fit(ProfileTable.of(dataset))
        assert enc.transform(ProfileTable.of([])).shape == (0, enc.dimension)

    def test_all_dropped_errors(self):
        with pytest.raises(ValueError):
            FeatureEncoder.fit(
                ProfileTable.of([TrafficProfile("a.com", "fake", bounce_rate=1.0)] * 3)
            )


def xor_free_blob(n=120, seed=5):
    """Linearly separable two-feature set."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    # enforce a margin so every model kind separates it
    X[y == 1] += 1.0
    X[y == 0] -= 1.0
    return X, y


def _random_columns(rng, m, n):
    """(m, n) feature columns of one kind: normal, tied integers, one-hot
    0/1, a constant among normals, or signed zeros among integers."""
    kind = int(rng.integers(5))
    if kind == 0:
        return rng.normal(size=(m, n))
    if kind == 1:
        return rng.integers(0, int(rng.integers(1, 5)), size=(m, n)).astype(float)
    if kind == 2:
        return np.eye(m)[:, rng.integers(0, m, size=n)]
    cols = rng.normal(size=(m, n)) if kind == 3 else rng.integers(-2, 3, size=(m, n)) * 1.0
    cols[int(rng.integers(m))] = 2.0 if kind == 3 else np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return cols


def _search(cols, y, counts, min_leaf):
    """_split_search over a (features, rows) float matrix, its columns
    ranked by the module's rank helper: (column, threshold, positives
    left of the threshold), or None."""
    X = cols.T
    split = _split_search(_rank_keys(X), X, np.arange(len(cols)), counts << 32 | counts * y,
                          int(counts.sum()), int(counts @ y), min_leaf)
    return split and split[:3]


def _sha256(model_dict) -> str:
    return hashlib.sha256(json.dumps(model_dict).encode()).hexdigest()


class TestModels:
    @pytest.mark.parametrize("kind", ["random_forest", "logistic_regression", "naive_bayes", "mlp"])
    def test_separates_linear_blob(self, kind):
        X, y = xor_free_blob()
        params = {"n_trees": 25} if kind == "random_forest" else {}
        model = make_model(kind, **params).fit(X, y, seed=7)
        predicted = (model.score(X) >= 0.5).astype(int)
        accuracy = (predicted == y).mean()
        assert accuracy == 1.0, (kind, accuracy)

    @pytest.mark.parametrize("kind", ["random_forest", "logistic_regression", "naive_bayes", "mlp"])
    def test_deterministic_under_seed(self, kind):
        X, y = xor_free_blob()
        params = {"n_trees": 10} if kind == "random_forest" else {}
        a = make_model(kind, **params).fit(X, y, seed=11).score(X)
        b = make_model(kind, **params).fit(X, y, seed=11).score(X)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["random_forest", "logistic_regression", "naive_bayes", "mlp"])
    def test_json_roundtrip_preserves_scores(self, kind):
        X, y = xor_free_blob()
        params = {"n_trees": 5} if kind == "random_forest" else {}
        model = make_model(kind, **params).fit(X, y, seed=2)
        cls = type(model)
        back = cls.from_dict(json.loads(json.dumps(model.to_dict())))
        assert np.allclose(back.score(X), model.score(X), atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            make_model("svm")

    def test_forest_standardization_invariance(self):
        # tree splits are order statistics: affine feature scaling changes nothing
        rng = np.random.default_rng(13)
        X = rng.normal(size=(80, 4))
        y = rng.integers(0, 2, size=80)
        scaled = X * np.array([10.0, 0.5, 3.0, 100.0]) + np.array([5, -2, 0, 1])
        a = RandomForestModel(n_trees=15).fit(X, y, seed=3).score(X)
        b = RandomForestModel(n_trees=15).fit(scaled, y, seed=3).score(scaled)
        assert np.allclose(a, b)

    def test_single_tree_memorizes(self):
        X, y = xor_free_blob(n=40)
        tree = DecisionTree().fit(X, y, np.random.default_rng(0))
        assert np.array_equal((tree.predict_proba(X) >= 0.5).astype(int), y)

    def test_level_synchronous_walk_matches_row_walk(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n, d = int(rng.integers(4, 80)), int(rng.integers(1, 6))
            X = rng.integers(0, 6, size=(n, d)).astype(float)  # repeated values
            y = rng.integers(0, 2, size=n)
            tree = DecisionTree(
                max_features=int(rng.integers(1, d + 1)),
                min_samples_leaf=int(rng.integers(1, 4)),
            ).fit(X, y, rng)
            probe = rng.integers(-1, 7, size=(60, d)).astype(float)
            splits = np.flatnonzero(tree.feature >= 0)
            for k, node in enumerate(splits):
                # a row whose value equals the threshold must go left
                probe[k % len(probe), tree.feature[node]] = tree.threshold[node]
            assert np.array_equal(tree.predict_proba(probe), tree_walk_reference(tree, probe))

    def test_node_split_search_matches_per_feature_reference(self):
        rng = np.random.default_rng(29)
        found = 0
        for trial in range(600):
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 7))
            if trial % 5 == 0:
                X = rng.normal(size=(n, d))
            else:  # few distinct values: ties within and across columns
                X = rng.integers(0, int(rng.integers(1, 5)), size=(n, d)).astype(float)
            if trial % 3 == 0:
                X[:, int(rng.integers(d))] = 2.0  # a constant column
            y = rng.integers(0, 2, size=n)
            features = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
            min_leaf = int(rng.integers(1, 5))
            columns = np.sort(features)
            split = _search(X[:, columns].T, y, np.ones(n, dtype=int), min_leaf)
            if split is not None:  # the left positives are checked in the next test
                split = (int(columns[split[0]]), float(split[1]))
                found += 1
            assert split == best_split_reference(X, y, features, min_leaf), trial
        assert 0 < found < 600  # both outcomes exercised

    def test_node_split_search_matches_stable_sort_reference(self):
        rng = np.random.default_rng(31)
        found = small = 0
        for trial in range(800):
            n, m = int(rng.integers(1, 50)), int(rng.integers(1, 6))
            cols = _random_columns(rng, m, n)
            y = rng.integers(0, 2, size=n)
            min_leaf = int(rng.integers(1, 5))
            small += n < 2 * min_leaf
            split = _search(cols, y, np.ones(n, dtype=int), min_leaf)
            expect = split_search_reference(cols, y, min_leaf)
            if split is None:
                assert expect is None, trial
                continue
            found += 1
            col, threshold, pos_left = split
            assert (col, float(threshold)) == expect, trial
            assert pos_left == y[cols[col] <= threshold].sum(), trial
        assert found > 300 and small > 50

    def test_forest_json_matches_stable_sort_reference(self):
        rng = np.random.default_rng(37)
        for trial in range(96):
            n, d = int(rng.integers(2, 90)), int(rng.integers(2, 8))
            X = _random_columns(rng, d, n).T.copy()
            y = rng.integers(0, 2, size=n)
            params = {
                "n_trees": int(rng.integers(1, 4)),
                "max_features": ["sqrt", 1, d, d - 1][trial % 4],
                "min_samples_leaf": 1 + trial // 4 % 4,
                "max_depth": [None, 0, 2, 5][trial // 16 % 4],
            }
            model = RandomForestModel(**params).fit(X, y, seed=trial)
            expect = forest_reference(X, y, trial, **params)
            assert _sha256(model.to_dict()) == _sha256(expect), (trial, params)

    def test_counted_split_search_matches_reference_on_the_copies(self):
        # a row with count c stands for c copies: the search must pick the
        # split the reference picks on the matrix with the copies written out
        rng = np.random.default_rng(41)
        found = 0
        for trial in range(600):
            n, m = int(rng.integers(1, 16)), int(rng.integers(1, 5))
            cols = _random_columns(rng, m, n)
            y = rng.integers(0, 2, size=n)
            counts = rng.integers(1, 5, size=n)
            min_leaf = int(rng.integers(1, 6))
            split = _search(cols, y, counts, min_leaf)
            copies = np.repeat(cols, counts, axis=1), np.repeat(y, counts)
            expect = split_search_reference(*copies, min_leaf)
            if split is None:
                assert expect is None, trial
                continue
            found += 1
            col, threshold, pos_left = split
            assert (col, float(threshold)) == expect, trial
            assert pos_left == copies[1][copies[0][col] <= threshold].sum(), trial
        assert found > 200

    def test_duplicate_heavy_forest_json_matches_reference(self):
        # ~12 rows, so each bootstrap draws most rows several times and node
        # sizes in copies straddle min_samples_leaf where distinct rows do not
        rng = np.random.default_rng(43)
        for trial in range(48):
            n, d = int(rng.integers(8, 16)), int(rng.integers(2, 6))
            X = rng.integers(0, int(rng.integers(2, 5)), size=(n, d)).astype(float)
            y = rng.integers(0, 2, size=n)
            params = {"n_trees": 4, "max_features": [d, "sqrt"][trial % 2],
                      "min_samples_leaf": 2 + trial // 2 % 3, "max_depth": None}
            model = RandomForestModel(**params).fit(X, y, seed=trial)
            expect = forest_reference(X, y, trial, **params)
            assert _sha256(model.to_dict()) == _sha256(expect), (trial, params)

    @pytest.mark.parametrize("n", [16, 17, 64, 65, 128, 129])
    def test_forest_json_matches_reference_at_power_of_two_row_counts(self, n):
        rng = np.random.default_rng(n)
        X = np.column_stack([rng.normal(size=n), rng.integers(0, 3, size=n)])
        y = rng.integers(0, 2, size=n)
        for params in ({"max_features": 2, "min_samples_leaf": 1}, {"max_features": 1,
                                                                    "min_samples_leaf": 3}):
            params |= {"n_trees": 3, "max_depth": None}
            model = RandomForestModel(**params).fit(X, y, seed=n)
            assert _sha256(model.to_dict()) == _sha256(forest_reference(X, y, n, **params))

    def test_signed_zeros_are_one_value_below_the_next(self):
        X = np.array([[-0.0], [0.0], [1.0], [-0.0], [0.0], [1.0]])
        y = np.array([0, 0, 1, 0, 0, 1])
        tree = DecisionTree().fit(X, y, np.random.default_rng(0))
        assert tree.to_dict()["nodes"] == [[0, 0.5, 1, 2, 1 / 3], [-1, 0.0, -1, -1, 0.0],
                                           [-1, 0.0, -1, -1, 1.0]]
        ranks = _rank_keys(X)[0] >> 32
        assert ranks.tolist() == [0, 0, 1, 0, 0, 1]

    def test_constant_column_never_splits(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.full(60, 3.0), rng.normal(size=60)])
        y = (X[:, 1] > 0.2).astype(int)
        params = {"n_trees": 4, "max_features": 1, "min_samples_leaf": 1, "max_depth": None}
        model = RandomForestModel(**params).fit(X, y, seed=5)
        assert all(0 not in tree.feature for tree in model.trees)
        assert _sha256(model.to_dict()) == _sha256(forest_reference(X, y, 5, **params))

    def test_one_row_drawn_n_times_is_a_leaf(self):
        X = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        y = np.array([0, 1, 0])
        tree = DecisionTree()._grow(X, _rank_keys(X), y, np.array([0, 3, 0]),
                                    np.random.default_rng(0))
        assert tree.to_dict()["nodes"] == [[-1, 0.0, -1, -1, 1.0]]
        same = np.repeat(X[:1], 5, axis=0), np.array([0, 1, 1, 0, 1])
        params = {"n_trees": 3, "max_features": "sqrt", "min_samples_leaf": 1,
                  "max_depth": None}
        model = RandomForestModel(**params).fit(*same, seed=3)
        assert _sha256(model.to_dict()) == _sha256(forest_reference(*same, 3, **params))
        assert all(len(tree.feature) == 1 for tree in model.trees)

    def test_few_distinct_rows_with_min_samples_leaf_match_reference(self):
        # 150 rows that repeat 6 distinct ones: node sizes in copies cross
        # min_samples_leaf far from where the distinct rows would
        rng = np.random.default_rng(47)
        for trial in range(12):
            distinct = rng.integers(0, 4, size=(6, 3)).astype(float)
            pick = rng.integers(0, 6, size=150)
            X, y = distinct[pick], (rng.random(150) < 0.2 + 0.1 * pick).astype(int)
            params = {"n_trees": 3, "max_features": [3, "sqrt"][trial % 2],
                      "min_samples_leaf": 2 + trial % 6, "max_depth": None}
            model = RandomForestModel(**params).fit(X, y, seed=trial)
            expect = forest_reference(X, y, trial, **params)
            assert _sha256(model.to_dict()) == _sha256(expect), (trial, params)

    def test_overlap_forest_json_matches_reference(self):
        # labels from x0 + x1 + noise overlap, so trees grow deep
        rng = np.random.default_rng(53)
        X = rng.normal(size=(300, 6))
        y = (X[:, 0] + X[:, 1] + rng.normal(size=300) > 0).astype(int)
        params = {"n_trees": 3, "max_features": "sqrt", "min_samples_leaf": 1,
                  "max_depth": None}
        model = RandomForestModel(**params).fit(X, y, seed=53)
        assert np.mean([len(tree.feature) for tree in model.trees]) > 60
        assert _sha256(model.to_dict()) == _sha256(forest_reference(X, y, 53, **params))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_small_tied_matrices_match_reference(self, data):
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 3))
        cells = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])
        X = np.array(data.draw(st.lists(cells, min_size=n * d, max_size=n * d))).reshape(n, d)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        params = {"n_trees": 2, "max_features": data.draw(st.sampled_from(["sqrt", 1, d])),
                  "min_samples_leaf": data.draw(st.integers(1, 3)),
                  "max_depth": data.draw(st.sampled_from([None, 1]))}
        seed = data.draw(st.integers(0, 2**16))
        model = RandomForestModel(**params).fit(X, y, seed=seed)
        assert _sha256(model.to_dict()) == _sha256(forest_reference(X, y, seed, **params))
        split = _search(X.T.copy(), y, np.ones(n, dtype=np.int64), params["min_samples_leaf"])
        expect = split_search_reference(X.T, y, params["min_samples_leaf"])
        assert (split and split[:2]) == expect

    def test_fit_rejects_two_to_the_31_rows_before_reading_them(self):
        X = np.lib.stride_tricks.as_strided(np.zeros(1), shape=(2**31, 1), strides=(0, 8))
        y = np.lib.stride_tricks.as_strided(np.zeros(1, dtype=int), shape=(2**31,),
                                            strides=(0,))
        with pytest.raises(ValueError, match=r"fewer than 2\*\*31 rows, got 2147483648"):
            RandomForestModel(n_trees=1).fit(X, y, seed=0)

    def test_midpoint_rounding_onto_upper_value_splits_below_it(self):
        # (a + b) / 2 rounds to b for these neighbouring doubles; a split at
        # b would send every row left and leave the right child empty, so
        # max_depth bounds the tree should that threshold come back
        a, b = 1 + 2.0**-52, 1 + 2.0**-51
        X, y = np.array([[a], [b], [b]]), np.array([0, 1, 1])
        tree = DecisionTree(max_depth=3).fit(X, y, np.random.default_rng(0))
        assert tree.to_dict()["nodes"] == [[0, a, 1, 2, 2 / 3], [-1, 0.0, -1, -1, 0.0],
                                           [-1, 0.0, -1, -1, 1.0]]

    def test_huge_values_split_without_overflow(self):
        # the sum overflows to inf; max_depth bounds the tree should that
        # threshold come back and send every row left again
        X, y = np.array([[1e308], [1.5e308]]), np.array([0, 1])
        tree = DecisionTree(max_depth=3).fit(X, y, np.random.default_rng(0))
        assert tree.threshold[0] == 1e308
        assert np.array_equal(tree.predict_proba(X), y)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_forest_rejects_non_finite_features(self, value):
        X, y = xor_free_blob(n=20)
        X[3, 1] = value
        with pytest.raises(ValueError, match="finite"):
            RandomForestModel(n_trees=5).fit(X, y, seed=1)

    @pytest.mark.parametrize("name,value", [
        ("n_trees", 0), ("n_trees", 2.5), ("max_features", 0), ("max_features", -1),
        ("max_features", "log2"), ("max_features", True), ("min_samples_leaf", 0),
        ("max_depth", -1), ("max_depth", 1.5),
    ])
    def test_forest_rejects_bad_parameters(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            RandomForestModel(**{name: value})
        saved = RandomForestModel(n_trees=1).to_dict() | {name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            RandomForestModel.from_dict(saved)

    @pytest.mark.parametrize("X,y", [
        (np.arange(12.0).reshape(6, 2), np.ones(6, dtype=int)),  # pure node
        (np.ones((6, 2)), np.array([0, 1, 0, 1, 1, 0])),  # constant features
    ])
    def test_single_leaf_tree_scores_its_fraction(self, X, y):
        tree = DecisionTree().fit(X, y, np.random.default_rng(0))
        assert len(tree.feature) == 1
        probe = np.array([[-5.0, 0.0], [1.0, 1.0], [50.0, 50.0]])
        assert np.array_equal(tree.predict_proba(probe), np.full(3, y.mean()))
        assert np.array_equal(tree.predict_proba(probe), tree_walk_reference(tree, probe))

    def test_tree_json_keeps_node_layout(self):
        X, y = xor_free_blob(n=40)
        tree = DecisionTree().fit(X, y, np.random.default_rng(0))
        nodes = json.loads(json.dumps(tree.to_dict()))["nodes"]
        assert all(
            [type(v) for v in node] == [int, float, int, int, float] for node in nodes
        )
        back = DecisionTree.from_dict({"nodes": nodes})
        assert back.to_dict() == tree.to_dict()

    def test_unfitted_score_errors(self):
        with pytest.raises(ValueError, match="not fitted"):
            make_model("random_forest").score(np.zeros((1, 2)))

    # sha256 of the sorted-key JSON each kind saves after one seeded fit; the
    # forest's saved bytes are pinned by the golden record instead
    SAVED_JSON_SHA256 = {
        "logistic_regression": "214d1ebe62c4a699fec549d00fe7ea9c7be0320d48efb901000eec4a354fe85c",
        "naive_bayes": "edc3dd82c34e6709a64ef6207fe70d5e4f347ec4d27e3d252077643fb83c6052",
        "mlp": "d2629e7c8d56d3f88a87b748559603bee99e56e37b588cf355c2416ee428cc43",
    }

    @pytest.mark.parametrize("kind", sorted(SAVED_JSON_SHA256))
    def test_saved_json_is_pinned(self, kind):
        X, y = xor_free_blob(n=60, seed=17)
        model = make_model(kind).fit(X, y, seed=13)
        text = json.dumps(model.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SAVED_JSON_SHA256[kind]


class TestComputeMetrics:
    def scores_for(self, tp, fp, fn, tn):
        scores = [0.9] * tp + [0.9] * fp + [0.1] * fn + [0.1] * tn
        labels = [1] * tp + [0] * fp + [1] * fn + [0] * tn
        return np.array(scores), np.array(labels)

    def test_balanced_90(self):
        scores, labels = self.scores_for(tp=45, fp=5, fn=5, tn=45)
        report = compute_metrics(scores, labels)
        assert report.per_class["fake"].precision == pytest.approx(0.9)
        assert report.per_class["fake"].recall == pytest.approx(0.9)
        assert report.per_class["fake"].f1 == pytest.approx(0.9)
        assert report.precision == pytest.approx(0.9)
        assert report.f1 == pytest.approx(0.9)

    @pytest.mark.parametrize(
        "tp,fp,fn,tn,expect",
        [
            # hand-computed: precision_f, recall_f, weighted_f1
            (45, 5, 5, 45, (0.9, 0.9, 0.9)),
            # f1_fake = 8/9, f1_real = 10/11, weighted = (8*8/9 + 12*10/11)/20
            (8, 2, 0, 10, (0.8, 1.0, 446 / 495)),
            (10, 0, 0, 10, (1.0, 1.0, 1.0)),
            # fake all missed: f1_fake = 0; f1_real = 2/3; weighted = 1/3
            (0, 0, 10, 10, (0.0, 0.0, 1 / 3)),
            # f1_fake = 0.8 (sup 35), f1_real = 0.88 (sup 65): weighted 0.852
            (30, 10, 5, 55, (0.75, 6 / 7, 0.852)),
        ],
    )
    def test_confusion_fixtures(self, tp, fp, fn, tn, expect):
        scores, labels = self.scores_for(tp, fp, fn, tn)
        report = compute_metrics(scores, labels)
        precision_f, recall_f, weighted_f1 = expect
        assert report.confusion == {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
        assert report.per_class["fake"].precision == pytest.approx(precision_f)
        assert report.per_class["fake"].recall == pytest.approx(recall_f)
        assert report.f1 == pytest.approx(weighted_f1)

    def test_tp_rate_is_positive_class_recall(self):
        scores, labels = self.scores_for(tp=8, fp=2, fn=4, tn=6)
        report = compute_metrics(scores, labels)
        assert report.per_class["fake"].tp_rate == report.per_class["fake"].recall

    def test_weighted_equals_support_weighted_mean(self):
        scores, labels = self.scores_for(tp=30, fp=10, fn=5, tn=55)
        report = compute_metrics(scores, labels)
        fake, real = report.per_class["fake"], report.per_class["real"]
        n = fake.support + real.support
        for attr in ("precision", "recall", "f1", "tp_rate", "fp_rate"):
            expected = (
                getattr(fake, attr) * fake.support + getattr(real, attr) * real.support
            ) / n
            assert getattr(report, attr) == pytest.approx(expected), attr

    def test_constant_scores_auc_half(self):
        labels = np.array([1, 0, 1, 0, 1])
        report = compute_metrics(np.full(5, 0.5), labels)
        assert report.auc == pytest.approx(0.5)

    def test_perfect_separation_auc_one(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert compute_metrics(scores, labels).auc == pytest.approx(1.0)

    def test_single_class_auc_none(self):
        report = compute_metrics(np.array([0.9, 0.1]), np.array([1, 1]))
        assert report.auc is None
        assert report.per_class["fake"].recall == 0.5

    def test_auc_monotone_transform_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            scores = rng.uniform(size=30)
            labels = rng.integers(0, 2, size=30)
            if labels.min() == labels.max():
                continue
            base = auc_score(scores, labels)
            assert auc_score(np.exp(3 * scores), labels) == pytest.approx(base)
            assert auc_score(scores**3 + 7, labels) == pytest.approx(base)

    def test_auc_matches_pairwise_reference(self):
        rng = np.random.default_rng(29)
        for trial in range(200):
            n = int(rng.integers(2, 80))
            if trial % 2:
                scores = rng.integers(0, int(rng.integers(1, 8)), size=n) / 4.0  # many ties
            else:
                scores = rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            assert auc_score(scores, labels) == auc_pairwise_reference(scores, labels)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(np.array([0.5]), np.array([1, 0]))

    def test_per_class_metrics_match_reference(self):
        rng = np.random.default_rng(47)
        for trial in range(300):
            # counts of 0 leave some denominators empty
            tp, fp, fn, tn = (int(c) for c in rng.integers(0, 4 if trial % 2 else 60, size=4))
            if tp + fp + fn + tn == 0:
                continue
            scores, labels = self.scores_for(tp, fp, fn, tn)
            per_class = compute_metrics(scores, labels).per_class
            assert per_class == class_metrics_reference(tp, fp, fn, tn), (tp, fp, fn, tn)

    def test_report_json_is_pinned(self):
        # tied scores, a fold of one class (no AUC) and a fold with no fake
        # predictions, so zero denominators and None values are written too
        rng = np.random.default_rng(43)
        scores = rng.integers(0, 20, size=60) / 20
        labels = rng.integers(0, 2, size=60)
        report = compute_metrics(scores, labels)
        report.folds = [compute_metrics(scores[i::3], labels[i::3]) for i in range(3)]
        report.folds.append(compute_metrics(scores[:5], np.ones(5, dtype=int)))
        report.folds.append(compute_metrics(np.full(4, 0.25), np.array([0, 1, 0, 1])))
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8c85089d1b3b10286df445c5ab895727cf7392f3db7f21684a4f9bf7c33ebfd4")


class TestStratifiedFolds:
    def test_partition(self):
        labels = np.array([0, 1] * 25)
        folds = stratified_folds(labels, k=10, seed=4)
        all_idx = sorted(i for fold in folds for i in fold)
        assert all_idx == list(range(50))

    def test_stratification(self):
        labels = np.array([0] * 40 + [1] * 20)
        for fold in stratified_folds(labels, k=10, seed=4):
            fold_labels = labels[fold]
            assert (fold_labels == 0).sum() == 4
            assert (fold_labels == 1).sum() == 2

    def test_reproducible(self):
        labels = np.array([0, 1] * 30)
        a = stratified_folds(labels, k=5, seed=9)
        b = stratified_folds(labels, k=5, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_small_class_falls_back(self, caplog):
        labels = np.array([0] * 30 + [1] * 3)
        with caplog.at_level("WARNING"):
            folds = stratified_folds(labels, k=10, seed=0)
        assert "falling back" in caplog.text
        assert sorted(i for f in folds for i in f) == list(range(33))

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            stratified_folds(np.array([0, 1, 0]), k=4, seed=0)

    def test_matches_two_branch_reference(self):
        rng = np.random.default_rng(53)
        paths = set()
        for seed in range(400):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(k, 60))
            labels = (rng.random(n) < rng.uniform(0.02, 0.98)).astype(int)
            paths.add(min(int((labels == c).sum()) for c in (0, 1)) < k)
            got = stratified_folds(labels, k, seed)
            expect = stratified_folds_reference(labels, k, seed)
            assert [f.tolist() for f in got] == [f.tolist() for f in expect], (seed, k)
        assert paths == {False, True}


class TestCrossValidate:
    def test_separable_dataset_high_f1(self, dataset):
        report = cross_validate("random_forest", ProfileTable.of(dataset), k=10, seed=42,
                                n_trees=50)
        assert report.f1 >= 0.95
        assert len(report.folds) == 10

    def test_deterministic_reports(self, dataset):
        a = cross_validate("random_forest", ProfileTable.of(dataset), k=5, seed=8, n_trees=20)
        b = cross_validate("random_forest", ProfileTable.of(dataset), k=5, seed=8, n_trees=20)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_permutation_null_auc_near_half(self, dataset):
        shuffled = ProfileTable.of(permuted_labels(dataset, seed=21))
        report = cross_validate(
            "random_forest", shuffled, k=5, seed=5, n_trees=20, min_samples_leaf=5
        )
        assert 0.4 <= report.auc <= 0.6

    def test_single_class_rejected(self):
        rows = ProfileTable.of([p for p in separable_dataset(40, seed=2) if p.label == "fake"])
        with pytest.raises(ValueError, match="per class"):
            cross_validate("random_forest", rows, k=2, seed=0)


class TestSplitSpec:
    def test_parse(self):
        spec = SplitSpec.parse("rank>10000|rank<=10000")
        assert str(spec.train) == "rank>10000"
        assert str(spec.test) == "rank<=10000"

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec.parse("rank>10000")
        with pytest.raises(ValueError):
            SplitSpec.parse("visits>10|rank<10")

    def test_predicate_requires_rank(self):
        spec = SplitSpec.parse("rank>10|rank<=10")
        rows = ProfileTable.of([TrafficProfile("a.com", "fake", global_rank=None),
                                TrafficProfile("b.com", "fake", global_rank=11)])
        assert spec.train(rows).tolist() == [False, True]
        assert spec.test(rows).tolist() == [False, False]


class TestRankSplit:
    def test_disjoint_and_generalizes(self):
        rows = ProfileTable.of(rank_banded_dataset(n=400, seed=6))
        spec = SplitSpec.parse("rank>10000|rank<10000")
        report = rank_split_experiment(rows, spec, "random_forest", seed=3, n_trees=50)
        assert report.f1 >= 0.9

    def test_overlapping_predicates_rejected(self):
        rows = ProfileTable.of(rank_banded_dataset(n=100, seed=6))
        spec = SplitSpec.parse("rank>5|rank>10")
        with pytest.raises(ValueError, match="overlap"):
            rank_split_experiment(rows, spec, "random_forest", seed=0, n_trees=5)

    def test_empty_side_names_predicate(self):
        rows = ProfileTable.of(rank_banded_dataset(n=100, seed=6))
        spec = SplitSpec.parse("rank>2000000|rank<10000")
        with pytest.raises(ValueError, match="rank>2000000"):
            rank_split_experiment(rows, spec, "random_forest", seed=0, n_trees=5)


class TestTrainPredict:
    def test_memorizes_training_example(self, dataset):
        clf = train_classifier("random_forest", ProfileTable.of(dataset), seed=1, n_trees=30)
        fake_example = ProfileTable.of([next(p for p in dataset if p.label == "fake")])
        [(site, label, score)] = predict_profiles(clf, fake_example)
        assert site == fake_example["site"][0]
        assert label == "fake" and score > 0.5
        assert score == clf.score(fake_example)[0]

    def test_no_complete_profile_rejected(self):
        with pytest.raises(ValueError, match="per class"):
            train_classifier("random_forest",
                             ProfileTable.of([TrafficProfile("x.com", "fake", bounce_rate=1.0)]))

    def test_predict_missing_feature_lists_fields(self, dataset):
        clf = train_classifier("random_forest", ProfileTable.of(dataset), seed=1, n_trees=5)
        incomplete = TrafficProfile("x.com", "fake", bounce_rate=80.0)
        with pytest.raises(ValueError) as err:
            predict_profiles(clf, ProfileTable.of([incomplete]))
        assert "global_rank" in str(err.value) and "country" in str(err.value)

    def test_batch_predict_order_equivariant(self, dataset):
        clf = train_classifier("random_forest", ProfileTable.of(dataset), seed=1, n_trees=10)
        sample = dataset[:10]
        forward = predict_profiles(clf, ProfileTable.of(sample))
        backward = predict_profiles(clf, ProfileTable.of(reversed(sample)))
        assert forward == list(reversed(backward))
        assert predict_profiles(clf, ProfileTable.of([])) == []

    def test_save_load_identical_predictions(self, dataset, tmp_path):
        clf = train_classifier("mlp", ProfileTable.of(dataset), seed=5)
        path = tmp_path / "model.json"
        clf.save(path)
        back = NewsClassifier.load(path)
        rows = ProfileTable.of(dataset[:5])
        assert np.array_equal(back.score(rows), clf.score(rows))
        assert predict_profiles(back, rows) == predict_profiles(clf, rows)

    @pytest.mark.parametrize("kind", list(MODEL_KINDS))
    def test_saved_kind_is_the_model_kind(self, kind, tmp_path):
        params = {"n_trees": 3} if kind == "random_forest" else {}
        rows = ProfileTable.of(separable_dataset(30, seed=9))
        clf = train_classifier(kind, rows, seed=0, **params)
        path = tmp_path / "model.json"
        clf.save(path)
        assert json.loads(path.read_text())["kind"] == kind == clf.model.kind
        back = NewsClassifier.load(path)
        assert type(back.model) is MODEL_KINDS[kind]
        assert np.array_equal(back.score(rows), clf.score(rows))

    def test_unknown_kind_in_model_file_rejected(self):
        rows = ProfileTable.of(separable_dataset(30, seed=9))
        doc = train_classifier("naive_bayes", rows, seed=0).to_dict()
        doc["kind"] = "svm"
        with pytest.raises(ValueError, match="unknown model kind 'svm'"):
            NewsClassifier.from_dict(doc)

    def test_score_at_threshold_is_labelled_fake(self, dataset):
        class FixedScores:
            def score(self, profiles):
                return np.array([DECISION_THRESHOLD, np.nextafter(DECISION_THRESHOLD, 0.0)])

        predicted = predict_profiles(FixedScores(), ProfileTable.of(dataset[:2]))
        assert [label for _, label, _ in predicted] == ["fake", "real"]
        report = compute_metrics([DECISION_THRESHOLD, np.nextafter(DECISION_THRESHOLD, 0.0)],
                                 [1, 0])
        assert report.confusion == {"tp": 1, "fp": 0, "tn": 1, "fn": 0}

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"\xff", ":1: 'utf-8' codec can't decode byte 0xff"),
            (b"not json", ": Expecting value: line 1 column 1"),
            (b"[]", ": not an object: list"),
            (b'{"format_version": 1, "kind": "naive_bayes"}', ": missing key 'model'"),
        ],
        ids=["not-utf8", "not-json", "not-object", "no-model"],
    )
    def test_load_names_the_file(self, tmp_path, content, reason):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ValueError) as err:
            NewsClassifier.load(path)
        assert str(err.value).startswith(f"{path}{reason}")

    def test_version_checked(self, tmp_path):
        clf = train_classifier("naive_bayes", ProfileTable.of(separable_dataset(30, seed=9)), seed=0)
        doc = clf.to_dict()
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            NewsClassifier.from_dict(doc)

    def set_node(tree: int, node: int, column: int, value):
        def edit(model, d):
            model["trees"][tree]["nodes"][node][column] = d if value == "d" else value
        return edit

    # (kind, edit of the saved model dict given the encoded dimension d,
    # start of the reason)
    DAMAGE = {
        "nb-means-of-one-feature": (
            "naive_bayes", lambda m, d: m.update(means=[[1.0], [2.0]]),
            "naive_bayes means must have shape (2, {d}) for {d} encoded features, got (2, 1)"),
        "nb-means-of-text": (
            "naive_bayes", lambda m, d: m.update(means="abc"),
            "could not convert string to float: 'abc'"),
        "lr-without-intercept": (
            "logistic_regression", lambda m, d: m.update(weights=m["weights"][:-1]),
            "logistic_regression weights must have shape ({d1},) for {d} encoded features, "
            "got ({d},)"),
        "mlp-short-w1": (
            "mlp", lambda m, d: m.update(w1=m["w1"][:-1]),
            "mlp w1 must have shape ({d}, 45) for {d} encoded features, got ({d_1}, 45)"),
        "mlp-scalar-b2": (
            "mlp", lambda m, d: m.update(b2=0.0),
            "mlp b2 must have shape (2,) for {d} encoded features, got ()"),
        "forest-root-is-its-own-child": (
            "random_forest", set_node(0, 0, 2, 0),
            "random_forest tree 0 node 0: a split needs a feature in [0, {d}) and children in (0, "),
        "forest-feature-out-of-range": (
            "random_forest", set_node(1, 0, 0, "d"),
            "random_forest tree 1 node 0: a split needs a feature in [0, {d})"),
        "forest-leaf-probability": (
            "random_forest", set_node(0, -1, 4, 1.5),  # the last node is always a leaf
            "random_forest tree 0 node "),
        "forest-fractional-child": (
            "random_forest", set_node(0, 0, 3, 1.5),
            "tree nodes must be finite, with whole feature and child ids"),
        "forest-infinite-threshold": (
            "random_forest", set_node(0, 0, 1, float("inf")),
            "tree nodes must be finite, with whole feature and child ids"),
        "forest-flat-nodes": (
            "random_forest", lambda m, d: m["trees"][0].update(nodes=[0.0] * 10),
            "tree nodes must be an (n, 5) table with n >= 1, got shape (10,)"),
    }

    @pytest.mark.parametrize("kind,edit,reason", DAMAGE.values(), ids=DAMAGE.keys())
    def test_damaged_model_rejected_on_load(self, kind, edit, reason, tmp_path):
        params = {"n_trees": 3} if kind == "random_forest" else {}
        doc = train_classifier(kind, ProfileTable.of(separable_dataset(30, seed=9)), seed=0,
                               **params).to_dict()
        d = len(doc["encoder"]["columns"])
        if kind == "random_forest":
            assert all(tree["nodes"][0][0] >= 0 for tree in doc["model"]["trees"])  # roots split
        edit(doc["model"], d)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            NewsClassifier.load(path)
        assert str(err.value).startswith(f"{path}: " + reason.format(d=d, d1=d + 1, d_1=d - 1))

    # (edit of a saved naive-Bayes encoder, start of the reason); the first
    # numeric column is bounce_rate
    ENCODER_DAMAGE = {
        "std-of-zero": (lambda e: e["stds"].update(bounce_rate=0.0),
                        "encoder column 'bounce_rate' has no finite std above 0"),
        "std-of-infinity": (lambda e: e["stds"].update(bounce_rate=float("inf")),
                            "encoder column 'bounce_rate' has no finite std above 0"),
        "mean-deleted": (lambda e: e["means"].pop("bounce_rate"),
                         "encoder column 'bounce_rate' has no finite mean"),
        "mean-of-text": (lambda e: e["means"].update(bounce_rate="1.0"),
                         "encoder column 'bounce_rate' has no finite mean"),
        "mean-of-nan": (lambda e: e["means"].update(bounce_rate=float("nan")),
                        "encoder column 'bounce_rate' has no finite mean"),
        "unknown-feature": (lambda e: e["columns"].append("visits"),
                            "encoder column 'visits' is not a feature"),
        "value-not-in-vocab": (lambda e: e["vocab"]["country"].remove("US"),
                               "encoder column 'country=US' is not in its vocab"),
        "columns-not-strings": (lambda e: e.update(columns=[1, 2]),
                                "'columns' is not a list of strings"),
        "dropped-not-a-list": (lambda e: e.update(dropped="global_rank"),
                               "'dropped' is not a list"),
        "vocab-deleted": (lambda e: e.pop("vocab"), "missing key 'vocab'"),
    }

    @pytest.mark.parametrize("edit,reason", ENCODER_DAMAGE.values(), ids=ENCODER_DAMAGE.keys())
    def test_damaged_encoder_rejected_on_load(self, edit, reason, tmp_path):
        doc = train_classifier("naive_bayes", ProfileTable.of(separable_dataset(30, seed=9)),
                               seed=0).to_dict()
        assert doc["encoder"]["columns"][0] == "bounce_rate"
        assert "country=US" in doc["encoder"]["columns"]
        edit(doc["encoder"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            NewsClassifier.load(path)
        assert str(err.value).startswith(f"{path}: {reason}")
