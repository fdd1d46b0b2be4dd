import numpy as np
import pytest

from widetrack.forest import (
    ForestError,
    ForestFormatError,
    ForestModel,
    ForestParams,
    Tree,
    feature_importance,
    load_model,
    oob_predict,
    predict,
    save_model,
    train,
)


def leaf_tree(c0, c1):
    return Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        counts=np.array([[c0, c1]], dtype=np.int64),
    )


def xor_data(reps=8):
    corners = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    X = np.array([(a, b) for a, b, _ in corners for _ in range(reps)], dtype=float)
    y = np.array([lab for _, _, lab in corners for _ in range(reps)])
    return X, y


class TestTrainValidation:
    def test_single_class_rejected(self):
        with pytest.raises(ForestError, match="single class"):
            train(np.array([[1.0], [2.0]]), np.array([1, 1]), ForestParams(n_trees=1))

    def test_non_finite_value_named(self):
        X = np.array([[1.0, 2.0], [3.0, np.nan]])
        with pytest.raises(ForestError, match="row 1, column 1"):
            train(X, np.array([0, 1]), ForestParams(n_trees=1))

    def test_length_mismatch(self):
        with pytest.raises(ForestError):
            train(np.zeros((3, 2)), np.array([0, 1]), ForestParams(n_trees=1))

    def test_mtry_bounds(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ForestError):
            train(X, np.array([0, 1]), ForestParams(n_trees=1, mtry=3))
        with pytest.raises(ForestError):
            train(X, np.array([0, 1]), ForestParams(n_trees=1, mtry=0))

    def test_bad_labels_rejected(self):
        with pytest.raises(ForestError):
            train(np.zeros((2, 1)), np.array([0, 2]), ForestParams(n_trees=1))


class TestThresholdData:
    """1 feature, class = (x > 5), values {1, 2, 8, 9}."""

    def setup_method(self):
        self.X = np.array([[1.0], [2.0], [8.0], [9.0]])
        self.y = np.array([0, 0, 1, 1])
        self.model = train(self.X, self.y, ForestParams(n_trees=50, seed=3))

    def test_training_accuracy_is_perfect(self):
        labels, _ = predict(self.model, self.X)
        assert np.array_equal(labels, self.y)

    def test_every_split_lands_between_the_classes(self):
        found_split = False
        for tree in self.model.trees:
            for i in range(len(tree.feature)):
                if tree.feature[i] >= 0:
                    found_split = True
                    assert 2.0 < tree.threshold[i] < 8.0
        assert found_split

    def test_per_tree_bootstrap_accuracy(self):
        for tree, sample in zip(self.model.trees, self.model.in_bag):
            for row, vote in zip(sample, tree.vote(self.X[sample])):
                assert vote == self.y[row]


class TestXor:
    def test_unlimited_depth_learns_xor(self):
        X, y = xor_data()
        model = train(X, y, ForestParams(n_trees=100, seed=11))
        labels, _ = predict(model, X)
        assert np.array_equal(labels, y)

    def test_depth_zero_cannot_split(self):
        X, y = xor_data()
        model = train(X, y, ForestParams(n_trees=5, seed=1, max_depth=0))
        assert all(len(t.feature) == 1 for t in model.trees)


class TestPredict:
    def test_single_tree_forest_is_that_tree(self):
        model = ForestModel(trees=[leaf_tree(1, 9)], feature_count=3, params=ForestParams(n_trees=1))
        labels, scores = predict(model, np.zeros((1, 3)))
        assert (labels[0], scores[0]) == (1, 1.0)

    def test_vote_fraction(self):
        trees = [leaf_tree(0, 5) for _ in range(130)] + [leaf_tree(5, 0) for _ in range(120)]
        model = ForestModel(trees=trees, feature_count=2, params=ForestParams(n_trees=250))
        labels, scores = predict(model, np.zeros((1, 2)))
        assert (labels[0], scores[0]) == (1, 0.52)

    def test_exact_tie_votes_benign(self):
        trees = [leaf_tree(0, 1) for _ in range(5)] + [leaf_tree(1, 0) for _ in range(5)]
        model = ForestModel(trees=trees, feature_count=1, params=ForestParams(n_trees=10))
        labels, scores = predict(model, np.zeros((1, 1)))
        assert (labels[0], scores[0]) == (0, 0.5)

    def test_score_is_a_vote_multiple(self):
        X, y = xor_data(4)
        model = train(X, y, ForestParams(n_trees=40, seed=2))
        _, scores = predict(model, np.array([[0.2, 0.9]]))
        assert scores[0] in {i / 40 for i in range(41)}

    def test_dimension_mismatch_rejected(self):
        X, y = xor_data(2)
        model = train(X, y, ForestParams(n_trees=3, seed=1))
        with pytest.raises(ForestError, match="expected 2 features"):
            predict(model, np.zeros(5))

    def test_wrong_width_matrix_rejected(self):
        X, y = xor_data(2)
        model = train(X, y, ForestParams(n_trees=3, seed=1))
        with pytest.raises(ForestError, match="expected 2 features"):
            predict(model, np.zeros((4, 5)))

    def test_training_point_recovered_by_overfit_forest(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 4))
        y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)
        model = train(X, y, ForestParams(n_trees=150, seed=8))
        labels, _ = predict(model, X)
        assert np.array_equal(labels, y)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        X, y = xor_data()
        m1 = train(X, y, ForestParams(n_trees=20, seed=42))
        m2 = train(X, y, ForestParams(n_trees=20, seed=42))
        assert save_model(m1) == save_model(m2)

    def test_different_seed_differs(self):
        X, y = xor_data()
        m1 = train(X, y, ForestParams(n_trees=20, seed=42))
        m2 = train(X, y, ForestParams(n_trees=20, seed=43))
        assert save_model(m1) != save_model(m2)

    def test_round_trip_preserves_bytes_and_predictions(self):
        X, y = xor_data()
        model = train(X, y, ForestParams(n_trees=10, seed=5))
        data = save_model(model)
        loaded = load_model(data)
        assert save_model(loaded) == data
        l1, s1 = predict(model, X)
        l2, s2 = predict(loaded, X)
        assert np.array_equal(l1, l2) and np.array_equal(s1, s2)

    def test_corrupt_model_rejected(self):
        X, y = xor_data(2)
        data = save_model(train(X, y, ForestParams(n_trees=2, seed=1)))
        with pytest.raises(ForestFormatError):
            load_model(data[: len(data) // 2])
        with pytest.raises(ForestFormatError):
            load_model(b"widetrack-forest\tv999\n")
        with pytest.raises(ForestFormatError):
            load_model(b"hello\n")


class TestFeatureImportance:
    def test_single_informative_feature_takes_all(self):
        rng = np.random.default_rng(4)
        X = np.hstack([rng.normal(size=(40, 3)), np.repeat([[0.0], [10.0]], 20, axis=0)])
        y = np.array([0] * 20 + [1] * 20)
        model = train(X, y, ForestParams(n_trees=30, seed=4, mtry=4))
        ranked = feature_importance(model)
        assert ranked[0][0] == 3
        assert ranked[0][1] > 0.9

    def test_importances_sum_to_one(self):
        X, y = xor_data()
        model = train(X, y, ForestParams(n_trees=25, seed=9))
        total = sum(imp for _, imp in feature_importance(model))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_descending_order(self):
        X, y = xor_data()
        model = train(X, y, ForestParams(n_trees=25, seed=9))
        imps = [imp for _, imp in feature_importance(model)]
        assert imps == sorted(imps, reverse=True)


class TestOob:
    def test_oob_disagrees_with_memorized_mislabel(self):
        # 40 clean points plus one mislabeled: the full forest echoes the
        # training label, the out-of-bag vote goes with the structure.
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(0, 0.3, size=(20, 2)), rng.normal(4, 0.3, size=(20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        y[5] = 1  # mislabel one left-cluster point
        model = train(X, y, ForestParams(n_trees=200, seed=6))
        full_labels, _ = predict(model, X[5:6])
        oob_labels, oob_scores = oob_predict(model, X)
        assert full_labels[0] == 1
        assert oob_labels[5] == 0
        assert oob_scores[5] < 0.5

    def test_rows_every_tree_sampled_take_the_full_vote(self):
        trees = [leaf_tree(0, 3), leaf_tree(3, 0), leaf_tree(0, 3)]
        in_bag = [np.array([0, 1, 1]), np.array([0, 1, 2]), np.array([0, 0, 1])]
        model = ForestModel(
            trees=trees, feature_count=1, params=ForestParams(n_trees=3), in_bag=in_bag
        )
        labels, scores = oob_predict(model, np.zeros((3, 1)))
        assert scores[0] == scores[1] == 2 / 3  # in every bootstrap
        assert scores[2] == 1.0  # out of bag for trees 0 and 2 only
        assert labels.tolist() == [1, 1, 1]

    def test_loaded_model_has_no_bootstrap_record(self):
        X, y = xor_data(2)
        model = load_model(save_model(train(X, y, ForestParams(n_trees=2, seed=1))))
        with pytest.raises(ForestError):
            oob_predict(model, X)


def walk(tree, x):
    """Reference leaf lookup: one row, one node at a time."""
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return i


class TestBatchedWalk:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.X = rng.normal(size=(50, 4))
        y = (self.X[:, 0] * self.X[:, 1] > 0).astype(int)
        self.model = train(self.X, y, ForestParams(n_trees=15, seed=12))
        self.probe = np.vstack([rng.normal(size=(30, 4)), np.full((1, 4), np.nan)])

    def test_apply_matches_a_row_by_row_walk(self):
        for tree in self.model.trees:
            assert tree.apply(self.probe).tolist() == [walk(tree, x) for x in self.probe]

    def test_oob_scores_match_a_row_by_row_vote(self):
        votes = np.zeros(len(self.X))
        counts = np.zeros(len(self.X))
        for tree, sample in zip(self.model.trees, self.model.in_bag):
            for r in sorted(set(range(len(self.X))) - set(sample.tolist())):
                c0, c1 = tree.counts[walk(tree, self.X[r])]
                votes[r] += int(c1 > c0)
                counts[r] += 1
        _, scores = oob_predict(self.model, self.X)
        for r in range(len(self.X)):
            if counts[r]:
                assert scores[r] == votes[r] / counts[r]
