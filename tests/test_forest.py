import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from widetrack import forest
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


def apply(tree, X):
    """Leaf index each row of X lands in: ``_walk`` over one tree."""
    return forest._walk(tree, X, np.zeros(len(X), dtype=np.int64), np.arange(len(X)))


def vote(tree, X):
    """1 where the row's leaf holds a strict adtracker majority, else 0."""
    c = tree.counts[apply(tree, X)]
    return (c[:, 1] > c[:, 0]).astype(np.int64)


def _gini(c0, c1):
    """Reference node impurity, one node at a time."""
    n = c0 + c1
    return 1.0 - (c0 * c0 + c1 * c1) / (n * n) if n else 0.0


def leaf_tree(c0, c1):
    return Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        right=np.array([-1], dtype=np.int32),
        counts=np.array([[c0, c1]], dtype=np.int64),
    )


def xor_data(reps=8):
    corners = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    X = np.array([(a, b) for a, b, _ in corners for _ in range(reps)], dtype=float)
    y = np.array([lab for _, _, lab in corners for _ in range(reps)])
    return X, y


def small_model():
    X, y = xor_data(2)
    return save_model(train(X, y, ForestParams(n_trees=2, seed=1)))


def one_tree_model():
    X, y = xor_data(2)
    return train(X, y, ForestParams(n_trees=1, seed=1))


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

    def test_fractional_labels_are_named_not_truncated(self):
        with pytest.raises(ForestError, match=r"labels must be 0/1, got \['0\.2', '0\.7'\]"):
            train([[0.0], [1.0], [2.0]], [0.7, 1.0, 0.2], ForestParams(n_trees=1, seed=1))

    def test_text_labels_are_named(self):
        with pytest.raises(ForestError, match="labels must be 0/1, got .*'a'.*'b'"):
            train([[0.0], [1.0]], ["a", "b"], ForestParams(n_trees=1, seed=1))

    def test_no_feature_columns_named(self):
        with pytest.raises(ForestError, match="no feature columns"):
            train(np.zeros((3, 0)), np.array([0, 1, 0]), ForestParams(n_trees=1))


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
            for row, voted in zip(sample, vote(tree, self.X[sample])):
                assert voted == self.y[row]


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


class TestMidpointRounding:
    """A threshold takes the lower value where the midpoint of two
    neighbouring values rounds up to the upper one or overflows."""

    LO, HI = 1 + 2**-52, 1 + 2**-51  # adjacent floats; the midpoint rounds to HI
    y = np.array([0, 1, 1, 0])

    def test_adjacent_floats_train_a_loadable_model(self):
        lo, hi = self.LO, self.HI
        X = np.array([[lo, hi], [hi, lo], [hi, hi], [lo, lo]])
        params = ForestParams(n_trees=1, mtry=2, max_depth=4)
        model = train(X, self.y, params)
        assert model.trees[0].threshold[0] == lo
        assert save_model(load_model(save_model(model))) == save_model(model)
        assert save_model(model) == save_model(train_loop(X, self.y, params))

    def test_unlimited_depth_returns(self):
        X = np.array([[self.LO], [self.HI], [self.HI], [self.LO]])
        labels, _ = predict(train(X, self.y, ForestParams(n_trees=250)), X)
        assert np.array_equal(labels, self.y)

    def test_overflowing_midpoint_gives_a_finite_threshold(self):
        big = np.finfo(np.float64).max
        X = np.array([[big * 0.75], [big], [big], [big * 0.75]])
        params = ForestParams(n_trees=3, max_depth=4)
        model = train(X, self.y, params)
        assert [t.threshold[0] for t in model.trees] == [big * 0.75] * 3
        assert save_model(model) == save_model(train_loop(X, self.y, params))


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
        data = small_model()
        with pytest.raises(ForestFormatError, match=r"^model file: line \d+: "):
            load_model(data[: len(data) // 2])
        for data, reason in [
            (b"widetrack-forest\tv999\n", "unrecognized model version"),
            (b"hello\n", "expected a 'widetrack-forest'"),
        ]:
            with pytest.raises(ForestFormatError, match=f"^model file: line 1: {reason}"):
                load_model(data)
        with pytest.raises(ForestFormatError, match="^model file: line 1: file ends early"):
            load_model(b"")

    @pytest.mark.parametrize(
        "edit, lineno, words",
        [
            (lambda ls: ls[:3] + [ls[3][: ls[3].index("max_depth") + 5]], 4, "'max_depth'"),
            (lambda ls: [ls[0], ls[1].replace("classes", "klasses"), *ls[2:]], 2, "'classes'"),
            (lambda ls: [ls[0], "classes\tbenign", *ls[2:]], 2, "classes"),
            (lambda ls: [ls[0], "classes\tbeni\0gn\tadtracker", *ls[2:]], 2, "classes"),
            (lambda ls: [ls[0], ls[1], "feature_count\t2\t2", *ls[3:]], 3, "2 values"),
            (lambda ls: ls[:3] + [ls[3] + "\tdepth=3"], 4, "'depth'"),
            (lambda ls: ls[:4] + ["trees\t0"], 5, "one tree"),
            (lambda ls: ls[:5] + ["tree\t1\t3", *ls[6:]], 6, "tree 0 of"),
            # checked against the lines left before any array is allocated
            (lambda ls: ls[:5] + ["tree\t0\t1000000000000", *ls[6:]], 6, "tree 0 of"),
            # the params line must agree with the model it heads
            (lambda ls: ls[:3] + [ls[3].replace("n_trees=2", "n_trees=7"), *ls[4:]], 5,
             "2 trees, but the params line says n_trees=7"),
            *[
                (lambda ls, m=m: ls[:3] + [ls[3].replace("mtry=None", f"mtry={m}"), *ls[4:]],
                 4, words)
                for m, words in (
                    (0, "mtry must be >= 1, got 0"),
                    (-4, "mtry must be >= 1, got -4"),
                    (3, r"mtry must be in \[1, 2\], got 3"),
                    (9, r"mtry must be in \[1, 2\], got 9"),
                )
            ],
            (lambda ls: ls + ["l\t1\t0"], 0, "trailing line"),
            (lambda ls: ls + [""], 0, "trailing line"),
        ],
    )
    def test_malformed_model_names_its_line(self, edit, lineno, words):
        lines = small_model().decode().splitlines()
        edited = edit(lines)
        lineno = lineno or len(edited)
        with pytest.raises(ForestFormatError, match=f"^model file: line {lineno}: .*{words}"):
            load_model(("\n".join(edited) + "\n").encode())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_rejected(self, value):
        lines = small_model().decode().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("n\t"))
        cells = lines[at].split("\t")
        lines[at] = "\t".join([*cells[:2], value, *cells[3:]])
        pattern = f"^model file: line {at + 1}: non-finite threshold"
        with pytest.raises(ForestFormatError, match=pattern):
            load_model(("\n".join(lines) + "\n").encode())

    def test_every_cut_before_the_last_line_names_a_line(self):
        data = small_model()
        last_line_start = data.rstrip(b"\n").rindex(b"\n") + 1
        for cut in range(last_line_start):
            with pytest.raises(ForestFormatError, match=r"^model file: line \d+: "):
                load_model(data[:cut])

    @pytest.mark.parametrize(
        "leaf, words",
        [
            ("l\t-7\t3", "impossible class counts -7 3"),
            ("l\t0\t0", "impossible class counts 0 0"),
            (f"l\t1\t{2**70}", "too large"),  # past int64
        ],
    )
    def test_impossible_leaf_counts_name_their_line(self, leaf, words):
        lines = save_model(one_tree_model()).decode().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("l\t"))
        lines[at] = leaf
        with pytest.raises(ForestFormatError, match=f"^model file: line {at + 1}: .*{words}"):
            load_model(("\n".join(lines) + "\n").encode())

    def test_counts_off_the_childrens_sum_name_the_parents_line(self):
        model = one_tree_model()
        tree = model.trees[0]
        first = 7  # the header is five lines, then the tree line
        lines = save_model(model).decode().splitlines()
        assert lines[first - 2].startswith("tree\t0\t") and tree.feature[0] >= 0
        # The root one count too high.
        root = lines[:]
        cells = root[first - 1].split("\t")
        root[first - 1] = "\t".join([*cells[:3], str(int(cells[3]) + 1), cells[4]])
        # The last leaf one count too high: the defect shows at its parent.
        last = len(tree.feature) - 1
        parent = last - 1  # a left child follows its parent
        if tree.feature[parent] < 0:
            parent = int(np.flatnonzero(tree.right == last)[0])
        leaf = lines[:]
        c0, c1 = tree.counts[last]
        leaf[first - 1 + last] = f"l\t{c0}\t{c1 + 1}"
        for edited, lineno in ((root, first), (leaf, first + parent)):
            pattern = f"^model file: line {lineno}: .*sum of the children"
            with pytest.raises(ForestFormatError, match=pattern):
                load_model(("\n".join(edited) + "\n").encode())

    def test_every_dropped_or_repeated_node_line_names_a_line(self):
        # Three trees of several nodes: a lost or doubled line shifts every
        # child link after it, and the loader must name where that shows.
        X, y = xor_data(3)
        lines = save_model(train(X, y, ForestParams(n_trees=3, seed=2))).decode().splitlines()
        nodes = [i for i, line in enumerate(lines) if line.startswith(("n\t", "l\t"))]
        assert len(nodes) > 3 * 5
        edits = [lines[:i] + lines[i + 1:] for i in nodes]
        edits += [lines[:i + 1] + lines[i:] for i in nodes]
        for edited in edits:
            with pytest.raises(ForestFormatError, match=r"^model file: line \d+: "):
                load_model(("\n".join(edited) + "\n").encode())

    def test_non_utf8_byte_names_its_line(self):
        data = small_model()
        with pytest.raises(ForestFormatError, match="^model file: line 3: "):
            load_model(data.replace(b"feature_count", b"feature\xffcount"))


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

    @pytest.mark.parametrize("kind", ["sparse_tfidf", "dense_real", "mixed_sign"])
    def test_equals_the_node_loop_exactly(self, kind):
        X, y = _matrix(kind)
        model = train(X, y, ForestParams(n_trees=20, seed=2))
        assert feature_importance(model) == _feature_importance_loop(model)

    @pytest.mark.parametrize("kind", ["sparse_tfidf", "dense_real", "mixed_sign"])
    def test_equals_the_tree_by_tree_pass_exactly(self, kind):
        X, y = _matrix(kind)
        model = train(X, y, ForestParams(n_trees=20, seed=2))
        assert feature_importance(model) == _feature_importance_per_tree(model)


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

    @pytest.mark.parametrize("width", [1, 6])
    def test_wrong_width_matrix_rejected(self, width):
        # 50 trees over 60 rows: every row is out of bag for some tree, so
        # no row falls back to predict's check.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 3))
        model = train(X, (X[:, 0] > 0).astype(int), ForestParams(n_trees=50, seed=3))
        in_every_bag = np.logical_and.reduce([np.isin(np.arange(60), s) for s in model.in_bag])
        assert not in_every_bag.any()
        with pytest.raises(ForestError, match=r"expected 3 features, got \(60, %d\)" % width):
            oob_predict(model, np.zeros((60, width)))

    def test_loaded_model_has_no_bootstrap_record(self):
        X, y = xor_data(2)
        model = load_model(save_model(train(X, y, ForestParams(n_trees=2, seed=1))))
        with pytest.raises(ForestError):
            oob_predict(model, X)


def walk(tree, x):
    """Reference leaf lookup: one row, one node at a time."""
    i = 0
    while tree.feature[i] >= 0:
        i = i + 1 if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return i


def recount(tree, X, y, sample):
    """Class counts of every node: each bootstrap row, repeats included,
    counted at every node on its path to the leaf ``walk`` gives it."""
    counts = np.zeros((len(tree.feature), 2), dtype=np.int64)
    for r in sample:
        i = 0
        counts[i, y[r]] += 1
        while tree.feature[i] >= 0:
            i = i + 1 if X[r, tree.feature[i]] <= tree.threshold[i] else tree.right[i]
            counts[i, y[r]] += 1
        assert i == walk(tree, X[r])
    return counts


class TestBatchedWalk:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.X = rng.normal(size=(50, 4))
        y = (self.X[:, 0] * self.X[:, 1] > 0).astype(int)
        self.model = train(self.X, y, ForestParams(n_trees=15, seed=12))
        self.probe = np.vstack([rng.normal(size=(30, 4)), np.full((1, 4), np.nan)])

    def test_apply_matches_a_row_by_row_walk(self):
        for tree in self.model.trees:
            assert apply(tree, self.probe).tolist() == [walk(tree, x) for x in self.probe]

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

    def full_vote(self, x):
        return sum(int(c[1] > c[0]) for c in (t.counts[walk(t, x)] for t in self.model.trees))

    # 1 and 3 walk one tree per block; 100 puts two or three trees in a
    # block and leaves a short last block.
    @pytest.mark.parametrize("budget", [1, 3, 100, forest._PASS_ENTRIES])
    def test_predict_and_oob_match_a_row_by_row_vote_at_every_block_budget(
        self, budget, monkeypatch
    ):
        monkeypatch.setattr(forest, "_PASS_ENTRIES", budget)
        n_trees = len(self.model.trees)
        votes = [self.full_vote(x) for x in self.probe]  # the NaN row included
        labels, scores = predict(self.model, self.probe)
        assert scores.tolist() == [v / n_trees for v in votes]
        assert labels.tolist() == [int(v / n_trees > 0.5) for v in votes]

        X = self.X.copy()
        X[7] = np.nan  # out-of-bag scoring walks whatever rows it is given
        expected = []
        for r, x in enumerate(X):
            trees = [t for t, s in zip(self.model.trees, self.model.in_bag) if r not in s]
            voted = sum(int(c[1] > c[0]) for c in (t.counts[walk(t, x)] for t in trees))
            expected.append(voted / len(trees) if trees else self.full_vote(x) / n_trees)
        labels, scores = oob_predict(self.model, X)
        assert scores.tolist() == expected
        assert labels.tolist() == [int(e > 0.5) for e in expected]

    def test_no_rows_give_empty_typed_results(self):
        labels, scores = predict(self.model, np.zeros((0, 4)))
        assert (labels.shape, labels.dtype) == ((0,), np.int64)
        assert (scores.shape, scores.dtype) == ((0,), np.float64)


def masked_oob(model, X):
    """Reference out-of-bag scores: every tree votes on every row, one row at
    a time, the votes of in-bag pairs are masked away, and a row no tree
    missed takes the full forest's vote."""
    leaf_counts = [[tree.counts[walk(tree, x)] for x in X] for tree in model.trees]
    voted = np.array([[int(c1 > c0) for c0, c1 in row] for row in leaf_counts])
    out_of_bag = np.ones(voted.shape, dtype=bool)
    for t, sample in enumerate(model.in_bag):
        out_of_bag[t, sample] = False
    votes, counts = (voted * out_of_bag).sum(axis=0), out_of_bag.sum(axis=0)
    full = voted.sum(axis=0) / len(model.trees)
    return np.where(counts > 0, votes / np.maximum(counts, 1), full)


@st.composite
def bagged_forests(draw):
    """(model, X): a small trained forest whose bootstrap record is redrawn,
    with some rows in every tree's sample, and X its training matrix, maybe
    with NaN cells."""
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    cells = st.floats(-4, 4, allow_nan=False).map(lambda v: round(v, 1))
    X = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = [0, 1]
    params = ForestParams(n_trees=draw(st.integers(1, 6)), seed=draw(st.integers(0, 2**16)))
    model = train(X, y, params)
    seen_by_all = sorted(draw(st.sets(st.integers(0, n - 1))))
    rows = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    model.in_bag = [np.array(seen_by_all + draw(rows)[len(seen_by_all):]) for _ in model.trees]
    if draw(st.booleans()):
        X = X.copy()
        X[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = np.nan
    return model, X


class TestOobPairWalk:
    @settings(max_examples=300, deadline=None)
    @given(bagged_forests(), st.sampled_from([1, 3, 16, forest._PASS_ENTRIES]))
    def test_equals_the_masked_all_pairs_reference(self, case, budget):
        model, X = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_PASS_ENTRIES", budget)
            labels, scores = oob_predict(model, X)
        expected = masked_oob(model, X)
        assert scores.tolist() == expected.tolist()
        assert labels.tolist() == (expected > 0.5).astype(int).tolist()

    def test_walks_only_out_of_bag_pairs(self, monkeypatch):
        X, y = _matrix("dense_real")
        model = train(X, y, ForestParams(n_trees=20, seed=4))
        walked = []
        walk = forest._walk

        def counted(nodes, X, node, row):
            walked.append(len(row))
            return walk(nodes, X, node, row)

        monkeypatch.setattr(forest, "_walk", counted)
        oob_predict(model, X)
        missed = sum(len(X) - len(set(sample.tolist())) for sample in model.in_bag)
        assert sum(walked) == missed
        assert max(walked) <= forest._PASS_ENTRIES


def _best_split_loop(X, y, idx, feats):
    """Reference split search: one Python iteration per candidate feature.
    Returns (impurity, feature, threshold, left rows, left class-1 rows)."""
    n = len(idx)
    y_node = y[idx]
    c1 = int(y_node.sum())
    c0 = n - c1
    best_impurity = None
    best = None
    for f in feats:
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        cum1 = np.cumsum(y_node[order])
        pos = np.nonzero(xs[:-1] < xs[1:])[0]
        ln = pos + 1.0
        l1 = cum1[pos].astype(float)
        l0 = ln - l1
        rn = n - ln
        r1 = c1 - l1
        r0 = rn - r1
        gl = 1.0 - (l0 * l0 + l1 * l1) / (ln * ln)
        gr = 1.0 - (r0 * r0 + r1 * r1) / (rn * rn)
        weighted = (ln * gl + rn * gr) / n
        k = int(np.argmin(weighted))
        if best_impurity is None or weighted[k] < best_impurity:
            best_impurity = float(weighted[k])
            lo, hi = float(xs[pos[k]]), float(xs[pos[k] + 1])
            mid = (lo + hi) / 2.0  # Python floats: an overflow gives inf, no warning
            thr = mid if math.isfinite(mid) and mid < hi else lo
            best = (int(f), thr, int(ln[k]), int(l1[k]))
    if best is None:
        return None
    if best_impurity >= _gini(c0, c1) - 1e-12:
        return None
    return (best_impurity, *best)


def floyd_features(rng, d, mtry):
    """Reference feature set: Floyd's sample of mtry of range(d), one
    bounded draw at a time, then the mtry - 1 draws that are discarded."""
    taken = set()
    for j in range(d - mtry, d):
        v = int(rng.integers(0, j + 1))
        taken.add(j if v in taken else v)
    for i in range(mtry - 1, 0, -1):
        rng.integers(0, i + 1)
    return np.array(sorted(taken))


def _grow_tree_loop(X, y, sample, params, mtry, rng):
    """Reference grower: one tree, one node at a time, pre-order, with its
    own left-child list, which must hold node + 1 at every split node."""
    d = X.shape[1]
    feature, threshold, left, right, counts = [], [], [], [], []
    stack = [(sample, 0, -1, False)]  # (indices, depth, parent, is_left)
    while stack:
        idx, depth, parent, is_left = stack.pop()
        node = len(feature)
        if parent >= 0:
            (left if is_left else right)[parent] = node
        c1 = int(y[idx].sum())
        c0 = len(idx) - c1
        counts.append((c0, c1))
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        if (
            c0 == 0
            or c1 == 0
            or len(idx) < params.min_samples_split
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            continue
        feats = floyd_features(rng, d, mtry)
        found = _best_split_loop(X, y, idx, feats)
        if found is None:
            continue
        _, f, thr, _, _ = found
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        stack.append((idx[~go_left], depth + 1, node, False))
        stack.append((idx[go_left], depth + 1, node, True))
    for i, f in enumerate(feature):
        if f >= 0:
            assert left[i] == i + 1
    return Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        right=np.array(right, dtype=np.int32),
        counts=np.array(counts, dtype=np.int64),
    )


def train_loop(X, y, params):
    """Reference forest: each tree grown alone, from its own stream."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    mtry = params.resolve_mtry(d)
    trees, in_bag = [], []
    for t in range(params.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=params.seed, spawn_key=(t,)))
        sample = rng.integers(0, n, size=n)
        trees.append(_grow_tree_loop(X, y, sample, params, mtry, rng))
        in_bag.append(sample)
    return ForestModel(trees=trees, feature_count=d, params=params, in_bag=in_bag)


def _feature_importance_loop(model):
    """Reference importances: one Python iteration per node."""
    totals = np.zeros(model.feature_count)
    for tree in model.trees:
        n_root = tree.counts[0].sum()
        for i in range(len(tree.feature)):
            f = tree.feature[i]
            if f < 0:
                continue
            c0, c1 = tree.counts[i]
            lc0, lc1 = tree.counts[i + 1]
            rc0, rc1 = tree.counts[tree.right[i]]
            n = c0 + c1
            decrease = _gini(c0, c1) - (
                (lc0 + lc1) * _gini(lc0, lc1) + (rc0 + rc1) * _gini(rc0, rc1)
            ) / n
            totals[f] += (n / n_root) * decrease
    totals /= len(model.trees)
    total = totals.sum()
    if total > 0:
        totals = totals / total
    ranked = sorted(range(model.feature_count), key=lambda f: (-totals[f], f))
    return [(f, float(totals[f])) for f in ranked]


def _feature_importance_per_tree(model):
    """Reference importances: one numpy pass and one ``np.add.at`` per tree."""
    totals = np.zeros(model.feature_count)
    for tree in model.trees:
        inner = np.flatnonzero(tree.feature >= 0)
        c, lc, rc = (tree.counts[i] for i in (inner, inner + 1, tree.right[inner]))
        n, ln, rn = c.sum(axis=1), lc.sum(axis=1), rc.sum(axis=1)
        decrease = forest._gini_rows(c) - (
            ln * forest._gini_rows(lc) + rn * forest._gini_rows(rc)
        ) / n
        np.add.at(totals, tree.feature[inner], (n / tree.counts[0].sum()) * decrease)
    totals /= len(model.trees)
    total = totals.sum()
    if total > 0:
        totals = totals / total
    ranked = sorted(range(model.feature_count), key=lambda f: (-totals[f], f))
    return [(f, float(totals[f])) for f in ranked]


def batched(X, y, nodes):
    """One ``_best_splits`` call over (idx, feats) nodes of one matrix."""
    cols = forest._presort(X, y)
    return forest._best_splits(cols, [(idx, int(y[idx].sum()), feats) for idx, feats in nodes])


def sparse_tfidf(rng, n, d, density=0.08):
    """Mostly-zero non-negative matrix, like the keyword block of a feature row."""
    weights = rng.choice([0.3, 0.5, 1.25, 2.0, 3.7], size=(n, d))
    return np.where(rng.random((n, d)) < density, weights, 0.0)


def mixed_sign(rng, n, d):
    """Sparse matrix of both signs whose zero cells include -0.0."""
    X = np.where(rng.random((n, d)) < 0.3, rng.normal(size=(n, d)).round(1), 0.0)
    X[rng.random((n, d)) < 0.2] = -0.0
    return X


@st.composite
def split_nodes(draw):
    """(X, y, nodes): a few nodes of trees over one small mixed-column matrix."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 8))
    small = st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 2.5, -1.0])
    nonzero = st.sampled_from([5e-324, -5e-324, 0.3, 1.25, 3.7, -0.3, -2.0])
    negative = st.sampled_from([-5e-324, -0.3, -1.25, -3.7])
    columns = []
    for _ in range(d):
        kind = draw(
            st.sampled_from(["zero", "constant", "ties", "sparse", "negative", "dense", "real"])
        )
        if kind == "zero":
            col = [draw(st.sampled_from([0.0, -0.0])) for _ in range(n)]
        elif kind == "constant":
            col = [draw(small)] * n
        elif kind == "ties":
            col = draw(st.lists(small, min_size=n, max_size=n))
        elif kind in ("sparse", "negative"):
            col = [
                v if keep else 0.0
                for v, keep in zip(
                    draw(st.lists(
                        negative if kind == "negative" else st.sampled_from([0.3, 1.25, 3.7]),
                        min_size=n, max_size=n,
                    )),
                    draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                )
            ]
        elif kind == "dense":  # no zero cell at all
            col = draw(st.lists(nonzero, min_size=n, max_size=n))
        else:
            col = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
        columns.append(col)
    X = np.array(columns, dtype=np.float64).T
    if draw(st.booleans()):  # duplicate rows
        X = np.vstack([X, X[: draw(st.integers(1, n))]])
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    rows = st.lists(st.integers(0, len(X) - 1), min_size=2, max_size=2 * len(X))
    feats = st.sets(st.integers(0, d - 1), min_size=1)
    nodes = [
        (np.array(draw(rows)), np.array(sorted(draw(feats))))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return X, y, nodes


def _sizes(columns, mtry):
    """(d, mtry) pairs: d from ``columns``, mtry from ``mtry(d)``'s range."""
    return columns.flatmap(lambda d: st.tuples(st.just(d), st.integers(*mtry(d))))


# (d, mtry) where numpy's choice runs Floyd's algorithm, and past it, where
# choice shuffles arange(d)'s tail instead (d > 10000 and mtry > d // 50).
_FLOYD_SIZES = st.one_of(
    _sizes(st.integers(1, 80), lambda d: (1, d)),
    _sizes(st.integers(10001, 40000), lambda d: (1, d // 50)),
)
_TAIL_SIZES = _sizes(st.integers(10001, 10300), lambda d: (d // 50 + 1, d // 50 + 60))


class TestFeatureDraws:
    """``_feature_sets`` against ``floyd_features``, the draw the loop oracle
    makes once per node, and, where numpy runs Floyd's algorithm, against
    ``np.sort(rng.choice(d, mtry, replace=False))``."""

    @staticmethod
    def check(draw, size, seed, k):
        d, mtry = size
        rngs = [np.random.default_rng([seed, t]) for t in range(3)]
        oracles = [np.random.default_rng([seed, t]) for t in range(3)]
        for _ in range(2):  # the second call goes on where the first left off
            expected = [[draw(rng, d, mtry).tolist() for _ in range(k)] for rng in oracles]
            assert forest._feature_sets(rngs, k, d, mtry).tolist() == expected, (
                f"numpy {np.__version__}"
            )

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_FLOYD_SIZES, _TAIL_SIZES), st.integers(0, 2**32 - 1), st.integers(1, 4))
    @example((1, 1), 0, 3)  # d == 1
    @example((9, 9), 1, 3)  # mtry == d
    @example((10050, 250), 3, 2)  # past numpy's Floyd range
    def test_sets_equal_the_floyd_reference(self, size, seed, k):
        self.check(floyd_features, size, seed, k)

    @settings(max_examples=150, deadline=None)
    @given(_FLOYD_SIZES, st.integers(0, 2**32 - 1), st.integers(1, 4))
    @example((1, 1), 0, 3)
    @example((9, 9), 1, 3)
    @example((20000, 400), 2, 2)  # Floyd's algorithm above 10000 columns
    def test_sets_equal_sorted_choice_draws(self, size, seed, k):
        self.check(
            lambda rng, d, mtry: np.sort(rng.choice(d, size=mtry, replace=False)), size, seed, k
        )


class TestSplitSearch:
    @settings(max_examples=400, deadline=None)
    @given(split_nodes(), st.sampled_from([1, 3, 16, forest._PASS_ENTRIES]))
    def test_matches_the_per_feature_loop(self, case, budget):
        # Small budgets cut a node's segments over several passes.
        X, y, nodes = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_PASS_ENTRIES", budget)
            found = batched(X, y, nodes)
        expected = [_best_split_loop(X, y, idx, feats) for idx, feats in nodes]
        assert repr(found) == repr(expected)  # repr tells -0.0 from 0.0

    def test_matches_the_loop_on_sparse_nodes(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            X = sparse_tfidf(rng, 40, 30)
            y = rng.integers(0, 2, size=40)
            nodes = [
                (rng.integers(0, 40, size=int(rng.integers(2, 40))),
                 np.sort(rng.choice(30, size=6, replace=False)))
                for _ in range(5)
            ]
            expected = [_best_split_loop(X, y, idx, feats) for idx, feats in nodes]
            assert batched(X, y, nodes) == expected

    def test_all_constant_columns_give_no_split(self):
        X = np.array([[0.0, 2.0], [0.0, 2.0], [0.0, 2.0]])
        y = np.array([0, 1, 1])
        assert batched(X, y, [(np.arange(3), np.array([0, 1]))]) == [None]

    def test_tie_goes_to_the_lowest_feature_then_threshold(self):
        # Against labels 0, 1, 0 every boundary here weighs 1/3: feature 0's
        # one boundary is its second sorted gap, feature 1's is its first,
        # and feature 2 has two. The last two values are the left side's
        # rows and class-1 rows: two rows and one, or one row and none.
        X = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
        y = np.array([0, 1, 0])
        idx = np.arange(3)
        nodes = [(idx, np.array([0, 1, 2])), (idx, np.array([2])), (idx, np.array([1, 2]))]
        expected = [(1 / 3, 0, 0.5, 2, 1), (1 / 3, 2, 0.5, 1, 0), (1 / 3, 1, 0.5, 1, 0)]
        assert batched(X, y, nodes) == expected
        assert [_best_split_loop(X, y, idx, feats) for idx, feats in nodes] == expected
        for budget in (1, 2):  # the tie held across passes
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(forest, "_PASS_ENTRIES", budget)
                assert batched(X, y, nodes[:1]) == expected[:1]

    def test_forest_bytes_equal_the_loop_oracle_forest(self, monkeypatch):
        # Groups of 3 trees and 40-entry passes: 12 trees take four groups,
        # and most nodes' segments straddle a pass boundary.
        monkeypatch.setattr(forest, "_GROUP_TREES", 3)
        monkeypatch.setattr(forest, "_PASS_ENTRIES", 40)
        rng = np.random.default_rng(17)
        X = sparse_tfidf(rng, 80, 60)
        y = (X[:, :5].sum(axis=1) + rng.normal(0, 0.3, size=80) > 0.4).astype(int)
        params = ForestParams(n_trees=12, seed=3)
        assert save_model(train(X, y, params)) == save_model(train_loop(X, y, params))


def _matrix(kind):
    rng = np.random.default_rng(17)
    if kind == "sparse_tfidf":
        X = sparse_tfidf(rng, 80, 60)
        score = X[:, :5].sum(axis=1)
    elif kind == "dense_real":
        X = rng.normal(size=(60, 8))
        score = X[:, 0] * X[:, 1]
    else:
        X = mixed_sign(rng, 70, 20)
        score = X[:, 0] - X[:, 1]
    y = (score + rng.normal(0, 0.3, size=len(X)) > 0.2).astype(int)
    return X, y


class TestLockstepGrower:
    @pytest.mark.parametrize("kind", ["sparse_tfidf", "dense_real", "mixed_sign"])
    @pytest.mark.parametrize(
        "knobs",
        [
            {},
            {"max_depth": 3},
            {"min_samples_split": 5},
            {"mtry": "d"},
            {"n_trees": forest._GROUP_TREES * 2 + 5},
        ],
        ids=["default", "max_depth", "min_samples_split", "mtry_d", "partial_group"],
    )
    def test_equals_the_tree_by_tree_forest(self, kind, knobs):
        X, y = _matrix(kind)
        knobs = {"n_trees": 6, "seed": 5, **knobs}
        if knobs.get("mtry") == "d":
            knobs["mtry"] = X.shape[1]
        params = ForestParams(**knobs)
        model, reference = train(X, y, params), train_loop(X, y, params)
        assert save_model(model) == save_model(reference)
        assert len(model.in_bag) == params.n_trees
        for sample, expected in zip(model.in_bag, reference.in_bag):
            assert np.array_equal(sample, expected)

    @pytest.mark.parametrize(
        "knobs",
        [{"max_depth": 2}, {"min_samples_split": 81}, {"min_samples_split": 7}, {}],
        ids=["max_depth", "min_samples_split_above_n", "min_samples_split", "default"],
    )
    def test_node_counts_recount_from_the_routed_bootstrap(self, knobs):
        # Child counts come from the parent's split, and leaves keep no rows;
        # every node's (c0, c1) must still count the bootstrap rows that
        # reach it, repeats included.
        X, y = _matrix("sparse_tfidf")  # 80 rows
        params = ForestParams(n_trees=8, seed=5, **knobs)
        model = train(X, y, params)
        assert save_model(model) == save_model(train_loop(X, y, params))
        for tree, sample in zip(model.trees, model.in_bag):
            assert tree.counts.tolist() == recount(tree, X, y, sample).tolist()
        if knobs.get("min_samples_split", 0) > len(X):
            assert all(len(tree.feature) == 1 for tree in model.trees)

    @pytest.mark.parametrize("budget", [forest._PASS_ENTRIES, 2], ids=["default", "refill_per_step"])
    def test_trees_that_draw_at_different_paces(self, monkeypatch, budget):
        # Groups of 3: with seed 33 the first group holds a depth-6 tree, a
        # depth-2 tree and a single-class bootstrap whose root never draws.
        # A budget of 2 refills every step, over a shrinking set of live trees.
        monkeypatch.setattr(forest, "_GROUP_TREES", 3)
        monkeypatch.setattr(forest, "_PASS_ENTRIES", budget)
        X = np.random.default_rng(9).normal(size=(24, 4)).round(2)
        y = np.isin(np.arange(24), [3, 11, 17]).astype(int)
        params = ForestParams(n_trees=5, mtry=1, seed=33)
        model = train(X, y, params)
        assert save_model(model) == save_model(train_loop(X, y, params))
        first = model.trees[:3]
        assert [len(tree.feature) for tree in first] == [15, 5, 1]
        assert len(set(y[model.in_bag[2]].tolist())) == 1

    @pytest.mark.parametrize("budget", [forest._PASS_ENTRIES, 300])
    def test_sets_drawn_against_nodes_scored(self, monkeypatch, budget):
        # Trees finish at different paces, but every refill draws each live
        # tree the full group's k sets, so a tree draws at most k - 1 sets
        # past its last scored node.
        monkeypatch.setattr(forest, "_PASS_ENTRIES", budget)
        drawn, scored, refills = [0], [0], set()
        feature_sets, best_splits = forest._feature_sets, forest._best_splits

        def counted_sets(rngs, k, d, mtry):
            drawn[0] += len(rngs) * k
            refills.add(k)
            return feature_sets(rngs, k, d, mtry)

        def counted_splits(cols, nodes):
            scored[0] += len(nodes)
            return best_splits(cols, nodes)

        monkeypatch.setattr(forest, "_feature_sets", counted_sets)
        monkeypatch.setattr(forest, "_best_splits", counted_splits)
        X, y = _matrix("sparse_tfidf")
        params = ForestParams(n_trees=6, seed=5)
        model = train(X, y, params)
        k = max(1, budget // (params.n_trees * params.resolve_mtry(X.shape[1])))
        assert refills == {k}
        assert scored[0] <= drawn[0] <= scored[0] + params.n_trees * (k - 1)
        # Scored: each node holding both classes (every split node, too).
        assert scored[0] == sum((tree.counts > 0).all(axis=1).sum() for tree in model.trees)

    def test_tail_shuffle_draws(self, monkeypatch):
        # mtry > d // 50 with d > 10000, where numpy's choice would shuffle
        # the tail of arange(d): the forest still draws Floyd's sets.
        monkeypatch.setattr(forest, "_GROUP_TREES", 3)
        rng = np.random.default_rng(8)
        X = sparse_tfidf(rng, 14, 10050, density=0.01)
        y = np.arange(14) % 2
        params = ForestParams(n_trees=4, mtry=250, seed=2)
        model = train(X, y, params)
        assert save_model(model) == save_model(train_loop(X, y, params))
        assert sum(len(tree.feature) for tree in model.trees) > 4  # the trees split

    def test_pure_bootstrap_roots_are_counted_leaves(self):
        # Two rows, one per class: about half the bootstrap samples are pure.
        X, y = np.array([[0.0], [1.0]]), np.array([0, 1])
        params = ForestParams(n_trees=16, seed=4)
        model = train(X, y, params)
        assert save_model(model) == save_model(train_loop(X, y, params))
        pure = 0
        for tree, sample in zip(model.trees, model.in_bag):
            assert tree.counts.tolist() == recount(tree, X, y, sample).tolist()
            pure += len(set(y[sample].tolist())) == 1
            assert (len(tree.feature) == 1) == (len(set(y[sample].tolist())) == 1)
        assert 0 < pure < len(model.trees)

    def test_presorted_columns(self):
        X = np.array([[0.0, -2.0], [-0.0, 3.0], [1.5, 0.0], [-1.0, 3.0]])
        y = np.array([1, 0, 1, 0])
        cols = forest._presort(X, y)
        assert cols.start.tolist() == [0, 3, 7]
        assert cols.rows.tolist() == [3, 4, 2, 0, 4, 1, 3]  # 4 is the zero slot
        assert cols.values.tolist() == [-1.0, 0.0, 1.5, -2.0, 0.0, 3.0, 3.0]
        assert cols.labels.tolist() == [0, 0, 1, 1, 0, 0, 0]
        assert cols.zero_at.tolist() == [1, 4]
