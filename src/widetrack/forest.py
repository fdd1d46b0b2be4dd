"""Random forest built from scratch: bootstrap sampling, Gini splits over a
random feature subset at each node, majority vote over trees.

Per-tree randomness comes from independent streams seeded by (seed, tree
index), so trees could be trained in any order or in parallel without
changing the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CLASSES = ("benign", "adtracker")


class ForestError(ValueError):
    pass


class ForestFormatError(ForestError):
    """Raised when a persisted model cannot be decoded."""


_PARAM_KEYS = ("n_trees", "mtry", "max_depth", "min_samples_split", "seed")


@dataclass
class ForestParams:
    n_trees: int
    mtry: int | None = None  # default ceil(sqrt(d))
    max_depth: int | None = None
    min_samples_split: int = 2
    seed: int = 0

    def resolve_mtry(self, d: int) -> int:
        mtry = self.mtry if self.mtry is not None else math.ceil(math.sqrt(d))
        if not 1 <= mtry <= d:
            raise ForestError(f"mtry must be in [1, {d}], got {mtry}")
        return mtry

    def validate(self):
        if self.n_trees < 1:
            raise ForestError("n_trees must be >= 1")
        if self.min_samples_split < 2:
            raise ForestError("min_samples_split must be >= 2")
        if self.max_depth is not None and self.max_depth < 0:
            raise ForestError("max_depth must be >= 0")


@dataclass
class Tree:
    """Nodes in pre-order. feature[i] == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # (n_nodes, 2) class counts from the bootstrap sample

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index each row of X lands in, walking all rows level by level."""
        node = np.zeros(len(X), dtype=np.intp)
        active = np.nonzero(self.feature[node] >= 0)[0]
        while len(active):
            at = node[active]
            go_left = X[active, self.feature[at]] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[self.feature[node[active]] >= 0]
        return node

    def vote(self, X: np.ndarray) -> np.ndarray:
        """1 where the row's leaf holds a strict adtracker majority, else 0."""
        c = self.counts[self.apply(X)]
        return (c[:, 1] > c[:, 0]).astype(np.int64)


@dataclass
class ForestModel:
    trees: list[Tree]
    feature_count: int
    params: ForestParams
    classes: tuple[str, str] = CLASSES
    in_bag: list[np.ndarray] = field(default_factory=list, repr=False)  # not persisted


def _gini(c0: float, c1: float) -> float:
    n = c0 + c1
    return 1.0 - (c0 * c0 + c1 * c1) / (n * n) if n else 0.0


def _best_split(
    X: np.ndarray, y: np.ndarray, idx: np.ndarray, feats: np.ndarray, c0: int, c1: int
):
    """Lowest weighted-Gini (feature, threshold) over candidate midpoints.

    All of the node's candidate features are sorted and scored in one pass;
    columns constant at the node cannot split and are dropped first. The
    boundaries are enumerated column-major (feature by feature, each in
    ascending value order), so the first minimum ``argmin`` meets is the
    lowest feature index and, within it, the lowest threshold.
    """
    n = len(idx)
    x = X[np.ix_(idx, feats)]
    varies = x.min(axis=0) < x.max(axis=0)
    if not varies.any():
        return None
    x, feats = x[:, varies], feats[varies]
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    cum1 = np.cumsum(y[idx][order], axis=0)
    col, pos = np.nonzero((xs[:-1] < xs[1:]).T)
    ln = pos + 1.0
    l1 = cum1[pos, col].astype(float)
    l0 = ln - l1
    rn = n - ln
    r1 = c1 - l1
    r0 = rn - r1
    gl = 1.0 - (l0 * l0 + l1 * l1) / (ln * ln)
    gr = 1.0 - (r0 * r0 + r1 * r1) / (rn * rn)
    weighted = (ln * gl + rn * gr) / n
    k = int(np.argmin(weighted))
    if weighted[k] >= _gini(c0, c1) - 1e-12:
        return None  # no improving split
    c, p = col[k], pos[k]
    return float(weighted[k]), int(feats[c]), float((xs[p, c] + xs[p + 1, c]) / 2.0)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample: np.ndarray,
    params: ForestParams,
    mtry: int,
    rng: np.random.Generator,
) -> Tree:
    d = X.shape[1]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[tuple[int, int]] = []

    # Explicit pre-order construction; (indices, depth, parent, is_left).
    stack = [(sample, 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        node = len(feature)
        if parent >= 0:
            if is_left:
                left[parent] = node
            else:
                right[parent] = node
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
        feats = np.sort(rng.choice(d, size=mtry, replace=False))
        found = _best_split(X, y, idx, feats, c0, c1)
        if found is None:
            continue
        _, f, thr = found
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        # Push right first so the left subtree is emitted next (pre-order).
        stack.append((idx[~go_left], depth + 1, node, False))
        stack.append((idx[go_left], depth + 1, node, True))

    return Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        counts=np.array(counts, dtype=np.int64),
    )


def _validate_training_data(X: np.ndarray, y: np.ndarray):
    if X.ndim != 2:
        raise ForestError("X must be a 2-D matrix")
    if len(X) != len(y):
        raise ForestError("X and y length mismatch")
    if len(X) < 2:
        raise ForestError("need at least 2 training rows")
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        r, c = bad[0]
        raise ForestError(f"non-finite feature value at row {r}, column {c}")
    present = set(np.unique(y).tolist())
    if not present <= {0, 1}:
        raise ForestError(f"labels must be 0/1, got {sorted(present)}")
    if len(present) < 2:
        raise ForestError("training data contains a single class")


def train(X, y, params: ForestParams) -> ForestModel:
    params.validate()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _validate_training_data(X, y)
    n, d = X.shape
    mtry = params.resolve_mtry(d)

    trees = []
    in_bag = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=params.seed, spawn_key=(t,))
        )
        sample = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X, y, sample, params, mtry, rng))
        in_bag.append(sample)
    return ForestModel(
        trees=trees, feature_count=d, params=params, in_bag=in_bag
    )


def predict(model: ForestModel, X) -> tuple[np.ndarray, np.ndarray]:
    """(majority labels, fraction of trees voting adtracker) per row of X.

    An exact tie votes benign: blocking should not ride on a coin flip.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise ForestError(
            f"expected {model.feature_count} features, got {X.shape}"
        )
    votes = sum(tree.vote(X) for tree in model.trees)
    scores = votes / len(model.trees)
    return (scores > 0.5).astype(np.int64), scores


def oob_predict(model: ForestModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-bag vote per training row.

    Rows must align with the matrix the model was trained on. Each row is
    scored only by trees whose bootstrap missed it, which estimates how the
    forest generalizes to that point instead of echoing its training label.
    Rows every tree saw (vanishingly rare with many trees) fall back to the
    full-forest vote.
    """
    if not model.in_bag:
        raise ForestError("model carries no bootstrap record (loaded from file?)")
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    if n != len(model.in_bag[0]):
        raise ForestError(
            f"out-of-bag scoring needs the training matrix: got {n} rows, "
            f"trained on {len(model.in_bag[0])}"
        )
    votes = np.zeros(n)
    counts = np.zeros(n)
    for tree, sample in zip(model.trees, model.in_bag):
        out_of_bag = np.ones(n, dtype=bool)
        out_of_bag[sample] = False
        votes += out_of_bag * tree.vote(X)
        counts += out_of_bag
    scores = np.divide(votes, counts, out=np.zeros(n), where=counts > 0)
    every_tree_saw = counts == 0
    if every_tree_saw.any():
        _, scores[every_tree_saw] = predict(model, X[every_tree_saw])
    labels = (scores > 0.5).astype(np.int64)
    return labels, scores


def feature_importance(model: ForestModel) -> list[tuple[int, float]]:
    """Mean impurity decrease per feature, normalized to sum 1."""
    totals = np.zeros(model.feature_count)
    for tree in model.trees:
        n_root = tree.counts[0].sum()
        for i in range(len(tree.feature)):
            f = tree.feature[i]
            if f < 0:
                continue
            c0, c1 = tree.counts[i]
            lc0, lc1 = tree.counts[tree.left[i]]
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


def save_model(model: ForestModel) -> bytes:
    """Versioned flat text: params, then each tree in pre-order."""
    lines = [
        "widetrack-forest\tv1",
        "classes\t" + "\t".join(model.classes),
        f"feature_count\t{model.feature_count}",
        "params\t" + "\t".join(f"{k}={getattr(model.params, k)}" for k in _PARAM_KEYS),
        f"trees\t{len(model.trees)}",
    ]
    for t, tree in enumerate(model.trees):
        lines.append(f"tree\t{t}\t{len(tree.feature)}")
        for i in range(len(tree.feature)):
            c0, c1 = tree.counts[i]
            if tree.feature[i] < 0:
                lines.append(f"l\t{c0}\t{c1}")
            else:
                lines.append(
                    f"n\t{tree.feature[i]}\t{float(tree.threshold[i])!r}\t{c0}\t{c1}"
                )
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_model(data: bytes) -> ForestModel:
    """Inverse of save_model; any defect raises ForestFormatError naming its line."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    no = 0  # 1-based number of the line last read

    def take(key: str | None = None, n_values: int | None = None) -> list[str]:
        nonlocal no
        no += 1
        if no > len(lines):
            raise ForestFormatError("file ends early")
        cells = lines[no - 1].decode("utf-8").split("\t")
        if key is not None and cells[0] != key:
            raise ForestFormatError(f"expected a {key!r} line, got {cells[0][:40]!r}")
        if n_values is not None and len(cells) - 1 != n_values:
            raise ForestFormatError(f"{key!r} line has {len(cells) - 1} values, not {n_values}")
        return cells

    try:
        if take("widetrack-forest", 1)[1] != "v1":
            raise ForestFormatError("unrecognized model version")
        if tuple(take("classes")[1:]) != CLASSES:
            raise ForestFormatError(f"classes must be {' '.join(CLASSES)}")
        feature_count = int(take("feature_count", 1)[1])
        raw = dict(item.partition("=")[::2] for item in take("params")[1:])
        for key in (*_PARAM_KEYS, *raw):
            if (key in raw) != (key in _PARAM_KEYS):
                state = "has no" if key in _PARAM_KEYS else "has unknown key"
                raise ForestFormatError(f"params line {state} {key!r}")
        params = ForestParams(**{
            k: None if v == "None" and k in ("mtry", "max_depth") else int(v)
            for k, v in raw.items()
        })
        params.validate()
        n_trees = int(take("trees", 1)[1])
        if feature_count < 1 or n_trees < 1:
            raise ForestFormatError("model needs at least one feature and one tree")
        trees = []
        for t in range(n_trees):
            _, index, n_nodes = take("tree", 2)
            n = int(n_nodes)
            if index != str(t) or not 1 <= n <= len(lines) - no:
                raise ForestFormatError(f"expected tree {t} of 1 to {len(lines) - no} nodes")
            tree = Tree(
                feature=np.full(n, -1, dtype=np.int32),
                threshold=np.zeros(n),
                left=np.full(n, -1, dtype=np.int32),
                right=np.full(n, -1, dtype=np.int32),
                counts=np.zeros((n, 2), dtype=np.int64),
            )
            pending = []  # pre-order: (parent, its left or right array) awaiting a child
            for node in range(n):
                kind, *values = take()
                if pending:
                    parent, child = pending.pop()
                    child[parent] = node
                elif node:
                    raise ForestFormatError("tree has trailing nodes")
                if (kind, len(values)) == ("n", 4):
                    f, thr = int(values[0]), float(values[1])
                    if not 0 <= f < feature_count:
                        raise ForestFormatError(f"unknown feature {f}")
                    if not math.isfinite(thr):
                        raise ForestFormatError(f"non-finite threshold {values[1]!r}")
                    tree.feature[node], tree.threshold[node] = f, thr
                    pending += [(node, tree.right), (node, tree.left)]
                    values = values[2:]
                elif (kind, len(values)) != ("l", 2):
                    raise ForestFormatError(f"bad node line {kind[:40]!r}")
                counts = [int(v) for v in values]
                if min(counts) < 0 or sum(counts) == 0:
                    raise ForestFormatError(f"impossible class counts {' '.join(values)}")
                tree.counts[node] = counts
            if pending:
                raise ForestFormatError("tree is truncated")
            inner = np.flatnonzero(tree.feature >= 0)
            sums = tree.counts[tree.left[inner]] + tree.counts[tree.right[inner]]
            bad = inner[(tree.counts[inner] != sums).any(axis=1)]
            if bad.size:
                no -= n - 1 - int(bad[0])  # back to that node's line
                raise ForestFormatError("class counts differ from the sum of the children's")
            trees.append(tree)
        if no < len(lines):
            no += 1
            raise ForestFormatError("trailing line after the last tree")
    # UnicodeDecodeError and ForestError included; OverflowError is a count
    # past int64.
    except (ValueError, OverflowError) as exc:
        raise ForestFormatError(f"line {no}: {exc}") from exc
    return ForestModel(trees=trees, feature_count=feature_count, params=params)
