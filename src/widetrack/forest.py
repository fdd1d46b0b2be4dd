"""Random forest built from scratch: bootstrap sampling, Gini splits over a
random feature subset at each node, majority vote over trees.

Per-tree randomness comes from independent streams seeded by (seed, tree
index), so trees can be grown in any order, or interleaved, without
changing the result. Training relies on that twice over:

- ``_presort`` builds a column index once per ``train``: each column's
  nonzero cells, sorted by value. A node scores a column from its bootstrap
  multiplicities over those cells; all of its zero cells count as one group
  at value 0. The keyword block is mostly zeros, so a node costs the
  nonzeros of its candidate columns, not its rows times its columns.
- ``_grow_group`` grows ``_GROUP_TREES`` trees in lockstep. Each step pops
  the next pre-order node of every tree in the group, draws that node's
  features from its own tree's generator, and scores all of those nodes in
  one segmented numpy pass (``_best_splits``).

Neither changes a split. Each tree draws in the same order, every boundary
is scored with the same Gini expression, term for term, and ties go to the
lowest feature, then the lowest threshold. A trained model is byte for byte
the one that growing one tree and one node at a time gives; the tests keep
that grower as their oracle.
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


def _gini_rows(counts: np.ndarray) -> np.ndarray:
    """``_gini`` of each (c0, c1) row, term for term."""
    c0, c1 = counts[:, 0], counts[:, 1]
    n = c0 + c1
    return 1.0 - np.divide(c0 * c0 + c1 * c1, n * n, out=np.ones(len(n)), where=n > 0)


# Trees grown together in lockstep. Every tree of a group keeps its
# pre-order stack of node row lists alive, and a step's multiplicity matrix
# holds n + 1 int64 per tree; 16 trees bound both.
_GROUP_TREES = 16
# Column entries scored in one numpy pass. A pass keeps about a dozen
# temporaries of 8 bytes per entry, so 16k entries (plus at most one column
# past the budget) bound its temporaries at about 1.5 MB.
_PASS_ENTRIES = 16384


@dataclass
class _Columns:
    """Each column's nonzero cells, presorted by value, plus one zero slot.

    Column f owns entries ``start[f]:start[f + 1]``: its negative cells in
    ascending order, then one slot that stands for all of its zero cells
    (row n, value 0.0), then its positive cells. -0.0 is a zero cell.
    """

    n: int
    start: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    labels: np.ndarray  # y of each entry's row; 0 at the zero slots
    zero_at: np.ndarray  # entry index of each column's zero slot


def _presort(X: np.ndarray, y: np.ndarray) -> _Columns:
    n, d = X.shape
    col, row = np.nonzero(X.T)
    values = np.concatenate([X[row, col], np.zeros(d)])
    col = np.concatenate([col, np.arange(d)])
    row = np.concatenate([row, np.full(d, n)])
    order = np.lexsort((values, col))
    rows = row[order]
    return _Columns(
        n=n,
        start=np.searchsorted(col[order], np.arange(d + 1)),
        rows=rows,
        values=values[order],
        labels=np.append(y, 0)[rows],
        zero_at=np.flatnonzero(rows == n),
    )


def _best_splits(cols: _Columns, nodes: list) -> list:
    """Lowest weighted-Gini (impurity, feature, threshold) of each node, or
    None where no candidate split lowers the node's Gini.

    ``nodes`` holds (bootstrap rows, class-1 count, sorted candidate
    features) per node. A node scores column f from its row multiplicities
    over f's nonzero cells; all of its zero cells form one group at value 0.
    The (node, feature) segments lie end to end, node by node and each
    node's features ascending, and are scored in passes of about
    ``_PASS_ENTRIES`` entries. Every boundary between two distinct values
    present at the node is scored with the per-node expression, and a node
    keeps the first minimum it meets (a later pass wins only by a strict
    improvement): the lowest feature, then the lowest threshold.
    """
    n1 = cols.n + 1
    sizes = np.array([len(idx) for idx, _, _ in nodes])
    class1 = np.array([c1 for _, c1, _ in nodes])
    mult = np.bincount(
        np.concatenate([idx for idx, _, _ in nodes])
        + np.repeat(np.arange(len(nodes)) * n1, sizes),
        minlength=len(nodes) * n1,
    )
    seg_node = np.repeat(np.arange(len(nodes)), [len(f) for _, _, f in nodes])
    seg_feat = np.concatenate([f for _, _, f in nodes])
    seg_len = cols.start[seg_feat + 1] - cols.start[seg_feat]
    cuts = np.flatnonzero(np.diff((np.cumsum(seg_len) - 1) // _PASS_ENTRIES)) + 1
    best = np.full(len(nodes), np.inf)
    best_feat = np.zeros(len(nodes), dtype=np.int64)
    best_thr = np.zeros(len(nodes))
    for a, b in zip([0, *cuts], [*cuts, len(seg_feat)]):
        feat, node, length = seg_feat[a:b], seg_node[a:b], seg_len[a:b]
        first = np.cumsum(length) - length
        entry = np.arange(first[-1] + length[-1]) + np.repeat(cols.start[feat] - first, length)
        seg = np.repeat(np.arange(b - a), length)
        # Each entry weighs its row's multiplicity at the segment's node; the
        # zero slot (row n, weight 0 so far) takes what the nonzeros leave.
        w = mult[np.repeat(node * n1, length) + cols.rows[entry]]
        w1 = w * cols.labels[entry]
        zero = first + cols.zero_at[feat] - cols.start[feat]
        w[zero] = sizes[node] - np.add.reduceat(w, first)
        w1[zero] = class1[node] - np.add.reduceat(w1, first)
        keep = w > 0  # cells of rows outside the node, or no zero cell at it
        seg, w, w1, x = seg[keep], w[keep], w1[keep], cols.values[entry[keep]]
        # A boundary lies between neighbours of one segment with distinct values.
        pos = np.flatnonzero((seg[:-1] == seg[1:]) & (x[:-1] < x[1:]))
        if not len(pos):
            continue
        # Left-side counts: running sums less the sums before the segment.
        cw, cw1 = np.cumsum(w), np.cumsum(w1)
        head = np.searchsorted(seg, np.arange(b - a))  # every segment keeps an entry
        s = seg[pos]
        ln = (cw[pos] - (cw[head] - w[head])[s]).astype(np.float64)
        l1 = (cw1[pos] - (cw1[head] - w1[head])[s]).astype(np.float64)
        at = node[s]
        n, c1 = sizes[at], class1[at]
        l0 = ln - l1
        rn = n - ln
        r1 = c1 - l1
        r0 = rn - r1
        gl = 1.0 - (l0 * l0 + l1 * l1) / (ln * ln)
        gr = 1.0 - (r0 * r0 + r1 * r1) / (rn * rn)
        weighted = (ln * gl + rn * gr) / n
        group = np.flatnonzero(np.concatenate(([True], at[1:] != at[:-1])))
        low = np.minimum.reduceat(weighted, group)
        hit = np.flatnonzero(weighted == np.repeat(low, np.diff(np.append(group, len(at)))))
        hit = hit[np.concatenate(([True], at[hit][1:] != at[hit][:-1]))]  # first minima
        better = low < best[at[hit]]
        who, hit = at[hit][better], hit[better]
        best[who] = low[better]
        best_feat[who] = feat[s[hit]]
        best_thr[who] = (x[pos[hit]] + x[pos[hit] + 1]) / 2.0
    return [
        None
        if best[j] >= _gini(len(idx) - c1, c1) - 1e-12  # no improving split
        else (float(best[j]), int(best_feat[j]), float(best_thr[j]))
        for j, (idx, c1, _) in enumerate(nodes)
    ]


def _grow_group(
    X: np.ndarray,
    y: np.ndarray,
    cols: _Columns,
    samples: list[np.ndarray],
    rngs: list[np.random.Generator],
    params: ForestParams,
    mtry: int,
) -> list[Tree]:
    """One tree per bootstrap sample, grown in lockstep.

    Each step pops the next pre-order node of every tree that has one, draws
    the features of each node that may split from its own tree's generator,
    and scores all of those nodes in one ``_best_splits`` call. Each tree
    meets the same nodes, draws and splits as it would grown alone.
    """
    d = X.shape[1]
    # feature, threshold, left, right, counts: one entry per node, pre-order
    built = [([], [], [], [], []) for _ in samples]
    # Explicit pre-order stacks of (indices, depth, parent, is_left).
    stacks = [[(sample, 0, -1, False)] for sample in samples]
    while any(stacks):
        scored = []
        for t, stack in enumerate(stacks):
            if not stack:
                continue
            idx, depth, parent, is_left = stack.pop()
            feature, threshold, left, right, counts = built[t]
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
            feats = np.sort(rngs[t].choice(d, size=mtry, replace=False))
            scored.append((t, node, depth, (idx, c1, feats)))
        if not scored:
            continue
        for (t, node, depth, (idx, _, _)), found in zip(
            scored, _best_splits(cols, [s[3] for s in scored])
        ):
            if found is None:
                continue
            _, f, thr = found
            go_left = X[idx, f] <= thr
            built[t][0][node] = f
            built[t][1][node] = thr
            # Push right first so the left subtree is emitted next (pre-order).
            stacks[t].append((idx[~go_left], depth + 1, node, False))
            stacks[t].append((idx[go_left], depth + 1, node, True))

    return [
        Tree(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            counts=np.array(counts, dtype=np.int64),
        )
        for feature, threshold, left, right, counts in built
    ]


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

    cols = _presort(X, y)
    trees: list[Tree] = []
    in_bag: list[np.ndarray] = []
    for first in range(0, params.n_trees, _GROUP_TREES):
        rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=params.seed, spawn_key=(t,)))
            for t in range(first, min(first + _GROUP_TREES, params.n_trees))
        ]
        samples = [rng.integers(0, n, size=n) for rng in rngs]
        trees += _grow_group(X, y, cols, samples, rngs, params, mtry)
        in_bag += samples
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
    """Mean impurity decrease per feature, normalized to sum 1.

    Each tree's split nodes are scored in one pass and added into the totals
    with ``np.add.at``, which adds in node order, so every float sum is the
    one a node-by-node loop makes.
    """
    totals = np.zeros(model.feature_count)
    for tree in model.trees:
        inner = np.flatnonzero(tree.feature >= 0)
        c, lc, rc = (tree.counts[i] for i in (inner, tree.left[inner], tree.right[inner]))
        n, ln, rn = c.sum(axis=1), lc.sum(axis=1), rc.sum(axis=1)
        decrease = _gini_rows(c) - (ln * _gini_rows(lc) + rn * _gini_rows(rc)) / n
        np.add.at(totals, tree.feature[inner], (n / tree.counts[0].sum()) * decrease)
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
        if feature_count < 1:
            raise ForestFormatError("model needs at least one feature")
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
        params.resolve_mtry(feature_count)
        n_trees = int(take("trees", 1)[1])
        if n_trees < 1:
            raise ForestFormatError("model needs at least one tree")
        if n_trees != params.n_trees:
            raise ForestFormatError(f"{n_trees} trees, but the params line says n_trees={params.n_trees}")
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
