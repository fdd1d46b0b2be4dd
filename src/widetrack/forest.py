"""Random forest built from scratch: bootstrap sampling, Gini splits over a
random feature subset at each node, majority vote over trees.

Per-tree randomness comes from independent streams seeded by (seed, tree
index), so trees can be grown in any order, or interleaved, without
changing the result. Training relies on that twice over:

- ``_presort`` builds a column index once per ``train``: each column's
  nonzero cells, sorted by value. A node scores a column from its bootstrap
  multiplicities over those cells; all of its zero cells count as one group
  at value 0. The keyword block is mostly zeros, so a node costs the
  nonzeros of its candidate columns, not its rows times its columns, and
  only the cells of its own rows reach the label and value reads.
- ``_grow_group`` grows a group of trees in lockstep: as many as keep
  trees x (n + 1) cells within ``_GROUP_CELLS``, so every tree at a few
  hundred rows. Its frontier is arrays: each tree's stack of pending nodes
  that may split is a row of one int array, and their bootstrap rows lie in
  one pool. A step pops every live tree's next such node in pre-order,
  scores them all in one segmented numpy pass (``_best_splits``), routes
  the rows of every node that splits, a chunk of whole nodes at a time,
  and pushes the children that may split. A child's class counts come
  from its parent's split, so the labels are summed once per tree, at the
  root. Nodes are numbered as they are made; their places in pre-order
  are worked out once the group is grown, one step's batch at a time.

Neither changes a split. Each tree draws in the same order, every boundary
is scored with the same Gini expression, term for term, and ties go to the
lowest feature, then the lowest threshold. A trained model is byte for byte
the one that growing one tree and one node at a time gives; the tests keep
that grower as their oracle.

Scoring has one walk, ``_walk``: the node arrays of a block of trees laid
end to end, every (tree, row) pair moving down one level per step. Blocks
hold at most ``_PASS_ENTRIES`` pairs. ``predict`` walks every tree with
every row; ``oob_predict`` walks each tree with only the rows its bootstrap
missed.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .lines import read_lines

CLASSES = ("benign", "adtracker")  # the label of each class index


class ForestError(ValueError):
    pass


class ForestFormatError(ForestError):
    """Raised when a persisted model cannot be decoded."""


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
        """The one check of each parameter, from a config or a model file."""
        if self.n_trees < 1:
            raise ForestError("n_trees must be >= 1")
        if self.min_samples_split < 2:
            raise ForestError("min_samples_split must be >= 2")
        if self.max_depth is not None and self.max_depth < 0:
            raise ForestError("max_depth must be >= 0")
        if self.mtry is not None and self.mtry < 1:
            raise ForestError(f"mtry must be >= 1, got {self.mtry}")
        if self.seed < 0:
            raise ForestError(f"forest seed must be >= 0, got {self.seed}")


_PARAM_KEYS = tuple(f.name for f in fields(ForestParams))


@dataclass
class Tree:
    """Nodes in pre-order. feature[i] == -1 marks a leaf; a split node i has
    its left child at i + 1 and its right child at right[i]."""

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # (n_nodes, 2) class counts from the bootstrap sample


@dataclass
class ForestModel:
    trees: list[Tree]
    feature_count: int
    params: ForestParams
    in_bag: list[np.ndarray] = field(default_factory=list, repr=False)  # not persisted


def _gini_rows(counts: np.ndarray) -> np.ndarray:
    """Gini impurity 1 - (c0 * c0 + c1 * c1) / (n * n) of each (c0, c1) row,
    n = c0 + c1; 0 where n is 0."""
    c0, c1 = counts[:, 0], counts[:, 1]
    n = c0 + c1
    return 1.0 - np.divide(c0 * c0 + c1 * c1, n * n, out=np.ones(len(n)), where=n > 0)


# Trees grown in one lockstep group: as many as keep trees x (n + 1) within
# this many cells (a step's multiplicity matrix holds n + 1 counts per tree,
# counted in 8 bytes before it is narrowed, and its row pool n rows), 64
# trees at n = 10k rows.
_GROUP_CELLS = 64 * 10001
_DRAW_TREES = 64  # generators per _feature_sets call, and the most trees a refill's k fits
# Column entries scored in one numpy pass, (tree, row) pairs walked in one
# scoring block or routed in one chunk of a step, and features drawn ahead
# in one refill. A pass keeps about a dozen temporaries of 8 bytes per entry,
# so 16k entries (plus at most one column or node past the budget) bound its
# temporaries at about 1.5 MB. The others keep a few arrays of 8 bytes per
# pair or feature, so the same budget bounds them too.
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


def _threshold(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The midpoint of each neighbouring pair, or ``lo`` where the midpoint
    rounds up to ``hi`` (adjacent floats) or overflows: a threshold equal
    to ``hi`` would send every row left."""
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return np.where((mid < hi) & np.isfinite(mid), mid, lo)


def _ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices start[i] .. start[i] + size[i] - 1 of every range, end to end."""
    index = np.repeat(start - (np.cumsum(size) - size), size)
    index += np.arange(len(index))
    return index


def _best_splits(cols: _Columns, rows, sizes, class1, feats: np.ndarray) -> tuple:
    """Lowest weighted-Gini split of each node, as arrays (split, impurity,
    feature, threshold, left rows, left class-1 rows): split is False where
    no candidate lowers the node's Gini, and the left counts are bootstrap
    rows, repeats included. ``rows`` holds the nodes' bootstrap rows end to
    end, ``sizes`` and ``class1`` count them, and row j of ``feats`` holds
    node j's sorted candidate features.

    A node scores column f from its row multiplicities over f's nonzero
    cells; all of its zero cells form one group at value 0. The (node,
    feature) segments lie end to end, node by node and each node's features
    ascending, and are scored in passes of about ``_PASS_ENTRIES`` entries.
    Every boundary between two distinct values present at the node is
    scored with the per-node expression, and a node keeps the first minimum
    it meets (a later pass wins only by a strict improvement): the lowest
    feature, then the lowest threshold.
    """
    m, n1 = len(sizes), cols.n + 1
    key = np.repeat(np.arange(m) * n1, sizes)
    key += rows
    del rows  # the grower keeps no reference: its rows go here
    # A node's multiplicities sum to at most n: the narrowest signed int
    # holding +n (min_scalar_type(-n) alone gives int8 at n = 128).
    mult = np.bincount(key, minlength=m * n1).astype(np.min_scalar_type(-(cols.n + 1)))
    del key
    # Each (node, feature) segment's node, feature and column entries.
    seg_node = np.repeat(np.arange(m), feats.shape[1])
    seg_feat = feats.ravel()
    seg_start = cols.start[seg_feat]
    seg_len = cols.start[seg_feat + 1] - seg_start
    cuts = np.flatnonzero(np.diff((np.cumsum(seg_len) - 1) // _PASS_ENTRIES)) + 1
    best = np.full(m, np.inf)
    best_feat = np.zeros(m, dtype=np.int64)
    best_thr = np.zeros(m)
    best_left = np.zeros((m, 2), dtype=np.int64)

    def score(a, b):
        """Scores segments a:b into the best arrays; a function, so that
        its arrays go before the next pass's are made."""
        node, length = seg_node[a:b], seg_len[a:b]
        first = length.cumsum() - length
        entry = _ranges(seg_start[a:b], length)
        # Each entry weighs its row's multiplicity at the segment's node, and a
        # zero slot (row n, weight 0 so far) what the nonzeros leave. Only
        # weights > 0 go on; each segment keeps one, for each row has a cell.
        w = mult[(node * n1).repeat(length) + cols.rows[entry]]
        zero = first + cols.zero_at[seg_feat[a:b]] - seg_start[a:b]
        w[zero] = sizes[node] - np.add.reduceat(w, first)
        kept = (w > 0).nonzero()[0]
        head = kept.searchsorted(first)
        has_zero = w[zero] > 0
        zero = kept.searchsorted(zero[has_zero])
        entry, w = entry[kept], w[kept]
        x = cols.values[entry]
        w1 = w * cols.labels[entry]
        del kept, entry
        w1[zero] = (class1[node] - np.add.reduceat(w1, head))[has_zero]
        seg = np.arange(b - a).repeat(np.diff(head, append=len(w)))
        # A boundary lies between neighbours of one segment with distinct values.
        pos = ((seg[:-1] == seg[1:]) & (x[:-1] < x[1:])).nonzero()[0]
        if not len(pos):
            return
        # Left-side counts: running sums less the sums before the segment.
        cw, cw1 = w.cumsum(dtype=np.int64), w1.cumsum()
        s = seg[pos]
        left_n = cw[pos] - (cw[head] - w[head])[s]
        left_1 = cw1[pos] - (cw1[head] - w1[head])[s]
        del cw, cw1
        ln, l1 = left_n.astype(np.float64), left_1.astype(np.float64)
        at = node[s]
        n, c1 = sizes[at], class1[at]
        l0 = ln - l1
        rn = n - ln
        r1 = c1 - l1
        r0 = rn - r1
        gl = 1.0 - (l0 * l0 + l1 * l1) / (ln * ln)
        gr = 1.0 - (r0 * r0 + r1 * r1) / (rn * rn)
        weighted = (ln * gl + rn * gr) / n
        # A node's first minimum: its first hit at or after its group's head.
        new = np.concatenate(([True], at[1:] != at[:-1]))
        group = new.nonzero()[0]
        low = np.minimum.reduceat(weighted, group)
        hit = (weighted == low[new.cumsum() - 1]).nonzero()[0]
        hit = hit[hit.searchsorted(group)]
        better = low < best[at[group]]
        who, hit = at[group][better], hit[better]
        best[who] = low[better]
        best_feat[who] = seg_feat[a:b][s[hit]]
        best_thr[who] = _threshold(x[pos[hit]], x[pos[hit] + 1])
        best_left[who, 0], best_left[who, 1] = left_n[hit], left_1[hit]

    for a, b in zip([0, *cuts], [*cuts, len(seg_feat)]):
        score(a, b)
    split = best < _gini_rows(np.column_stack((sizes - class1, class1))) - 1e-12
    return split, best, best_feat, best_thr, best_left[:, 0], best_left[:, 1]


def _feature_sets(rngs: list[np.random.Generator], k: int, d: int, mtry: int) -> np.ndarray:
    """(len(rngs), k, mtry): each generator's next k feature sets, sorted.

    A set is Floyd's sample of mtry of range(d) (Bentley and Floyd, "A
    sample of brilliance", CACM 1987): for j = d - mtry .. d - 1, draw
    ``integers(0, j + 1)`` and take that value, or j where the value is
    already taken; then draw ``integers(0, i + 1)`` for i = mtry - 1 .. 1
    and discard those draws. Where numpy's ``choice`` runs Floyd's algorithm
    (d <= 10000 or mtry <= d // 50), a set is
    ``np.sort(rng.choice(d, mtry, replace=False))``, whose shuffle makes the
    discarded draws. One ``integers`` call per generator draws its k sets.
    """
    highs = np.concatenate((np.arange(d - mtry + 1, d + 1), np.arange(mtry, 1, -1)))
    v = np.concatenate([rng.integers(0, highs, size=(k, len(highs)))[:, :mtry] for rng in rngs])
    # Draw i's value is taken iff it came up at an earlier draw (seen), or it
    # is the j of an earlier draw whose value was taken, which then took that j.
    # Sorting v * mtry + i puts each value's draws next to each other, in order.
    keyed = np.sort(v * mtry + np.arange(mtry), axis=1)
    seen = np.zeros(v.shape, dtype=bool)
    np.put_along_axis(seen, keyed[:, 1:] % mtry, np.diff(keyed // mtry, axis=1) == 0, axis=1)
    draw, of = np.arange(mtry), v - (d - mtry)  # the draw whose j is v, if v >= d - mtry
    earlier = np.where((of >= 0) & (of < draw), of, draw)  # else the draw itself
    taken = seen
    while not np.array_equal(taken, more := seen | np.take_along_axis(taken, earlier, axis=1)):
        taken = more
    v = np.where(taken, draw + (d - mtry), v)
    return np.sort(v, axis=1).reshape(len(rngs), k, mtry)


def _compact(pool: np.ndarray, stack: np.ndarray, top: np.ndarray) -> int:
    """Moves every pending node's rows to the front of ``pool``; returns their end."""
    pending = np.arange(stack.shape[1]) < top[:, None]
    size = stack[pending, 2]
    pool[:size.sum()] = pool[_ranges(stack[pending, 1], size)]
    stack[pending, 1] = np.cumsum(size) - size
    return size.sum()


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

    ``stack[t]`` holds tree t's pending nodes that may split, as (node, pool
    start, rows, class-1 rows, depth). A tree's pending nodes hold disjoint
    rows, so the pool's live rows never exceed n per tree; it is compacted
    when it fills. Each tree takes one feature set per step, drawn ahead: a
    refill draws k sets per live tree, k = ``_PASS_ENTRIES`` // (min(group
    size, ``_DRAW_TREES``) * mtry), however few trees are left. A tree thus
    draws at most k - 1 sets past its last node, which nothing reads.
    """
    n, d = X.shape
    trees = len(samples)
    max_depth = math.inf if params.max_depth is None else params.max_depth

    def may_split(depth, c0, c1):
        return (c0 > 0) & (c1 > 0) & (c0 + c1 >= params.min_samples_split) & (depth < max_depth)

    pool = np.concatenate(samples)
    c1 = np.count_nonzero(y.astype(bool)[pool].reshape(trees, n), axis=1)
    counts = [np.column_stack((n - c1, c1))]  # class counts, a batch per step
    splits = []  # (node, feature, threshold, left child) per step; right at + 1
    stack = np.zeros((trees, 8, 5), dtype=np.int64)
    root = np.arange(trees)
    stack[:, 0, :4] = np.column_stack((root, root * n, np.full(trees, n), c1))
    top = may_split(0, n - c1, c1).astype(np.int64)
    end, n_nodes = len(pool), trees
    k = max(1, _PASS_ENTRIES // (min(trees, _DRAW_TREES) * mtry))
    drawn, used = np.zeros((trees, k, mtry), dtype=np.int32), k
    while len(live := np.flatnonzero(top)):
        top[live] -= 1
        node, start, size, class1, depth = stack[live, top[live]].T
        if used == k:  # every live tree has taken all its sets
            for a in range(0, len(live), _DRAW_TREES):
                chunk = live[a:a + _DRAW_TREES]
                drawn[chunk] = _feature_sets([rngs[t] for t in chunk], k, d, mtry)
            used = 0
        split, _, feat, thr, ln, l1 = _best_splits(
            cols, pool[_ranges(start, size)], size, class1, drawn[live, used]
        )
        used += 1
        if not split.any():
            continue
        live, node, start, size, class1, depth, feat, thr, ln, l1 = (
            v[split] for v in (live, node, start, size, class1, depth, feat, thr, ln, l1)
        )
        # The split nodes' rows, each node's in order, are routed through X's
        # flat cells row * d + feature, in whole-node chunks of ~_PASS_ENTRIES.
        rows, ends = pool[_ranges(start, size)], np.cumsum(size)
        go_left = np.empty(len(rows), dtype=bool)
        cuts = [0, *(np.flatnonzero(np.diff((ends - 1) // _PASS_ENTRIES)) + 1), len(size)]
        for p, q in zip(cuts[:-1], cuts[1:]):
            a, b, at = ends[p] - size[p], ends[q - 1], np.arange(p, q).repeat(size[p:q])
            go_left[a:b] = X.take(rows[a:b] * np.int64(d) + feat[at]) <= thr[at]
        child = n_nodes + 2 * np.arange(len(node))
        n_nodes += 2 * len(node)
        splits.append((node, feat, thr, child))
        rn, r1 = size - ln, class1 - l1
        counts.append(np.column_stack((ln - l1, l1, rn - r1, r1)).reshape(-1, 2))
        may_left, may_right = may_split(depth + 1, ln - l1, l1), may_split(depth + 1, rn - r1, r1)
        lefts = rows[go_left & np.repeat(may_left, size)]
        rights = rows[~go_left & np.repeat(may_right, size)]
        del rows, go_left  # not held through the next step's scan
        if end + len(lefts) + len(rights) > len(pool):
            end = _compact(pool, stack, top)
        if top.max() + 2 > stack.shape[1]:
            stack = np.concatenate((stack, np.zeros_like(stack)), axis=1)
        # Right children first, so that each tree pops its left child next.
        for kid, kid_n, kid_1, may, moved in (
            (child + 1, rn, r1, may_right, rights),
            (child, ln, l1, may_left, lefts),
        ):
            t, pushed = live[may], np.column_stack((kid, kid, kid_n, kid_1, depth + 1))[may]
            pushed[:, 1] = end + np.cumsum(pushed[:, 2]) - pushed[:, 2]
            stack[t, top[t]] = pushed
            top[t] += 1
            pool[end:end + len(moved)] = moved
            end += len(moved)

    size = np.ones(n_nodes, dtype=np.int64)  # of each node's subtree
    for node, _, _, child in reversed(splits):
        size[node] += size[child] + size[child + 1]
    ends = np.cumsum(size[:trees])
    at = np.zeros(n_nodes, dtype=np.int64)  # place in the trees' pre-orders, end to end
    at[:trees] = ends - size[:trees]
    feature, threshold, right = np.full(n_nodes, -1), np.zeros(n_nodes), np.full(n_nodes, -1)
    for node, feat, thr, child in splits:
        at[child] = at[node] + 1
        at[child + 1] = at[child] + size[child]
        feature[at[node]], threshold[at[node]], right[at[node]] = feat, thr, at[child + 1]
    ordered = np.empty((n_nodes, 2), dtype=np.int64)
    ordered[at] = np.concatenate(counts)
    return [
        Tree(feature[a:b].astype(np.int32), threshold[a:b],
             np.where(right[a:b] < 0, -1, right[a:b] - a).astype(np.int32), ordered[a:b])
        for a, b in zip(ends - size[:trees], ends)
    ]


def _validate_training_data(X: np.ndarray, y: np.ndarray):
    if X.ndim != 2:
        raise ForestError("X must be a 2-D matrix")
    if X.shape[1] == 0:
        raise ForestError("the training matrix has no feature columns")
    if len(X) != len(y):
        raise ForestError("X and y length mismatch")
    if len(X) < 2:
        raise ForestError("need at least 2 training rows")
    if not np.isfinite(X).all():
        r, c = np.argwhere(~np.isfinite(X))[0]
        raise ForestError(f"non-finite feature value at row {r}, column {c}")
    present = set(y.ravel().tolist())  # labels as given: 0.7 is refused, not cast to 0
    if not present <= {0, 1}:
        raise ForestError(f"labels must be 0/1, got {sorted(map(repr, present - {0, 1}))}")
    if len(present) < 2:
        raise ForestError("training data contains a single class")


def train(X, y, params: ForestParams) -> ForestModel:
    params.validate()
    X = np.asarray(X, dtype=np.float64, order="C")  # routing reads X's flat cells
    y = np.asarray(y)
    _validate_training_data(X, y)
    y = y.astype(np.int64)
    n, d = X.shape
    mtry = params.resolve_mtry(d)

    cols = _presort(X, y)
    trees: list[Tree] = []
    in_bag: list[np.ndarray] = []
    group = max(1, _GROUP_CELLS // (n + 1))
    for first in range(0, params.n_trees, group):
        rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=params.seed, spawn_key=(t,)))
            for t in range(first, min(first + group, params.n_trees))
        ]
        samples = [rng.integers(0, n, size=n).astype(np.int32) for rng in rngs]
        trees += _grow_group(X, y, cols, samples, rngs, params, mtry)
        in_bag += samples
    return ForestModel(
        trees=trees, feature_count=d, params=params, in_bag=in_bag
    )


def _joined(trees: list[Tree]) -> tuple[Tree, np.ndarray]:
    """The trees' nodes laid end to end as one node table, each right child
    shifted with its tree, plus the index of each tree's root in it."""
    root = np.cumsum([0] + [len(tree.feature) for tree in trees[:-1]])
    nodes = Tree(
        feature=np.concatenate([tree.feature for tree in trees]),
        threshold=np.concatenate([tree.threshold for tree in trees]),
        right=np.concatenate([tree.right + r for tree, r in zip(trees, root)]),
        counts=np.concatenate([tree.counts for tree in trees]),
    )
    return nodes, root


def _walk(nodes: Tree, X: np.ndarray, node: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Leaf of node table ``nodes`` that each (node, row of X) pair reaches,
    moving ``node`` from each start node in place. Every pair moves one level
    per step; a NaN cell goes right."""
    active = np.flatnonzero(nodes.feature[node] >= 0)
    while len(active):
        at = node[active]
        go_left = X[row[active], nodes.feature[at]] <= nodes.threshold[at]
        node[active] = np.where(go_left, at + 1, nodes.right[at])
        active = active[nodes.feature[node[active]] >= 0]
    return node


def _votes(trees: list[Tree], X: np.ndarray, row_sets):
    """(rows, 0/1 adtracker votes) of the (tree, row) pairs that pair tree t
    with each row of X in the t-th array of ``row_sets``.

    Pairs are walked in tree order, in blocks of at most ``_PASS_ENTRIES``,
    so the walk's temporaries stay bounded; a tree's pairs may span blocks.
    """
    block, room = [], _PASS_ENTRIES
    for t, rows in enumerate(row_sets):
        while len(rows):
            piece, rows = rows[:room], rows[room:]
            block.append((trees[t], piece))
            room -= len(piece)
            if not room:
                yield _block_votes(block, X)
                block, room = [], _PASS_ENTRIES
    if block:
        yield _block_votes(block, X)


def _block_votes(block: list[tuple[Tree, np.ndarray]], X: np.ndarray):
    """(rows, votes) of one block of (tree, rows of X) pieces, in order."""
    nodes, root = _joined([tree for tree, _ in block])
    start = np.repeat(root, [len(rows) for _, rows in block])
    rows = np.concatenate([rows for _, rows in block])
    leaf = _walk(nodes, X, start, rows)
    return rows, nodes.counts[leaf, 1] > nodes.counts[leaf, 0]


def _scored_matrix(model: ForestModel, X) -> np.ndarray:
    """X as a float matrix of the model's width, the one check of it."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise ForestError(f"expected {model.feature_count} features, got {X.shape}")
    return X


def predict(model: ForestModel, X) -> tuple[np.ndarray, np.ndarray]:
    """(majority labels, fraction of trees voting adtracker) per row of X.

    An exact tie votes benign: blocking should not ride on a coin flip.
    """
    X = _scored_matrix(model, X)
    every_row = np.arange(len(X))
    votes = np.zeros(len(X), dtype=np.int64)
    for rows, voted in _votes(model.trees, X, [every_row] * len(model.trees)):
        votes += np.bincount(rows[voted], minlength=len(X))
    scores = votes / len(model.trees)
    return (scores > 0.5).astype(np.int64), scores


def oob_predict(model: ForestModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-bag vote per training row.

    Rows must align with the matrix the model was trained on. Each row is
    scored only by trees whose bootstrap missed it, which estimates how the
    forest generalizes to that point instead of echoing its training label;
    each tree walks only those rows. Rows every tree saw (vanishingly rare
    with many trees) fall back to the full-forest vote.
    """
    if not model.in_bag:
        raise ForestError("model carries no bootstrap record (loaded from file?)")
    X = _scored_matrix(model, X)
    n = len(X)
    if n != len(model.in_bag[0]):
        raise ForestError(
            f"out-of-bag scoring needs the training matrix: got {n} rows, "
            f"trained on {len(model.in_bag[0])}"
        )
    out_of_bag = (np.flatnonzero(np.bincount(s, minlength=n) == 0) for s in model.in_bag)
    votes = np.zeros(n, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    for rows, voted in _votes(model.trees, X, out_of_bag):
        votes += np.bincount(rows[voted], minlength=n)
        counts += np.bincount(rows, minlength=n)
    scores = np.divide(votes, counts, out=np.zeros(n), where=counts > 0)
    every_tree_saw = counts == 0
    if every_tree_saw.any():
        _, scores[every_tree_saw] = predict(model, X[every_tree_saw])
    labels = (scores > 0.5).astype(np.int64)
    return labels, scores


def feature_importance(model: ForestModel) -> list[tuple[int, float]]:
    """Mean impurity decrease per feature, normalized to sum 1.

    Every tree's split nodes are scored in one pass over the trees' nodes
    laid end to end, and added into the totals with one ``np.add.at``,
    which adds in that order, tree by tree and node by node, so every float
    sum is the one a node-by-node loop makes.
    """
    nodes, root = _joined(model.trees)
    sizes = np.diff(np.append(root, len(nodes.feature)))
    root_n = np.repeat(nodes.counts[root].sum(axis=1), sizes)
    inner = np.flatnonzero(nodes.feature >= 0)
    c, lc, rc = (nodes.counts[i] for i in (inner, inner + 1, nodes.right[inner]))
    n, ln, rn = c.sum(axis=1), lc.sum(axis=1), rc.sum(axis=1)
    decrease = _gini_rows(c) - (ln * _gini_rows(lc) + rn * _gini_rows(rc)) / n
    totals = np.zeros(model.feature_count)
    np.add.at(totals, nodes.feature[inner], (n / root_n[inner]) * decrease)
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
        "classes\t" + "\t".join(CLASSES),
        f"feature_count\t{model.feature_count}",
        "params\t" + "\t".join(f"{k}={getattr(model.params, k)}" for k in _PARAM_KEYS),
        f"trees\t{len(model.trees)}",
    ]
    for t, tree in enumerate(model.trees):
        lines.append(f"tree\t{t}\t{len(tree.feature)}")
        lines += [
            f"l\t{c0}\t{c1}" if f < 0 else f"n\t{f}\t{thr!r}\t{c0}\t{c1}"
            for f, thr, (c0, c1) in zip(
                tree.feature.tolist(), tree.threshold.tolist(), tree.counts.tolist()
            )
        ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_model(data: bytes, source: str = "model file") -> ForestModel:
    """Inverse of save_model, read by ``read_lines``; any defect raises
    ForestFormatError naming ``source`` and its line."""
    lines = [line for _, line in read_lines(io.BytesIO(data), source, ForestFormatError)]
    no = 0  # 1-based number of the line last read

    def take(key: str | None = None, n_values: int | None = None) -> list[str]:
        nonlocal no
        no += 1
        if no > len(lines):
            raise ForestFormatError("file ends early")
        cells = lines[no - 1].split("\t")
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
                right=np.full(n, -1, dtype=np.int32),
                counts=np.zeros((n, 2), dtype=np.int64),
            )
            # Pre-order: a node after a split node is its left child; any
            # other node is the right child of the last split node waiting.
            waiting = []
            for node in range(n):
                kind, *values = take()
                if node and tree.feature[node - 1] < 0:
                    if not waiting:
                        raise ForestFormatError("tree has trailing nodes")
                    tree.right[waiting.pop()] = node
                if (kind, len(values)) == ("n", 4):
                    f, thr = int(values[0]), float(values[1])
                    if not 0 <= f < feature_count:
                        raise ForestFormatError(f"unknown feature {f}")
                    if not math.isfinite(thr):
                        raise ForestFormatError(f"non-finite threshold {values[1]!r}")
                    tree.feature[node], tree.threshold[node] = f, thr
                    waiting.append(node)
                    values = values[2:]
                elif (kind, len(values)) != ("l", 2):
                    raise ForestFormatError(f"bad node line {kind[:40]!r}")
                counts = [int(v) for v in values]
                if min(counts) < 0 or sum(counts) == 0:
                    raise ForestFormatError(f"impossible class counts {' '.join(values)}")
                tree.counts[node] = counts
            if waiting:
                raise ForestFormatError("tree is truncated")
            inner = np.flatnonzero(tree.feature >= 0)
            sums = tree.counts[inner + 1] + tree.counts[tree.right[inner]]
            bad = inner[(tree.counts[inner] != sums).any(axis=1)]
            if bad.size:
                no -= n - 1 - int(bad[0])  # back to that node's line
                raise ForestFormatError("class counts differ from the sum of the children's")
            trees.append(tree)
        if no < len(lines):
            no += 1
            raise ForestFormatError("trailing line after the last tree")
    # ForestError included; OverflowError is a count past int64.
    except (ValueError, OverflowError) as exc:
        raise ForestFormatError(f"{source}: line {no}: {exc}") from exc
    return ForestModel(trees=trees, feature_count=feature_count, params=params)
