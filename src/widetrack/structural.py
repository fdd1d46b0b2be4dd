"""Per-node structural features: base graph properties plus recursive
neighbor aggregates with correlation pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import NodeKey, WideGraph, coverage

class BaseFeatureRow(NamedTuple):
    degree: int
    in_degree: int
    out_degree: int
    ego_inter: int
    ego_out: int
    direct_cov: float
    indirect_cov: float


BASE_COLUMNS = BaseFeatureRow._fields


@dataclass
class StructMatrix:
    keys: list[NodeKey]
    columns: list[str]
    values: np.ndarray  # shape (len(keys), len(columns))


def base_features(graph: WideGraph, key: NodeKey) -> BaseFeatureRow:
    """Degrees, egonet edge counts, and coverages for one third-party node.

    The egonet is the node plus all neighbors ignoring direction; ego_inter
    counts directed edges inside it, ego_out those crossing its boundary.
    """
    direct, indirect = coverage(graph, key)  # a GraphError for any other node
    i = graph.ids[key]
    in_deg, out_deg = int(graph.in_degree[i]), int(graph.out_degree[i])
    ego = np.zeros(len(graph.keys), dtype=bool)
    ego[graph.neighbors[i]] = True
    ego[i] = True
    src_in, dst_in = ego[graph.edges.src], ego[graph.edges.dst]
    return BaseFeatureRow(
        degree=in_deg + out_deg,
        in_degree=in_deg,
        out_degree=out_deg,
        ego_inter=int(np.count_nonzero(src_in & dst_in)),
        ego_out=int(np.count_nonzero(src_in ^ dst_in)),
        direct_cov=direct,
        indirect_cov=indirect,
    )


def build_base_matrix(graph: WideGraph) -> StructMatrix:
    keys = graph.third_party_keys()
    rows = [np.array(base_features(graph, key), dtype=float) for key in keys]
    values = np.vstack(rows) if rows else np.zeros((0, len(BASE_COLUMNS)))
    return StructMatrix(keys=keys, columns=list(BASE_COLUMNS), values=values)


def _pairwise_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson r; constant-vs-constant counts as 1, constant-vs-varying as 0."""
    da = a - a.mean()
    db = b - b.mean()
    na = float(np.sqrt(np.dot(da, da)))
    nb = float(np.sqrt(np.dot(db, db)))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(da, db) / (na * nb), -1.0, 1.0))


def prune_correlated(matrix: StructMatrix, threshold: float) -> StructMatrix:
    """Drop each column whose absolute correlation with an earlier-retained
    column reaches ``threshold``, a value in (0, 1].

    Columns are considered in generation-then-name order, so earlier
    generations and lexicographically-first names win ties.
    """
    names = matrix.columns
    order = sorted(range(len(names)), key=lambda i: (generation_of(names[i]), names[i]))
    retained: list[int] = []
    for i in order:
        col = matrix.values[:, i]
        if all(
            abs(_pairwise_correlation(col, matrix.values[:, j])) < threshold
            for j in retained
        ):
            retained.append(i)
    keep = sorted(retained)
    return StructMatrix(
        keys=matrix.keys,
        columns=[names[i] for i in keep],
        values=matrix.values[:, keep].copy(),
    )


def expand_level(matrix: StructMatrix, graph: WideGraph, generation: int) -> StructMatrix:
    """Append mean/sum neighbor aggregates of the previous level's columns;
    an older column's aggregates were appended by an earlier level."""
    ids = [graph.ids[key] for key in matrix.keys]
    row_of = np.full(len(graph.keys), -1)  # each node's matrix row, -1 for none
    row_of[ids] = np.arange(len(ids))
    prev = [c for c, name in enumerate(matrix.columns) if generation_of(name) == generation - 1]
    means = np.zeros((len(matrix.keys), len(prev)))
    sums = np.zeros_like(means)
    for r, i in enumerate(ids):
        hood = row_of[graph.neighbors[i]]
        hood = hood[hood >= 0]
        if len(hood):
            # Reduce the whole block, then select: a column subset can sum
            # differently in the last bit.
            block = matrix.values[hood, :]
            sums[r] = block.sum(axis=0)[prev]
            means[r] = block.mean(axis=0)[prev]
    names = [matrix.columns[c] for c in prev]
    return StructMatrix(
        keys=matrix.keys,
        columns=matrix.columns + [f"mean({n})" for n in names] + [f"sum({n})" for n in names],
        values=np.hstack([matrix.values, means, sums]),
    )


def refex_expand(
    matrix: StructMatrix, graph: WideGraph, depth: int, threshold: float
) -> StructMatrix:
    """Recursively aggregate features over neighborhoods, pruning per level.

    Aggregation ignores edge direction and multiplicity; only nodes that
    have matrix rows (third parties) contribute, since first-party
    adjacency is already captured by the coverage columns.
    """
    for level in range(1, depth + 1):
        matrix = expand_level(matrix, graph, generation=level)
        matrix = prune_correlated(matrix, threshold)
    return matrix


def generation_of(column: str) -> int:
    """Recover a column's recursion level from its aggregate nesting."""
    gen = 0
    while column.startswith(("mean(", "sum(")):
        column = column.split("(", 1)[1][:-1]
        gen += 1
    return gen

