from collections import Counter

import numpy as np
import pytest

from widetrack.graph import (
    EdgeData,
    GraphError,
    GraphIndex,
    NodeKey,
    WideGraph,
    contract_tree,
)
from widetrack.ingest import DependencyTree
from widetrack.pipeline import (
    DataError,
    PipelineConfig,
    read_struct_matrix,
    write_struct_matrix,
)
from widetrack.synth import EcosystemConfig, generate
from widetrack.structural import (
    BASE_COLUMNS,
    StructMatrix,
    _pairwise_correlation,
    base_features,
    build_base_matrix,
    expand_level,
    generation_of,
    prune_correlated,
    refex_expand,
)


def manual_graph(node_keys, edges, roots=()):
    """WideGraph assembled directly, bypassing contraction, for fixtures."""
    g = WideGraph()
    g.roots.update(roots)
    for key in node_keys:
        g.nodes[key] = key
    for (src, dst, label) in edges:
        g.edges[(src, dst, label)] = EdgeData(1, set(roots) or {"x"})
    return g


def chain_graph():
    """r -> A -> B, expanded: r->A, A->B, r->B (bounced)."""
    root = "https://www.r.com/"
    a, b = "https://x.a.net/a.js", "https://x.b.net/b.js"
    t = DependencyTree(
        root_url=root,
        root_domain="r.com",
        nodes={root: "iframe", a: "script", b: "script"},
        edges={(root, a): 1, (a, b): 1},
        diagnostics=Counter(),
        skipped=Counter(),
    )
    g = WideGraph()
    contract_tree(g, t)
    return g


class TestBaseFeatures:
    def test_chain_middle_node(self):
        g = chain_graph()
        row = base_features(GraphIndex(g), NodeKey("a.net", "script"))
        assert (row.in_degree, row.out_degree, row.degree) == (1, 1, 2)
        # egonet {r, A, B} contains all three edges after expansion
        assert row.ego_inter == 3
        assert row.ego_out == 0
        assert (row.direct_cov, row.indirect_cov) == (1.0, 1.0)

    def test_triangle_center(self):
        a, b, c = (NodeKey(d, "script") for d in ("a.net", "b.net", "c.net"))
        g = manual_graph(
            [a, b, c],
            [(a, b, "script"), (b, c, "script"), (a, c, "script")],
        )
        row = base_features(GraphIndex(g), b)
        assert (row.in_degree, row.out_degree, row.degree) == (1, 1, 2)
        assert row.ego_inter == 3
        assert row.ego_out == 0

    def test_ego_out_counts_boundary_edges(self):
        a, b, c = (NodeKey(d, "script") for d in ("a.net", "b.net", "c.net"))
        # c hangs off b; from a's egonet {a, b} the edge b->c leaves it
        g = manual_graph([a, b, c], [(a, b, "script"), (b, c, "script")])
        row = base_features(GraphIndex(g), a)
        assert row.ego_inter == 1
        assert row.ego_out == 1

    def test_isolated_node_is_all_zero(self):
        a = NodeKey("a.net", "script")
        g = manual_graph([a], [])
        row = base_features(GraphIndex(g), a)
        assert list(row) == [0, 0, 0, 0, 0, 0.0, 0.0]

    def test_unknown_and_first_party_rejected(self):
        g = chain_graph()
        with pytest.raises(GraphError):
            base_features(GraphIndex(g), NodeKey("ghost.net", "script"))
        with pytest.raises(GraphError):
            base_features(GraphIndex(g), NodeKey("r.com", "firstparty"))

    def test_degrees_ignore_multiplicity(self):
        a, b = NodeKey("a.net", "script"), NodeKey("b.net", "script")
        g = manual_graph([a, b], [(a, b, "script")])
        g.edges[(a, b, "script")].multiplicity = 99
        assert base_features(GraphIndex(g), b).in_degree == 1


class TestPruneCorrelated:
    def matrix(self, cols):
        names = [f"c{i}" for i in range(len(cols))]
        return StructMatrix(
            keys=[NodeKey(f"n{j}.net", "script") for j in range(len(cols[0]))],
            columns=names,
            values=np.array(cols, dtype=float).T,
        )

    def test_duplicate_column_dropped(self):
        m = self.matrix([[1, 2, 3, 4], [1, 2, 3, 4], [4, 1, 3, 2]])
        pruned = prune_correlated(m, 0.95)
        assert pruned.columns == ["c0", "c2"]

    def test_scaled_column_dropped(self):
        m = self.matrix([[1, 2, 3, 4], [2, 4, 6, 8]])
        pruned = prune_correlated(m, 0.95)
        assert pruned.columns == ["c0"]

    def test_negatively_correlated_dropped_on_absolute_value(self):
        m = self.matrix([[1, 2, 3, 4], [-1, -2, -3, -4]])
        assert prune_correlated(m, 0.95).columns == ["c0"]

    def test_first_constant_kept_later_constants_dropped(self):
        m = self.matrix([[5, 5, 5, 5], [7, 7, 7, 7], [1, 2, 3, 4]])
        pruned = prune_correlated(m, 0.95)
        assert pruned.columns == ["c0", "c2"]

    def test_independent_random_columns_survive(self):
        rng = np.random.default_rng(42)
        values = rng.normal(size=(200, 8))
        m = StructMatrix(
            keys=[NodeKey(f"n{j}.net", "script") for j in range(200)],
            columns=[f"c{i}" for i in range(8)],
            values=values,
        )
        pruned = prune_correlated(m, 0.95)
        assert pruned.columns == m.columns
        # oracle: recompute the full correlation matrix independently
        corr = np.corrcoef(pruned.values, rowvar=False)
        off_diag = corr[~np.eye(len(pruned.columns), dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.95)

    def test_retained_pairs_always_below_threshold(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(60, 3))
        noisy = base + rng.normal(scale=0.01, size=(60, 3))  # near-duplicates
        values = np.hstack([base, noisy])
        m = StructMatrix(
            keys=[NodeKey(f"n{j}.net", "script") for j in range(60)],
            columns=[f"c{i}" for i in range(6)],
            values=values,
        )
        pruned = prune_correlated(m, 0.9)
        corr = np.corrcoef(pruned.values, rowvar=False)
        if corr.ndim == 2:
            off_diag = corr[~np.eye(len(pruned.columns), dtype=bool)]
            assert np.all(np.abs(off_diag) < 0.9)

    def test_threshold_validated(self):
        # the config checks the threshold once, before any stage
        for threshold in (0.0, 1.5):
            with pytest.raises(DataError, match=r"prune threshold must be in \(0, 1\]"):
                PipelineConfig(prune_threshold=threshold).validate()


class TestRefexExpand:
    def test_depth_zero_is_identity(self):
        index = GraphIndex(chain_graph())
        base = build_base_matrix(index)
        out = refex_expand(base, index, depth=0, threshold=0.95)
        assert out.columns == base.columns
        assert np.array_equal(out.values, base.values)

    def test_one_level_triples_columns_before_pruning(self):
        index = GraphIndex(chain_graph())
        base = build_base_matrix(index)
        expanded = expand_level(base, index, generation=1)
        assert len(expanded.columns) == 3 * len(BASE_COLUMNS)
        assert expanded.columns[: len(BASE_COLUMNS)] == list(BASE_COLUMNS)
        assert [generation_of(c) for c in expanded.columns].count(1) == 2 * len(BASE_COLUMNS)

    def test_neighbor_aggregates_ignore_direction(self):
        a, b, c = (NodeKey(d, "script") for d in ("a.net", "b.net", "c.net"))
        index = GraphIndex(manual_graph([a, b, c], [(a, b, "script"), (c, b, "script")]))
        base = build_base_matrix(index)
        expanded = expand_level(base, index, generation=1)
        col = expanded.columns.index("sum(out_degree)")
        row_b = expanded.keys.index(b)
        # b's neighbors a and c each have out-degree 1, direction ignored
        assert expanded.values[row_b, col] == 2.0

    def test_no_neighbors_aggregate_to_zero(self):
        a, b = NodeKey("a.net", "script"), NodeKey("b.net", "script")
        index = GraphIndex(manual_graph([a, b], []))
        expanded = expand_level(build_base_matrix(index), index, generation=1)
        assert np.all(expanded.values[:, len(BASE_COLUMNS):] == 0.0)

    def test_regular_graph_recursion_adds_nothing(self):
        # ring: every node has identical base features, so every column is
        # constant; aggregates are scaled copies and pruning keeps only what
        # survived in the base matrix.
        n = 8
        keys = [NodeKey(f"n{j}.net", "script") for j in range(n)]
        edges = [(keys[j], keys[(j + 1) % n], "script") for j in range(n)]
        index = GraphIndex(manual_graph(keys, edges))
        base = build_base_matrix(index)
        base_pruned = prune_correlated(base, 0.95)
        out = refex_expand(base, index, depth=2, threshold=0.95)
        assert out.columns == base_pruned.columns

    def test_deterministic(self):
        index = GraphIndex(chain_graph())
        m1 = refex_expand(build_base_matrix(index), index, depth=2, threshold=0.95)
        m2 = refex_expand(build_base_matrix(index), index, depth=2, threshold=0.95)
        assert m1.columns == m2.columns
        assert np.array_equal(m1.values, m2.values)

    def test_negative_depth_rejected(self):
        with pytest.raises(DataError, match="refex depth must be >= 0"):
            PipelineConfig(refex_depth=-1).validate()


def all_columns_refex(index, depth, threshold):
    """The earlier grower, kept as an oracle: each level aggregates every
    current column and stamps each aggregate with the level, so level 2
    rebuilds copies of the level-1 names that pruning then drops.
    Returns (columns, values)."""
    base = build_base_matrix(index)
    keys, columns, values = base.keys, list(base.columns), base.values
    generations = [0] * len(columns)
    row_of = {key: i for i, key in enumerate(keys)}
    for level in range(1, depth + 1):
        n_rows, n_cols = values.shape
        means, sums = np.zeros((n_rows, n_cols)), np.zeros((n_rows, n_cols))
        for r, key in enumerate(keys):
            hood = [row_of[n] for n in sorted(index.neighbors[key] & set(keys))]
            if hood:
                sums[r] = values[hood, :].sum(axis=0)
                means[r] = values[hood, :].mean(axis=0)
        columns = columns + [f"{agg}({c})" for agg in ("mean", "sum") for c in columns]
        generations = generations + [level] * (2 * n_cols)
        values = np.hstack([values, means, sums])
        retained = []
        for i in sorted(range(len(columns)), key=lambda i: (generations[i], columns[i])):
            if all(
                abs(_pairwise_correlation(values[:, i], values[:, j])) < threshold
                for j in retained
            ):
                retained.append(i)
        keep = sorted(retained)
        columns = [columns[i] for i in keep]
        generations = [generations[i] for i in keep]
        values = values[:, keep].copy()
    return columns, values


@pytest.fixture(scope="module")
def synth_indexes():
    return [
        GraphIndex(generate(EcosystemConfig(n_sites=n, seed=seed)).truth_graph)
        for n, seed in ((40, 7), (60, 11))
    ]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("threshold", [0.5, 0.9, 0.95, 0.99])
def test_refex_matches_all_columns_grower(synth_indexes, depth, threshold):
    for index in synth_indexes:
        got = refex_expand(build_base_matrix(index), index, depth, threshold)
        columns, values = all_columns_refex(index, depth, threshold)
        assert got.columns == columns
        assert got.values.tobytes() == values.tobytes()


def test_refex_at_threshold_one_appends_each_name_once(synth_indexes):
    for index in synth_indexes:
        matrix = build_base_matrix(index)
        for level in range(1, 4):
            expanded = expand_level(matrix, index, generation=level)
            new = expanded.columns[len(matrix.columns):]
            assert new and all(generation_of(c) == level for c in new)
            matrix = prune_correlated(expanded, 1.0)
            assert len(set(matrix.columns)) == len(matrix.columns)


def test_generation_recovered_from_names():
    assert generation_of("degree") == 0
    assert generation_of("mean(degree)") == 1
    assert generation_of("sum(mean(ego_inter))") == 2


def test_matrix_file_round_trip():
    index = GraphIndex(chain_graph())
    m = refex_expand(build_base_matrix(index), index, depth=1, threshold=0.95)
    loaded = read_struct_matrix(write_struct_matrix(m))
    assert loaded.columns == m.columns
    assert loaded.keys == m.keys
    assert np.array_equal(loaded.values, m.values)


def test_matrix_file_rejects_garbage():
    with pytest.raises(DataError):
        read_struct_matrix(b"who\tknows\nwhat\tthis\tis\n")
