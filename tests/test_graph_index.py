"""The graph's per-node reads checked against a per-node scan of the full
edge list.

The scans below are the reference: each answers one node's question by
walking every edge, the way the structural features, coverage counts and
eligibility in-degrees were computed before the graph kept those reads.
"""

import io
from collections import Counter, defaultdict

import numpy as np
from hypothesis import given, settings, strategies as st

from widetrack.graph import (
    BOUNCED,
    FIRST_PARTY,
    NodeKey,
    SubdomainDocument,
    WideGraph,
    build_widegraph,
    contract_tree,
    coverage_counts,
    load_graph,
    save_graph,
)
from widetrack.pipeline import coverage_ccdf, doc_key, filter_eligible
from widetrack.structural import build_base_matrix
from hand_trees import hand_tree


def edge_triples(graph):
    """Every edge's (source, target, label), in graph-file order."""
    return [(src, dst, label) for src, dst, label, _, _ in graph.edge_records()]


def saved(graph):
    out = io.BytesIO()
    save_graph(graph, out)
    return out.getvalue()


def scan_in_degree(graph, key):
    return sum(1 for (_, dst, _) in edge_triples(graph) if dst == key)


def scan_coverage_counts(graph, key):
    direct, indirect = set(), set()
    for (src, dst, label) in edge_triples(graph):
        if dst == key and src.is_first_party():
            indirect.add(src.domain)
            if label != BOUNCED:
                direct.add(src.domain)
    return len(direct), len(indirect), len(graph.roots)


def scan_base_row(graph, key):
    in_deg = scan_in_degree(graph, key)
    edges = edge_triples(graph)
    out_deg = sum(1 for (src, _, _) in edges if src == key)
    ego = {key}
    for (src, dst, _) in edges:
        if src == key:
            ego.add(dst)
        if dst == key:
            ego.add(src)
    ego_inter = ego_out = 0
    for (src, dst, _) in edges:
        inside = (src in ego) + (dst in ego)
        if inside == 2:
            ego_inter += 1
        elif inside == 1:
            ego_out += 1
    d, i, n = scan_coverage_counts(graph, key)
    direct, indirect = (d / n, i / n) if n else (0.0, 0.0)
    return [in_deg + out_deg, in_deg, out_deg, ego_inter, ego_out, direct, indirect]


def assert_reads_match_scan(graph):
    matrix = build_base_matrix(graph)
    expected = [scan_base_row(graph, key) for key in matrix.keys]
    assert np.array_equal(matrix.values, np.array(expected, dtype=float).reshape(-1, 7))
    for key in graph.third_party_keys():
        assert coverage_counts(graph, key) == scan_coverage_counts(graph, key)
    docs = sorted(graph.docs.values(), key=doc_key)  # filter_eligible's row order
    degrees = [scan_in_degree(graph, doc.parent) for doc in docs]
    for threshold in range(max(degrees, default=0) + 2):
        kept, report = filter_eligible(graph, threshold)
        assert kept == [d for d, deg in zip(docs, degrees) if deg >= threshold]
        assert report["kept"] == len(kept)


LABELS = ("script", "media", "iframe", BOUNCED)


@st.composite
def graphs(draw):
    """Small graphs with parallel labelled edges, written out and loaded
    back through the graph file format; each edge is one contract_tree can
    write, which is all load_graph accepts."""
    roots = [f"r{i}.com" for i in range(draw(st.integers(0, 3)))]
    third = [
        NodeKey(f"t{i}.net", draw(st.sampled_from(LABELS[:3])))
        for i in range(draw(st.integers(1, 5)))
    ]
    first = [NodeKey(root, FIRST_PARTY) for root in roots]
    g = WideGraph()
    g.roots.update(roots)
    for key in first + third:
        g.add_node(key)
    for key in third:
        host = f"px.{key.domain}"
        g.docs[host, key.kind] = SubdomainDocument(
            host, key.kind, Counter({f"https://{host}/x.js": 1}), set(roots), key
        )
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(first + third),
                st.sampled_from(third),
                st.sampled_from(LABELS),
            ),
            max_size=25,
        )
    )
    distinct = {}
    for src, dst, label in edges:
        if src == dst:
            continue
        # as contract_tree writes: the target's kind, or Bounced from a first party
        if label != BOUNCED or not src.is_first_party():
            label = dst.kind
        distinct[src, dst, label] = None
    for edge in distinct:
        g.add_edge(*edge, 1, roots[:1])
    out = io.BytesIO()
    save_graph(g, out)
    return load_graph(out.getvalue())


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_index_reads_equal_per_node_scans(graph):
    assert_reads_match_scan(graph)


def test_parallel_labels_and_self_loop_from_graph_file():
    lines = [
        '{"format": "widegraph", "version": 1}',
        '{"d": "r.com", "t": "root"}',
        '{"d": "r.com", "k": "firstparty", "t": "node"}',
        '{"d": "a.net", "k": "script", "t": "node"}',
        '{"d": "b.net", "k": "script", "t": "node"}',
    ]
    edge = '{{"l": "{}", "m": 1, "s": {}, "sites": ["r.com"], "t": "edge", "x": {}}}'
    fp, a, b = '["r.com", "firstparty"]', '["a.net", "script"]', '["b.net", "script"]'
    for src, dst, label in ((fp, a, "script"), (fp, a, BOUNCED), (a, b, "script")):
        lines.append(edge.format(label, src, dst))
    graph = load_graph(("\n".join(lines) + "\n").encode())
    # load_graph refuses a self-loop and an edge labelled other than its
    # target's kind or Bounced, as contract_tree never writes them; a graph
    # built in memory can still hold them.
    own = {key: key for key in graph.nodes}
    a_key, b_key = own[NodeKey("a.net", "script")], own[NodeKey("b.net", "script")]
    graph.add_edge(a_key, b_key, "media", 1, ["r.com"])
    graph.add_edge(a_key, a_key, "script", 1, ["r.com"])
    assert_reads_match_scan(graph)

    rows = build_base_matrix(graph)
    a_row = rows.values[rows.keys.index(NodeKey("a.net", "script"))]
    # in: fp (2 labels) + self-loop; out: b (2 labels) + self-loop; the
    # egonet {fp, a, b} holds all five edges
    assert a_row.tolist() == [6.0, 3.0, 3.0, 5.0, 0.0, 1.0, 1.0]


@given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), max_size=30))
def test_bisect_ccdf_equals_quadratic_count(values):
    n = len(values)
    expected = [
        {"coverage": v, "ccdf": sum(1 for x in values if x >= v) / n}
        for v in sorted(set(values))
    ]
    assert coverage_ccdf(values) == expected


def reference_sets(graph):
    """Per node: distinct in- and out-edges, undirected neighbours, and the
    first parties with a non-Bounced / any edge into it, as sets."""
    in_edges, out_edges, neighbors = defaultdict(set), defaultdict(set), defaultdict(set)
    direct, indirect = defaultdict(set), defaultdict(set)
    for edge in edge_triples(graph):
        src, dst, label = edge
        out_edges[src].add(edge)
        in_edges[dst].add(edge)
        neighbors[src].add(dst)
        neighbors[dst].add(src)
        if src.is_first_party():
            indirect[dst].add(src.domain)
            if label != BOUNCED:
                direct[dst].add(src.domain)
    return in_edges, out_edges, neighbors, direct, indirect


def neighbor_sets(graph):
    """Each third-party node's neighbours, as a set of keys."""
    return {
        key: {graph.keys[i] for i in graph.neighbors[graph.ids[key]]}
        for key in graph.third_party_keys()
    }


def assert_counts_equal_sets(graph):
    in_edges, out_edges, neighbors, direct, indirect = reference_sets(graph)
    for key in graph.nodes:
        i = graph.ids[key]
        assert graph.in_degree[i] == len(in_edges[key])
        assert graph.out_degree[i] == len(out_edges[key])
        assert graph.n_direct_roots[i] == len(direct[key])
        assert graph.n_indirect_roots[i] == len(indirect[key])
    assert neighbor_sets(graph) == {key: neighbors[key] for key in graph.third_party_keys()}


def capture(root, edges):
    """A one-page tree of ``root`` whose edges are (src URL, dst URL, kind)."""
    page = f"https://www.{root}/"
    nodes = {page: "iframe"}
    nodes.update((dst, kind) for _, dst, kind in edges)
    return hand_tree(
        page, root, nodes, {(page if src is None else src, dst): 1 for src, dst, _ in edges}
    )


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_index_counts_equal_set_reference(graph):
    assert_counts_equal_sets(graph)


def test_counts_with_real_and_bounced_edges_from_one_first_party():
    """r.com's first capture embeds a.net directly, its second only through
    b.net, so r.com holds a script and a Bounced edge into a.net; s.com
    holds two parallel labelled edges into it. Each first party counts once."""
    loader, ad1, ad2 = "https://x.b.net/l.js", "https://x.a.net/1.js", "https://x.a.net/2.js"
    g = WideGraph()
    contract_tree(g, capture("r.com", [(None, ad1, "script")]))
    contract_tree(g, capture("r.com", [(None, loader, "script"), (loader, ad2, "script")]))
    contract_tree(g, capture("s.com", [(None, ad2, "script")]))
    a, b = NodeKey("a.net", "script"), NodeKey("b.net", "script")
    fp_r, fp_s = NodeKey("r.com", FIRST_PARTY), NodeKey("s.com", FIRST_PARTY)
    g.add_edge(fp_s, a, "media", 1, ["s.com"])
    g.add_edge(b, a, "media", 1, ["r.com"])
    assert {(fp_r, a, "script"), (fp_r, a, BOUNCED)} <= set(edge_triples(g))
    assert_counts_equal_sets(g)

    assert (g.in_degree[g.ids[a]], g.out_degree[g.ids[a]]) == (6, 0)
    assert coverage_counts(g, a) == (2, 2, 2)
    assert coverage_counts(g, b) == (1, 1, 2)
    assert set(neighbor_sets(g)) == {a, b}
    assert neighbor_sets(g)[a] == {fp_r, fp_s, b}


# URLs a hand tree may request, with their kinds: shared third parties on
# three domains, and hosts of two roots, first party on their own site only.
POOL = [
    ("https://x.a.net/1.js", "script"), ("https://y.a.net/2.js", "script"),
    ("https://x.a.net/p.gif", "media"), ("https://x.b.net/l.js", "script"),
    ("https://x.b.net/f.html", "iframe"), ("https://x.c.net/c", "other"),
    ("https://cdn.r0.com/s.js", "script"), ("https://www.r1.com/i.png", "media"),
]
ROOTS = ["r0.com", "r1.com", "r2.com"]


@st.composite
def hand_captures(draw):
    """One capture of a root: each POOL URL it requests is loaded by the
    page or by a URL loaded before it, some several times, so loads through
    a third party give Bounced edges."""
    root = draw(st.sampled_from(ROOTS))
    page = f"https://www.{root}/"
    nodes, edges = {page: "iframe"}, {}
    for i in draw(st.lists(st.integers(0, len(POOL) - 1), max_size=6, unique=True)):
        url, kind = POOL[i]
        edges[draw(st.sampled_from(sorted(nodes))), url] = draw(st.integers(1, 3))
        nodes[url] = kind
    return hand_tree(page, root, nodes, edges)


@settings(max_examples=100, deadline=None)
@given(st.lists(hand_captures(), min_size=1, max_size=6), st.data())
def test_build_order_does_not_matter(trees, data):
    graph = build_widegraph(trees)
    shuffled = build_widegraph(data.draw(st.permutations(trees)))
    assert shuffled == graph
    assert saved(shuffled) == saved(graph)
    assert_reads_match_scan(graph)
    assert_counts_equal_sets(graph)


def test_edge_sites_stay_sorted_and_unique_across_non_adjacent_captures():
    loader, pixel = "https://cdn.t.net/l.js", "https://px.u.net/p.gif"
    g = WideGraph()
    for root in ("m.com", "a.com", "z.com", "m.com", "b.com"):
        contract_tree(g, capture(root, [(None, loader, "script"), (loader, pixel, "media")]))
    edges = {(src, dst, label): (mult, sites) for src, dst, label, mult, sites in g.edge_records()}
    shared = edges[(NodeKey("t.net", "script"), NodeKey("u.net", "media"), "media")]
    assert shared == (5, ["a.com", "b.com", "m.com", "z.com"])
    own = edges[(NodeKey("m.com", FIRST_PARTY), NodeKey("t.net", "script"), "script")]
    assert own == (2, ["m.com"])
    out = io.BytesIO()
    save_graph(g, out)
    assert load_graph(out.getvalue()) == g


def assert_one_key_object_per_node(graph):
    own = {key: key for key in graph.nodes}
    for src, dst, _ in edge_triples(graph):
        assert src is own[src] and dst is own[dst]
    assert all(graph.nodes[key] is key for key in graph.nodes)
    assert all(doc.parent is own[doc.parent] for doc in graph.docs.values())


def test_every_edge_endpoint_is_its_node_key():
    from widetrack.ingest import build_tree, parse_har
    from widetrack.synth import EcosystemConfig, generate

    corpus = generate(EcosystemConfig(n_sites=20, n_trackers=8, n_benign=6, seed=3))
    g = build_widegraph(build_tree(parse_har(data)) for _, data in corpus.har_files)
    assert len(g.edges) > 50
    assert_one_key_object_per_node(g)
    out = io.BytesIO()
    save_graph(g, out)
    assert_one_key_object_per_node(load_graph(out.getvalue()))
