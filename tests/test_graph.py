import io
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from widetrack.graph import (
    BOUNCED,
    FIRST_PARTY,
    GraphError,
    GraphFormatError,
    EdgeData,
    GraphIndex,
    NodeKey,
    SubdomainDocument,
    WideGraph,
    build_widegraph,
    contract_tree,
    coverage,
    coverage_counts,
    expand_edges,
    load_graph,
    save_graph,
    stats,
)
from widetrack.ingest import DependencyTree


def tree(root_domain, nodes, edges, root_url=None):
    root_url = root_url or f"https://www.{root_domain}/"
    all_nodes = {root_url: "iframe"}
    all_nodes.update(nodes)
    return DependencyTree(
        root_url=root_url,
        root_domain=root_domain,
        nodes=all_nodes,
        edges=dict(edges),
        diagnostics=Counter(),
        skipped=Counter(),
    )


def site_graph(*trees):
    return build_widegraph(trees)


def saved(g):
    out = io.BytesIO()
    save_graph(g, out)
    return out.getvalue()


FP = NodeKey("site.com", FIRST_PARTY)


class TestContractTree:
    def test_all_first_party_collapses_to_super_node(self):
        root = "https://www.site.com/"
        t = tree(
            "site.com",
            {"https://www.site.com/main.css": "other", "https://static.site.com/a.png": "media"},
            {(root, "https://www.site.com/main.css"): 1, (root, "https://static.site.com/a.png"): 1},
        )
        g = WideGraph()
        assert contract_tree(g, t) == Counter({"edge_to_firstparty_dropped": 2})
        assert g.roots == {"site.com"}
        assert set(g.nodes) == {FP}
        assert g.edges == {}
        assert g.documents() == []

    def test_script_fanout_rekeys_to_domain_kind(self):
        # page embeds a script from d5; that script loads scripts from
        # d3, d4, d6; the d4 script issues a request back to d4.
        root = "https://www.site.com/"
        d5 = "https://a.d5.com/x.js"
        d3, d4, d6 = "https://b.d3.com/y.js", "https://c.d4.com/z.js", "https://d.d6.com/w.js"
        d4req = "https://c.d4.com/collect"
        t = tree(
            "site.com",
            {d5: "script", d3: "script", d4: "script", d6: "script", d4req: "other"},
            {(root, d5): 1, (d5, d3): 1, (d5, d4): 1, (d5, d6): 1, (d4, d4req): 1},
        )
        g = WideGraph()
        contract_tree(g, t)
        assert set(g.nodes) == {
            FP,
            NodeKey("d5.com", "script"),
            NodeKey("d3.com", "script"),
            NodeKey("d4.com", "script"),
            NodeKey("d6.com", "script"),
            NodeKey("d4.com", "other"),
        }
        real = {edge: e.multiplicity for edge, e in g.edges.items() if edge[2] != BOUNCED}
        assert real == {
            (FP, NodeKey("d5.com", "script"), "script"): 1,
            (NodeKey("d5.com", "script"), NodeKey("d3.com", "script"), "script"): 1,
            (NodeKey("d5.com", "script"), NodeKey("d4.com", "script"), "script"): 1,
            (NodeKey("d5.com", "script"), NodeKey("d6.com", "script"), "script"): 1,
            (NodeKey("d4.com", "script"), NodeKey("d4.com", "other"), "other"): 1,
        }
        assert all(e.sites == ["site.com"] for e in g.edges.values())

    def test_edge_into_first_party_dropped_with_diagnostic(self):
        root = "https://www.site.com/"
        script = "https://t.tracker.net/t.js"
        fp_img = "https://www.site.com/logo.png"
        t = tree(
            "site.com",
            {script: "script", fp_img: "media"},
            {(root, script): 1, (script, fp_img): 1},
        )
        g = WideGraph()
        diagnostics = contract_tree(g, t)
        assert all(not dst.is_first_party() for (_, dst, _) in g.edges)
        assert diagnostics == Counter({"edge_to_firstparty_dropped": 1})

    def test_same_key_edge_becomes_self_edge_and_drops(self):
        root = "https://www.site.com/"
        a, b = "https://a.t.net/1.js", "https://b.t.net/2.js"
        t = tree("site.com", {a: "script", b: "script"}, {(root, a): 1, (a, b): 1})
        g = WideGraph()
        diagnostics = contract_tree(g, t)
        assert diagnostics == Counter({"contracted_self_edge_dropped": 1})
        assert (NodeKey("t.net", "script"), NodeKey("t.net", "script"), "script") not in g.edges

    def test_documents_group_urls_by_host_and_kind(self):
        root = "https://www.site.com/"
        u1, u2 = "https://px.t.net/a", "https://px.t.net/b"
        u3 = "https://sync.t.net/c"
        t = tree(
            "site.com",
            {u1: "other", u2: "other", u3: "other"},
            {(root, u1): 2, (root, u2): 1, (root, u3): 1},
        )
        g = WideGraph()
        contract_tree(g, t)
        docs = g.docs
        assert docs["px.t.net", "other"].urls == Counter({u1: 2, u2: 1})
        assert docs["sync.t.net", "other"].urls == Counter({u3: 1})
        assert all(d.sites == {"site.com"} and d.kind == "other" for d in docs.values())
        assert all(d.parent == NodeKey("t.net", "other") for d in docs.values())


class TestExpandEdges:
    A, B = NodeKey("a.net", "script"), NodeKey("b.net", "script")

    def chain_edges(self):
        return {(FP, self.A, "script"): 1, (self.A, self.B, "script"): 1}

    def test_chain_gets_bounced_edge(self):
        edges = self.chain_edges()
        expand_edges(FP, edges)
        assert (FP, self.B, BOUNCED) in edges
        assert (FP, self.A, BOUNCED) not in edges

    def test_expand_is_idempotent(self):
        edges = self.chain_edges()
        expand_edges(FP, edges)
        once = dict(edges)
        expand_edges(FP, edges)
        assert edges == once
        assert edges[(FP, self.B, BOUNCED)] == 1

    def test_star_gets_no_bounced_edges(self):
        edges = {(FP, self.A, "script"): 1, (FP, NodeKey("b.net", "media"), "media"): 1}
        expand_edges(FP, edges)
        assert not any(label == BOUNCED for (_, _, label) in edges)

    def test_embedded_intermediary_bounces_target(self):
        # page embeds doubleclick, doubleclick loads adledge: contracting the
        # page into the graph gives the root a Bounced edge to adledge.
        root = "https://www.latercera.com/"
        dc = "https://ad.doubleclick.net/tag.js"
        al = "https://cdn.adledge.com/m.js"
        t = tree(
            "latercera.com", {dc: "script", al: "script"}, {(root, dc): 1, (dc, al): 1}
        )
        g = WideGraph()
        contract_tree(g, t)
        fp = NodeKey("latercera.com", FIRST_PARTY)
        bounced = g.edges[(fp, NodeKey("adledge.com", "script"), BOUNCED)]
        assert (bounced.multiplicity, bounced.sites) == (1, ["latercera.com"])
        assert (fp, NodeKey("doubleclick.net", "script"), BOUNCED) not in g.edges


class TestMerge:
    def test_disjoint_sites_sum(self):
        t1 = tree(
            "one.com",
            {"https://a.t1.net/x.js": "script"},
            {("https://www.one.com/", "https://a.t1.net/x.js"): 1},
        )
        t2 = tree(
            "two.com",
            {"https://a.t2.net/y.js": "script"},
            {("https://www.two.com/", "https://a.t2.net/y.js"): 1},
        )
        g1, g2, both = site_graph(t1), site_graph(t2), site_graph(t1, t2)
        assert len(both.nodes) == len(g1.nodes) + len(g2.nodes)
        assert len(both.edges) == len(g1.edges) + len(g2.edges)

    def test_shared_third_party_unifies_with_site_set(self):
        url1 = "https://ads.doubleclick.net/a.js"
        url2 = "https://ads.doubleclick.net/b.js"
        t1 = tree("one.com", {url1: "script"}, {("https://www.one.com/", url1): 1})
        t2 = tree("two.com", {url2: "script"}, {("https://www.two.com/", url2): 1})
        g = site_graph(t1, t2)
        key = NodeKey("doubleclick.net", "script")
        assert key in g.nodes
        doc = g.docs["ads.doubleclick.net", "script"]
        assert doc.sites == {"one.com", "two.com"}
        assert doc.urls == Counter({url1: 1, url2: 1})

    def test_cross_site_cycle_merges_and_terminates(self):
        a1, b1 = "https://x.a.net/1.js", "https://x.b.net/2.js"
        a2, b2 = "https://x.a.net/3.js", "https://x.b.net/4.js"
        t1 = tree(
            "one.com", {a1: "script", b1: "script"},
            {("https://www.one.com/", a1): 1, (a1, b1): 1},
        )
        t2 = tree(
            "two.com", {a2: "script", b2: "script"},
            {("https://www.two.com/", b2): 1, (b2, a2): 1},
        )
        g = site_graph(t1, t2)
        ka, kb = NodeKey("a.net", "script"), NodeKey("b.net", "script")
        assert (ka, kb, "script") in g.edges and (kb, ka, "script") in g.edges
        # downstream algorithms must terminate on the 2-cycle
        index = GraphIndex(g)
        stats(index)
        assert coverage(index, ka) == (0.5, 1.0)
        assert coverage(index, kb) == (0.5, 1.0)

    def test_remerging_same_root_is_additive(self):
        url = "https://a.t.net/x.js"
        t = tree("one.com", {url: "script"}, {("https://www.one.com/", url): 1})
        g = site_graph(t, t)
        assert g.roots == {"one.com"}
        key = NodeKey("t.net", "script")
        assert g.edges[(NodeKey("one.com", FIRST_PARTY), key, "script")].multiplicity == 2

    def test_merge_order_insensitive(self):
        trees = []
        for i in range(6):
            root = f"site{i}.com"
            url1 = f"https://a.shared.net/{i}.js"
            url2 = f"https://b.other{i % 3}.net/{i}.png"
            trees.append(
                tree(
                    root,
                    {url1: "script", url2: "media"},
                    {(f"https://www.{root}/", url1): 1, (url1, url2): 1},
                )
            )
        g1 = site_graph(*trees)
        shuffled = trees[:]
        random.Random(5).shuffle(shuffled)
        g2 = site_graph(*shuffled)
        assert g1 == g2


class TestCoverage:
    def three_root_fixture(self):
        target = "https://px.target.net/t.js"
        mid = "https://m.mid.net/m.js"
        t1 = tree(
            "r1.com", {target: "script"}, {("https://www.r1.com/", target): 1}
        )
        t2 = tree(
            "r2.com",
            {mid: "script", "https://px.target.net/u.js": "script"},
            {
                ("https://www.r2.com/", mid): 1,
                (mid, "https://px.target.net/u.js"): 1,
            },
        )
        t3 = tree(
            "r3.com",
            {"https://x.noise.net/n.png": "media"},
            {("https://www.r3.com/", "https://x.noise.net/n.png"): 1},
        )
        return site_graph(t1, t2, t3), [t1, t2, t3]

    def test_direct_and_indirect_fractions(self):
        g, trees = self.three_root_fixture()
        key = NodeKey("target.net", "script")
        d, i, n = coverage_counts(GraphIndex(g), key)

        # brute-force oracle: per-site reachability over the raw trees
        direct_sites = indirect_sites = 0
        for t in trees:
            adj = {}
            for (src, dst) in t.edges:
                adj.setdefault(src, set()).add(dst)
            seen, stack = set(), [t.root_url]
            while stack:
                for nxt in adj.get(stack.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            hits = {
                u for u in seen if t.nodes[u] == "script" and ".target.net/" in u
            }
            if hits:
                indirect_sites += 1
            if any(t.edges.get((t.root_url, u)) for u in hits):
                direct_sites += 1
        assert Fraction(d, n) == Fraction(direct_sites, 3) == Fraction(1, 3)
        assert Fraction(i, n) == Fraction(indirect_sites, 3) == Fraction(2, 3)
        assert coverage(GraphIndex(g), key) == (1 / 3, 2 / 3)

    def test_everywhere_direct_is_full_coverage(self):
        url = "https://px.t.net/x.js"
        trees = [
            tree(f"r{i}.com", {url: "script"}, {(f"https://www.r{i}.com/", url): 1})
            for i in range(4)
        ]
        g = site_graph(*trees)
        assert coverage(GraphIndex(g), NodeKey("t.net", "script")) == (1.0, 1.0)

    def test_unknown_and_first_party_nodes_rejected(self):
        g, _ = self.three_root_fixture()
        index = GraphIndex(g)
        with pytest.raises(GraphError):
            coverage(index, NodeKey("nowhere.net", "script"))
        with pytest.raises(GraphError):
            coverage(index, NodeKey("r1.com", FIRST_PARTY))

    def test_indirect_at_least_direct_everywhere(self):
        g, _ = self.three_root_fixture()
        index = GraphIndex(g)
        for key in g.third_party_keys():
            d, i = coverage(index, key)
            assert 0.0 <= d <= i <= 1.0


class TestInvariants:
    def build(self):
        g, _ = TestCoverage().three_root_fixture()
        return g

    def test_first_party_nodes_have_no_in_edges(self):
        g = self.build()
        for (src, dst, label) in g.edges:
            assert not dst.is_first_party()
            if label == BOUNCED:
                assert src.is_first_party()

    def test_at_most_four_nodes_per_domain(self):
        g = self.build()
        per_domain = Counter(k.domain for k in g.third_party_keys())
        assert all(count <= 4 for count in per_domain.values())

    def test_document_sites_subset_of_roots(self):
        g = self.build()
        docs = g.documents()
        assert sum(len(d.sites) for d in docs) >= len(docs)
        for doc in docs:
            assert doc.sites <= g.roots


class TestSerialization:
    def test_empty_graph_round_trips(self):
        g = WideGraph()
        assert load_graph(saved(g)) == g

    def test_round_trip_structural_equality(self):
        g, _ = TestCoverage().three_root_fixture()
        loaded = load_graph(saved(g))
        assert loaded == g
        assert saved(loaded) == saved(g)

    def test_random_graphs_round_trip(self):
        from widetrack.ingest import build_tree, parse_har
        from widetrack.synth import EcosystemConfig, generate

        for seed in range(5):
            corpus = generate(
                EcosystemConfig(
                    n_sites=30, n_trackers=12, n_benign=10,
                    tracker_embed_prob=0.4, benign_embed_prob=0.15,
                    bounce_prob=0.5, seed=seed,
                )
            )
            g = build_widegraph(
                [build_tree(parse_har(data)) for _, data in corpus.har_files]
            )
            assert len(g.nodes) >= 50
            loaded = load_graph(saved(g))
            assert loaded == g
            assert saved(loaded) == saved(g)

    def test_corrupted_payload_is_a_load_error(self):
        g, _ = TestCoverage().three_root_fixture()
        data = saved(g)
        # truncate mid-record so a line stops being valid JSON
        cut = data.index(b'"t": "edge"') + 5
        with pytest.raises(GraphFormatError):
            load_graph(data[:cut])
        with pytest.raises(GraphFormatError):
            load_graph(b"not a graph at all\n")
        with pytest.raises(GraphFormatError):
            load_graph(data.replace(b'"t": "edge"', b'"t": "wedge"', 1))

    @pytest.mark.parametrize(
        "record, what", [("root", "root"), ("node", "node"), ("edge", "edge"), ("doc", "document")]
    )
    def test_repeated_record_names_its_line(self, record, what):
        """A copy of a record, placed after the document records, is rejected:
        a second node would replace the first and drop its documents, a
        second edge or document would overwrite the first."""
        g, _ = TestCoverage().three_root_fixture()
        lines = saved(g).splitlines()
        copy = next(line for line in lines if json.loads(line).get("t") == record)
        with pytest.raises(GraphFormatError, match=f"^repeated {what} .* on line {len(lines) + 1}$"):
            load_graph(b"\n".join(lines + [copy]) + b"\n")

    def test_byte_that_is_not_utf8_names_its_line(self):
        g, _ = TestCoverage().three_root_fixture()
        lines = saved(g).splitlines()
        lines[4] = lines[4].replace(b'"t"', b'"t\xff"')
        with pytest.raises(GraphFormatError, match="^byte 0xff is not UTF-8 on line 5$"):
            load_graph(b"\n".join(lines) + b"\n")

    def test_edge_to_unknown_node_rejected(self):
        lines = [
            b'{"format": "widegraph", "version": 1}',
            b'{"d": "a.com", "k": "script", "t": "node"}',
            b'{"l": "script", "m": 1, "s": ["ghost.com", "firstparty"], "sites": ["ghost.com"], "t": "edge", "x": ["a.com", "script"]}',
        ]
        with pytest.raises(GraphFormatError):
            load_graph(b"\n".join(lines) + b"\n")

    @pytest.mark.parametrize(
        "url",
        ["https://other.com/x.js", "https://PX.a.com./x.js", "/x.js", "http://[::1/x", 7],
    )
    def test_document_url_off_its_host_names_its_line(self, url):
        lines = [
            '{"format": "widegraph", "version": 1}',
            '{"d": "a.com", "k": "script", "t": "node"}',
            '{"h": "px.a.com", "k": "script", "p": ["a.com", "script"], "sites": [], "t": "doc", '
            '"urls": [["https://px.a.com/ok.js", 1], [%s, 1]]}' % json.dumps(url),
        ]
        with pytest.raises(GraphFormatError, match="on line 3"):
            load_graph("\n".join(lines).encode() + b"\n")
        ok = lines[2].replace(json.dumps(url), '"https://PX.a.com:8080/y.js"')
        assert load_graph("\n".join(lines[:2] + [ok]).encode() + b"\n").documents()[0].urls


    def test_document_filed_under_another_domain_names_its_line(self):
        lines = [
            '{"format": "widegraph", "version": 1}',
            '{"d": "a.com", "k": "script", "t": "node"}',
            '{"d": "b.com", "k": "script", "t": "node"}',
            '{"h": "px.a.com", "k": "script", "p": ["b.com", "script"], "sites": [], "t": "doc", '
            '"urls": [["https://px.a.com/x.js", 1]]}',
        ]
        with pytest.raises(GraphFormatError, match="px.a.com.* on line 4"):
            load_graph("\n".join(lines).encode() + b"\n")
        ok = lines[3].replace('"b.com"', '"a.com"')
        assert load_graph("\n".join(lines[:3] + [ok]).encode() + b"\n").documents()[0].urls


def test_build_widegraph_convenience():
    g, trees = TestCoverage().three_root_fixture()
    assert build_widegraph(iter(trees)) == g  # any iterable, read once
    assert g.roots == {"r1.com", "r2.com", "r3.com"}


def test_a_host_filed_as_third_party_is_first_party_on_its_own_site():
    """build_widegraph finds each (host, kind) document once for all its
    trees; a host another site filed as a third party is still first party
    on its own site, as contracting each tree alone gives."""
    cdn = "https://cdn.b.com/"
    trees = [
        tree("a.com", {cdn + "x.js": "script"}, {("https://www.a.com/", cdn + "x.js"): 1}),
        tree("b.com", {cdn + "y.js": "script"}, {("https://www.b.com/", cdn + "y.js"): 2}),
        tree("c.com", {cdn + "z.js": "script"}, {("https://www.c.com/", cdn + "z.js"): 1}),
    ]
    alone = WideGraph()
    for t in trees:
        contract_tree(alone, t)
    g = build_widegraph(trees)
    assert g == alone
    (doc,) = g.documents()
    assert doc.sites == {"a.com", "c.com"} and set(doc.urls) == {cdn + "x.js", cdn + "z.js"}
    assert set(g.nodes) == {NodeKey(d, FIRST_PARTY) for d in ("a.com", "b.com", "c.com")} | {
        NodeKey("b.com", "script")
    }


def _target_edge(g):
    return g.edges[(NodeKey("r1.com", FIRST_PARTY), NodeKey("target.net", "script"), "script")]


def _target_doc(g):
    return g.docs["px.target.net", "script"]


# Each changes one fact of the three-root graph, in place.
_ONE_FACT_CHANGED = {
    "extra_root": lambda g: g.roots.add("r4.com"),
    "extra_node_with_no_documents": lambda g: g.nodes.setdefault(
        NodeKey("extra.net", "script"), NodeKey("extra.net", "script")
    ),
    "edge_multiplicity": lambda g: setattr(
        _target_edge(g), "multiplicity", _target_edge(g).multiplicity + 1
    ),
    "edge_sites": lambda g: _target_edge(g).add_site("r3.com"),
    "document_url_count": lambda g: _target_doc(g).urls.update(["https://px.target.net/t.js"]),
    "document_sites": lambda g: _target_doc(g).sites.add("r3.com"),
    "dropped_document": lambda g: g.docs.pop(("x.noise.net", "media")),
}


@pytest.mark.parametrize("change", _ONE_FACT_CHANGED.values(), ids=_ONE_FACT_CHANGED)
def test_graphs_that_differ_in_one_fact_are_unequal(change):
    g, trees = TestCoverage().three_root_fixture()
    changed = build_widegraph(trees)
    assert changed == g
    change(changed)
    assert changed != g and g != changed


def test_stats_shape():
    g, _ = TestCoverage().three_root_fixture()
    st = stats(GraphIndex(g))
    assert st["roots"] == 3
    assert st["third_party_nodes"] == len(g.third_party_keys())
    assert st["edges_by_label"].get(BOUNCED, 0) >= 1
    assert st["top_coverage"][0]["direct"] >= st["top_coverage"][-1]["direct"]
    # r1: target at depth 1; r2: mid at 1, target at 2; r3: noise at 1
    assert st["avg_path_length"] == pytest.approx((1 + 1 + 2 + 1) / 4)


def test_average_path_length_ignores_bounced_shortcuts():
    from widetrack.graph import average_path_length

    root = "https://www.site.com/"
    a, b, c = (
        "https://x.a.net/a.js",
        "https://x.b.net/b.js",
        "https://x.c.net/c.js",
    )
    t = tree(
        "site.com",
        {a: "script", b: "script", c: "script"},
        {(root, a): 1, (a, b): 1, (b, c): 1},
    )
    g = site_graph(t)
    assert average_path_length(g) == pytest.approx((1 + 2 + 3) / 3)


# ------------------------------------------------ the graph file, record by record

_ENCODER = json.JSONEncoder(sort_keys=True)


def reference_saved(graph):
    """The graph file as one ``JSONEncoder(sort_keys=True).encode`` per record
    writes it: the layout the template writer must keep."""
    records = [{"format": "widegraph", "version": 1}]
    records += [{"t": "root", "d": domain} for domain in sorted(graph.roots)]
    records += [{"t": "node", "d": key.domain, "k": key.kind} for key in sorted(graph.nodes)]
    for (src, dst, label) in sorted(graph.edges):
        data = graph.edges[(src, dst, label)]
        records.append({
            "t": "edge", "s": [src.domain, src.kind], "x": [dst.domain, dst.kind],
            "l": label, "m": data.multiplicity, "sites": data.sites,
        })
    for doc in graph.documents():
        records.append({
            "t": "doc", "h": doc.host, "k": doc.kind, "p": [doc.parent.domain, doc.parent.kind],
            "urls": sorted(doc.urls.items()), "sites": sorted(doc.sites),
        })
    return b"".join((_ENCODER.encode(rec) + "\n").encode("utf-8") for rec in records)


# quotes, backslashes, control characters, non-ASCII and lone surrogates
_odd_text = st.text(
    alphabet=st.sampled_from(list('ab/"\\\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600 ')),
    max_size=5,
)
_KINDS = ("script", "media", "iframe", "other")


@st.composite
def odd_graphs(draw):
    g = WideGraph()
    g.roots.update(draw(st.sets(_odd_text, max_size=3)))
    keys = draw(st.lists(
        st.builds(NodeKey, _odd_text, st.sampled_from(_KINDS + (FIRST_PARTY,))),
        min_size=1, max_size=5, unique=True,
    ))
    for key in keys:
        g.nodes[key] = key
    for key in keys:
        if key.is_first_party():
            continue
        # a (host, kind) is one document, whichever node it is filed under
        hosts = st.sets(_odd_text.filter(lambda h: (h, key.kind) not in g.docs), max_size=2)
        for host in draw(hosts):
            urls = draw(st.dictionaries(_odd_text, st.integers(1, 10**20), max_size=3))
            sites = draw(st.sets(_odd_text, max_size=2))
            g.docs[host, key.kind] = SubdomainDocument(host, key.kind, Counter(urls), sites, key)
    edges = draw(st.lists(
        st.tuples(st.sampled_from(keys), st.sampled_from(keys), st.sampled_from(_KINDS + (BOUNCED,))),
        max_size=6, unique=True,
    ))
    for edge in edges:
        g.edges[edge] = EdgeData(draw(st.integers(-3, 10**20)), draw(st.lists(_odd_text, max_size=3)))
    return g


@settings(max_examples=150, deadline=None)
@given(odd_graphs())
def test_save_graph_equals_per_record_sorted_json(graph):
    assert saved(graph) == reference_saved(graph)


def test_save_graph_on_a_built_graph_equals_per_record_sorted_json():
    g, _ = TestCoverage().three_root_fixture()
    assert saved(g) == reference_saved(g)


# A small graph every record of which is one contract_tree can write: two
# sites embed a.net's script, which loads b.net's pixel, and r.com has a
# Bounced edge to the pixel.
_GRAPH_LINES = [
    '{"format": "widegraph", "version": 1}',
    '{"d": "q.com", "t": "root"}',
    '{"d": "r.com", "t": "root"}',
    '{"d": "a.net", "k": "script", "t": "node"}',
    '{"d": "b.net", "k": "media", "t": "node"}',
    '{"d": "q.com", "k": "firstparty", "t": "node"}',
    '{"d": "r.com", "k": "firstparty", "t": "node"}',
    '{"l": "media", "m": 3, "s": ["a.net", "script"], "sites": ["q.com", "r.com"], "t": "edge", '
    '"x": ["b.net", "media"]}',
    '{"l": "script", "m": 1, "s": ["q.com", "firstparty"], "sites": ["q.com"], "t": "edge", '
    '"x": ["a.net", "script"]}',
    '{"l": "script", "m": 2, "s": ["r.com", "firstparty"], "sites": ["r.com"], "t": "edge", '
    '"x": ["a.net", "script"]}',
    '{"l": "bounced", "m": 1, "s": ["r.com", "firstparty"], "sites": ["r.com"], "t": "edge", '
    '"x": ["b.net", "media"]}',
    '{"h": "px.a.net", "k": "script", "p": ["a.net", "script"], "sites": ["q.com", "r.com"], '
    '"t": "doc", "urls": [["https://px.a.net/a.js", 2], ["https://px.a.net/b.js", 1]]}',
    '{"h": "px.b.net", "k": "media", "p": ["b.net", "media"], "sites": ["r.com"], "t": "doc", '
    '"urls": [["https://px.b.net/p.gif?uid=1", 3]]}',
]
_EDGE_AT, _DOC_AT = 7, 11  # list indexes of the a.net -> b.net edge and the px.a.net document


def _graph_file(lines):
    return "".join(line + "\n" for line in lines).encode()


def _with(at, old, new):
    lines = list(_GRAPH_LINES)
    assert old in lines[at]
    lines[at] = lines[at].replace(old, new)
    return _graph_file(lines)


def test_hand_written_graph_loads_and_re_saves_byte_for_byte():
    data = _graph_file(_GRAPH_LINES)
    assert saved(load_graph(data)) == data


@pytest.mark.parametrize(
    "at, old, new, message",
    [
        (_EDGE_AT, '["q.com", "r.com"]', '["nowhere.com"]', "edge site 'nowhere.com' is not a root"),
        (_EDGE_AT, '["q.com", "r.com"]', '["r.com", "q.com"]', "edge sites are not sorted and distinct"),
        (_EDGE_AT, '["q.com", "r.com"]', '["r.com", "r.com"]', "edge sites are not sorted and distinct"),
        (_EDGE_AT, '"m": 3', '"m": -3', "edge multiplicity -3 is below 1"),
        (_EDGE_AT, '"m": 3', '"m": 0', "edge multiplicity 0 is below 1"),
        (_EDGE_AT, '"x": ["b.net", "media"]', '"x": ["r.com", "firstparty"]',
         r"edge into first-party node \('r.com', 'firstparty'\)"),
        (_EDGE_AT, '"l": "media"', '"l": "bounced"',
         r"bounced edge from third-party node \('a.net', 'script'\)"),
        # contract_tree drops self-edges and labels an edge with its
        # target's kind unless it is Bounced.
        (_EDGE_AT + 1, '"s": ["q.com", "firstparty"]', '"s": ["a.net", "script"]',
         r"self-loop edge on \('a.net', 'script'\)"),
        (_EDGE_AT, '"x": ["b.net", "media"]', '"x": ["a.net", "script"]',
         "edge label 'media' is neither its target's kind 'script' nor bounced"),
        (_EDGE_AT, '"l": "media"', '"l": "wedge"',
         "edge label 'wedge' is neither its target's kind 'media' nor bounced"),
        (_EDGE_AT, '"l": "media"', '"l": "script"',
         "edge label 'script' is neither its target's kind 'media' nor bounced"),
        (_EDGE_AT + 1, '"l": "script"', '"l": "iframe"',
         "edge label 'iframe' is neither its target's kind 'script' nor bounced"),
        (_DOC_AT, '["https://px.a.net/b.js", 1]', '["https://px.a.net/a.js", 1]',
         "document lists url 'https://px.a.net/a.js' twice"),
        (_DOC_AT, '["https://px.a.net/b.js", 1]', '["https://px.a.net/b.js", 0]',
         "document url 'https://px.a.net/b.js' has count 0, below 1"),
        (_DOC_AT, '"sites": ["q.com", "r.com"]', '"sites": ["nowhere.com"]',
         "document site 'nowhere.com' is not a root"),
        (_DOC_AT, '["https://px.a.net/b.js", 1]', '["https://px.a.net/b\\tc.js", 1]',
         r"document url 'https://px.a.net/b\\tc.js' is not printable"),
        (_DOC_AT, '[["https://px.a.net/a.js", 2], ["https://px.a.net/b.js", 1]]', "[]",
         "document 'px.a.net' lists no urls"),
        # A root or node domain must be printable and its own registrable
        # domain: a tab would split the node's structural.tsv row.
        (3, '"a.net"', '"a\\tb.net"',
         r"node domain 'a\\tb.net' is not a printable registrable domain"),
        (3, '"a.net"', '"a.net\\u2028"',
         r"node domain 'a.net\\u2028' is not a printable registrable domain"),
        (3, '"a.net"', '"px.a.net"',
         "node domain 'px.a.net' is not a printable registrable domain"),
        (3, '"a.net"', '"A.net"', "node domain 'A.net' is not a printable registrable domain"),
        (3, '"a.net"', '"a..net"', "node domain 'a..net' is not a printable registrable domain"),
        (3, '"a.net"', '""', "node domain '' is not a printable registrable domain"),
        (1, '"q.com"', '"www.q.com"',
         "root domain 'www.q.com' is not a printable registrable domain"),
        (1, '"q.com"', '" q.com"', "root domain ' q.com' is not a printable registrable domain"),
        (1, '"q.com"', '"q.com."', "root domain 'q.com.' is not a printable registrable domain"),
        # A document URL must be one ingest accepts.
        (_DOC_AT, '"https://px.a.net/b.js"', '"ftp://px.a.net/b.js"',
         "document url 'ftp://px.a.net/b.js' is not on host 'px.a.net'"),
    ],
)
def test_record_contract_tree_never_writes_names_its_line(at, old, new, message):
    with pytest.raises(GraphFormatError, match=f"^{message} on line {at + 1}$"):
        load_graph(_with(at, old, new))


def test_other_layouts_load_as_the_graph_they_describe():
    """Layout is not checked: other key orders, spacing, record order, URL
    order, blank lines, CR line ends and no final newline load the same
    graph, which re-saves in save_graph's own layout."""
    data = _graph_file(_GRAPH_LINES)
    lines = [json.dumps(json.loads(line), separators=(",", ":")) for line in _GRAPH_LINES]
    lines[3], lines[4] = lines[4], lines[3]
    lines[_DOC_AT] = lines[_DOC_AT].replace(
        '[["https://px.a.net/a.js",2],["https://px.a.net/b.js",1]]',
        '[["https://px.a.net/b.js",1],["https://px.a.net/a.js",2]]',
    )
    lines[_EDGE_AT] = json.dumps(dict(reversed(json.loads(lines[_EDGE_AT]).items())))
    lines[2] = '{"t": "root", "d": "r.com", "z": 1}'
    lines.insert(5, "")
    other = "\r\n".join(lines).encode()
    assert other != data
    assert saved(load_graph(other)) == data
    assert load_graph(other) == load_graph(data)


# Values a record field may be swapped for: some keep the graph one
# contract_tree could write, most do not.
_FIELD_VALUES = {
    "d": ["a.net", "b.net", "q.com", "zz.com", 5],
    "k": ["script", "media", "iframe", "other", "firstparty", "bounced"],
    "l": ["script", "media", "iframe", "bounced", "firstparty"],
    "m": [1, 2, 0, -3, 1.0, "1", True],
    "t": ["root", "node", "edge", "doc", "wedge"],
    "sites": [
        [], ["q.com"], ["r.com"], ["q.com", "r.com"], ["r.com", "q.com"], ["r.com", "r.com"],
        ["nowhere.com"], "r.com",
    ],
    "h": ["px.a.net", "cdn.a.net", "px.b.net", "p\xe9.a.net"],
    "urls": [
        [], [["https://px.a.net/a.js", 1]], [["https://px.a.net/a.js", 5]],
        [["https://px.a.net/b.js", 1], ["https://px.a.net/a.js", 1]],
        [["https://px.a.net/a.js", 1], ["https://px.a.net/a.js", 2]],
        [["https://px.a.net/a.js", 0]], [["https://px.a.net/\xe9", 1]],
        [["https://px.b.net/p.gif?uid=1", 1]],
    ],
}
_FIELD_VALUES.update(dict.fromkeys("sxp", [  # edge ends and document parents
    ["a.net", "script"], ["b.net", "media"], ["r.com", "firstparty"], ["c.net", "other"], [],
]))

@st.composite
def mutated_graph_files(draw):
    """The hand-written graph with a few line edits: a record field swapped
    for another value (re-encoded as save_graph lays it out), or a line
    swapped, copied, dropped, blanked or given a CR; optionally no final
    newline."""
    lines = list(_GRAPH_LINES)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["value"] * 4 + ["swap", "copy", "drop", "blank", "cr"]))
        i = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        j = draw(st.integers(0, len(lines) - 1))
        if op == "value":
            try:
                rec = json.loads(lines[i])
            except ValueError:
                continue
            if not isinstance(rec, dict) or not rec:
                continue
            key = draw(st.sampled_from(sorted(rec)))
            rec[key] = draw(st.sampled_from(_FIELD_VALUES.get(key, [0, "x", []])))
            lines[i] = json.dumps(rec, sort_keys=True)
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "copy":
            lines.insert(j, lines[i])
        elif op == "drop":
            del lines[i]
        elif op == "blank":
            lines.insert(i, "")
        elif op == "cr":
            lines[i] += "\r"
    data = _graph_file(lines)
    return data[:-1] if draw(st.integers(0, 3)) == 0 else data


@settings(max_examples=500, deadline=None)
@given(mutated_graph_files())
def test_graph_load_graph_accepts_re_saves_to_a_fixed_point(data):
    """A graph file loads, or is rejected naming a line; the re-save of
    what loads is the per-record JSON reference, and loads back to the same
    graph and the same bytes."""
    try:
        graph = load_graph(data)
    except GraphFormatError as exc:
        assert re.search(r" on line \d+(:|$)", str(exc)), exc
        return
    once = saved(graph)
    assert once == reference_saved(graph)
    again = load_graph(once)
    assert again == graph
    assert saved(again) == once
