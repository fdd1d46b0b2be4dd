import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from widetrack.graph import (
    BOUNCED,
    FIRST_PARTY,
    GraphError,
    GraphFormatError,
    GraphIndex,
    NodeKey,
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
        docs = g.nodes[NodeKey("t.net", "other")].documents
        assert docs["px.t.net"].urls == Counter({u1: 2, u2: 1})
        assert docs["sync.t.net"].urls == Counter({u3: 1})
        assert all(d.sites == {"site.com"} and d.kind == "other" for d in docs.values())


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
        doc = g.nodes[key].documents["ads.doubleclick.net"]
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
