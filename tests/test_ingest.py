import io
import json
from collections import Counter
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from widetrack.domains import registrable_domain
from widetrack.ingest import (
    NODE_KINDS,
    TREES_HEADER,
    DependencyTree,
    HarParseError,
    build_tree,
    classify_interaction,
    parse_har,
    read_trees,
    tree_line,
)

PAGE = "https://www.site.com/"
SCRIPT = "https://cdn.tracker.net/lib.js"
PIXEL = "https://px.tracker.net/collect?id=1"


def trees_file(trees):
    return TREES_HEADER + b"".join(tree_line(t) for t in trees)


def tree_record(tree):
    """The record a trees line holds, built field by field."""
    return {
        "root_url": tree.root_url,
        "root_domain": tree.root_domain,
        "nodes": sorted(tree.nodes.items()),
        "edges": sorted((s, d, m) for (s, d), m in tree.edges.items()),
        "diagnostics": dict(sorted(tree.diagnostics.items())),
        "skipped": dict(sorted(tree.skipped.items())),
    }


def har_bytes(entries):
    return json.dumps({"log": {"version": "1.2", "entries": entries}}).encode()


def entry(url, rt=None, initiator=None, mime=None, started="2024-01-01T00:00:00.000Z"):
    e = {"startedDateTime": started, "request": {"method": "GET", "url": url}}
    if rt:
        e["_resourceType"] = rt
    if initiator is not None:
        e["_initiator"] = initiator
    if mime:
        e["response"] = {"status": 200, "content": {"mimeType": mime}}
    return e


def chain_fixture():
    """Page P loads script S via the parser; S loads pixel X."""
    return har_bytes(
        [
            entry(PAGE, rt="document", started="2024-01-01T00:00:00.000Z"),
            entry(SCRIPT, rt="script", initiator={"type": "parser"}, started="2024-01-01T00:00:00.001Z"),
            entry(PIXEL, rt="xhr", initiator={"type": "script", "url": SCRIPT}, started="2024-01-01T00:00:00.002Z"),
        ]
    )


class TestParseHar:
    def test_single_entry_session(self):
        record = parse_har(har_bytes([entry(PAGE, rt="document")]))
        assert len(record.entries) == 1
        assert record.entries[0].initiator_url is None
        assert record.site_url == PAGE

    def test_initiator_chain_resolution(self):
        record = parse_har(chain_fixture())
        by_url = {e.url: e for e in record.entries}
        assert by_url[SCRIPT].initiator_url == PAGE  # parser -> document URL
        assert by_url[PIXEL].initiator_url == SCRIPT

    def test_initiator_from_call_stack(self):
        data = har_bytes(
            [
                entry(PAGE, rt="document"),
                entry(
                    PIXEL,
                    rt="xhr",
                    initiator={"type": "script", "stack": {"callFrames": [{"url": SCRIPT}]}},
                ),
            ]
        )
        record = parse_har(data)
        assert record.entries[1].initiator_url == SCRIPT

    def test_unparseable_url_skipped(self):
        record = parse_har(har_bytes([entry(PAGE, rt="document"), entry("not a url")]))
        assert len(record.entries) == 1
        assert record.skip_count == 1
        assert record.skipped["bad_url"] == 1

    def test_empty_host_label_skipped_and_graph_builds(self):
        from widetrack.graph import build_widegraph

        record = parse_har(
            har_bytes([entry(PAGE, rt="document"), entry("http://a..b/x.js", rt="script")])
        )
        assert len(record.entries) == 1
        assert record.skip_count == 1
        assert record.skipped["bad_host"] == 1
        graph = build_widegraph([build_tree(record)])
        assert graph.roots == {"site.com"}

    def test_data_url_skipped(self):
        record = parse_har(
            har_bytes([entry(PAGE, rt="document"), entry("data:image/png;base64,AAAA")])
        )
        assert record.skipped["no_hostname"] == 1

    def test_malformed_document_reports_offset(self):
        with pytest.raises(HarParseError) as err:
            parse_har(b'{"log": {"entries": [}}')
        assert err.value.offset is not None
        assert "byte" in str(err.value)

    def test_missing_entries_rejected(self):
        with pytest.raises(HarParseError):
            parse_har(b'{"log": {}}')

    def test_redirect_target_initiated_by_hop(self):
        target = "https://cdn.tracker.net/after-redirect.js"
        data = json.dumps(
            {
                "log": {
                    "entries": [
                        entry(PAGE, rt="document"),
                        {
                            "startedDateTime": "2024-01-01T00:00:00.001Z",
                            "request": {"method": "GET", "url": SCRIPT},
                            "response": {"status": 302, "redirectURL": target},
                            "_resourceType": "script",
                            "_initiator": {"type": "parser"},
                        },
                        entry(target, rt="script", started="2024-01-01T00:00:00.002Z"),
                    ]
                }
            }
        ).encode()
        record = parse_har(data)
        assert {e.url: e.initiator_url for e in record.entries}[target] == SCRIPT


class TestWrongFieldTypes:
    """A field of the wrong type counts as absent; one bad entry never costs
    the rest of the capture."""

    def test_string_initiator_is_a_url(self):
        record = parse_har(har_bytes([entry(PAGE, rt="document"), entry(PIXEL, initiator=SCRIPT)]))
        assert record.entries[1].initiator_url == SCRIPT

    @pytest.mark.parametrize("initiator", [["parser"], 7, True, {"url": ["x"]}])
    def test_non_dict_initiator_is_unknown(self, initiator):
        record = parse_har(har_bytes([entry(PAGE, rt="document"), entry(PIXEL, initiator=initiator)]))
        assert len(record.entries) == 2
        assert record.entries[1].initiator_url is None

    @pytest.mark.parametrize("request_", [None, "https://a.com/", ["x"], {"url": 5}])
    def test_unusable_request_is_malformed(self, request_):
        bad = {"startedDateTime": "2024-01-01T00:00:00.001Z", "request": request_}
        record = parse_har(har_bytes([entry(PAGE, rt="document"), bad]))
        assert len(record.entries) == 1
        assert record.skipped["malformed_entry"] == 1

    @pytest.mark.parametrize(
        "response",
        [["x"], "text/html", {"content": "image/gif"}, {"content": {"mimeType": 3}},
         {"redirectURL": ["x"]}],
    )
    def test_non_dict_response_has_no_mime_or_redirect(self, response):
        odd = entry(PIXEL, started="2024-01-01T00:00:00.001Z")
        odd["response"] = response
        record = parse_har(har_bytes([entry(PAGE, rt="document"), odd]))
        assert record.entries[1].mime is None
        assert record.entries[1].initiator_url is None

    def test_wrong_type_elsewhere_in_the_entry(self):
        odd = entry(PIXEL, initiator={"type": "script", "stack": {"callFrames": 4}})
        odd["_resourceType"] = ["script"]
        odd["startedDateTime"] = 12
        record = parse_har(har_bytes([entry(PAGE, rt="document"), odd]))
        assert [e.url for e in record.entries] == [PIXEL, PAGE]
        assert record.entries[0].resource_type is None
        assert record.entries[0].initiator_url is None


def test_interaction_kind_variants():
    from widetrack.graph import BOUNCED, FIRST_PARTY

    assert NODE_KINDS == ("script", "media", "iframe", "other")
    assert BOUNCED not in NODE_KINDS and FIRST_PARTY not in NODE_KINDS


def test_kind_tables_follow_node_kinds():
    """The matcher's type options, the content kind codes and the corpus
    generator's captures are all keyed by the one tuple of node kinds."""
    from widetrack import synth
    from widetrack.content import KIND_CODES
    from widetrack.filters import KIND_TO_OPTION

    assert set(KIND_TO_OPTION) == set(NODE_KINDS)
    assert list(KIND_CODES.items()) == [(kind, code) for code, kind in enumerate(NODE_KINDS)]
    for kind in NODE_KINDS:
        assert classify_interaction(synth._RESOURCE_TYPES[kind], synth._MIMES[kind]) == kind


class TestClassifyInteraction:
    @pytest.mark.parametrize(
        "rt,expected",
        [
            ("script", "script"),
            ("image", "media"),
            ("media", "media"),
            ("font", "media"),
            ("document", "iframe"),
            ("subdocument", "iframe"),
            ("xhr", "other"),
            ("fetch", "other"),
            ("stylesheet", "other"),
            ("ping", "other"),
        ],
    )
    def test_resource_type_table(self, rt, expected):
        assert classify_interaction(rt) == expected

    @pytest.mark.parametrize(
        "mime,expected",
        [
            ("image/png", "media"),
            ("video/mp4", "media"),
            ("application/javascript", "script"),
            ("text/html; charset=utf-8", "iframe"),
            ("application/json", "other"),
        ],
    )
    def test_mime_fallback(self, mime, expected):
        assert classify_interaction(None, mime) == expected

    def test_resource_type_beats_mime(self):
        assert classify_interaction("script", "image/png") == "script"

    def test_nothing_known_is_other(self):
        assert classify_interaction(None, None) == "other"


class TestBuildTree:
    def test_single_entry_is_root_only(self):
        tree = build_tree(parse_har(har_bytes([entry(PAGE, rt="document")])))
        assert set(tree.nodes) == {PAGE}
        assert tree.edges == {}
        # the page is the only node, so no URL is third-party
        assert registrable_domain(urlsplit(PAGE).hostname) == tree.root_domain

    def test_chain_fixture_edges(self):
        tree = build_tree(parse_har(chain_fixture()))
        assert tree.edges == {(PAGE, SCRIPT): 1, (SCRIPT, PIXEL): 1}
        assert tree.nodes[SCRIPT] == "script"
        assert tree.nodes[PIXEL] == "other"
        assert tree.root_domain == "site.com"

    def test_duplicate_requests_collapse_with_multiplicity(self):
        data = har_bytes(
            [
                entry(PAGE, rt="document"),
                entry(SCRIPT, rt="script", initiator={"type": "parser"}),
                entry(SCRIPT, rt="script", initiator={"type": "parser"}),
            ]
        )
        tree = build_tree(parse_har(data))
        assert tree.edges == {(PAGE, SCRIPT): 2}

    def test_unknown_initiator_attaches_to_root(self):
        data = har_bytes([entry(PAGE, rt="document"), entry(PIXEL, rt="xhr")])
        tree = build_tree(parse_har(data))
        assert tree.edges == {(PAGE, PIXEL): 1}

    def test_initiator_never_requested_attaches_to_root(self):
        ghost = "https://ghost.example.com/x.js"
        data = har_bytes(
            [
                entry(PAGE, rt="document"),
                entry(PIXEL, rt="xhr", initiator={"type": "script", "url": ghost}),
            ]
        )
        tree = build_tree(parse_har(data))
        assert tree.edges == {(PAGE, PIXEL): 1}

    def test_edge_back_to_root_dropped_and_counted(self):
        data = har_bytes(
            [
                entry(PAGE, rt="document"),
                entry(SCRIPT, rt="script", initiator={"type": "parser"}),
                entry(PAGE, rt="document", initiator={"type": "script", "url": SCRIPT}),
            ]
        )
        tree = build_tree(parse_har(data))
        assert all(dst != PAGE for (_, dst) in tree.edges)
        assert tree.diagnostics["edge_to_root_dropped"] == 1

    def test_conservation_of_entries(self):
        record = parse_har(
            har_bytes(
                [
                    entry(PAGE, rt="document"),
                    entry(SCRIPT, rt="script", initiator={"type": "parser"}),
                    entry("data:text/plain,hi"),
                    entry("%%%"),
                ]
            )
        )
        tree = build_tree(record)
        assert len(tree.nodes) + tree.skipped.total() == 4

    def test_deterministic(self):
        data = chain_fixture()
        t1 = build_tree(parse_har(data))
        t2 = build_tree(parse_har(data))
        assert t1.nodes == t2.nodes and t1.edges == t2.edges

    def test_edges_cover_non_root_nodes(self):
        tree = build_tree(parse_har(chain_fixture()))
        non_root = set(tree.nodes) - {tree.root_url}
        targets = {dst for (_, dst) in tree.edges}
        assert non_root <= targets
        assert len(tree.edges) >= len(non_root)


def test_trees_file_round_trip():
    trees = [build_tree(parse_har(chain_fixture()))]
    loaded = list(read_trees(io.BytesIO(trees_file(trees))))
    assert tree_record(loaded[0]) == tree_record(trees[0])


# Text that JSON escapes: quotes, backslashes, control and non-ASCII
# characters, a line separator, lone surrogates and an astral character.
_odd_text = st.text(
    alphabet=st.sampled_from(list('ab/"\\\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600 ')),
    max_size=5,
)
_tallies = st.dictionaries(_odd_text, st.integers(-3, 10**20), max_size=3)


@st.composite
def odd_trees(draw):
    urls = draw(st.lists(_odd_text, min_size=1, max_size=6, unique=True))
    kinds = st.one_of(st.sampled_from(sorted(NODE_KINDS)), _odd_text)
    edges = draw(st.dictionaries(
        st.tuples(st.sampled_from(urls), st.sampled_from(urls)), st.integers(-3, 10**20),
        max_size=8,
    ))
    return DependencyTree(
        root_url=draw(_odd_text),
        root_domain=draw(_odd_text),
        nodes={url: draw(kinds) for url in urls},
        edges=edges,
        diagnostics=Counter(draw(_tallies)),
        skipped=Counter(draw(_tallies)),
        hosts={},  # not written; given, so no URL is checked
    )


@settings(max_examples=200, deadline=None)
@given(odd_trees())
def test_tree_line_equals_per_record_sorted_json(tree):
    expected = json.JSONEncoder(sort_keys=True).encode(tree_record(tree)) + "\n"
    assert tree_line(tree) == expected.encode()


def test_hosts_equal_a_fresh_split_from_either_source():
    from widetrack.graph import build_widegraph, save_graph

    urls = [
        "https://CDN.Tracker.NET/lib.js",
        "https://px.tracker.net:8443/collect?id=1",
        "https://user:pw@ads.shop.io/a.js",
        "http://[2001:DB8::1]:8080/p.gif",
        "https://sync.tracker.net./s",
        "https://xn--bcher-kva.example/b.js",
        "https://px.tracker.net/second",
    ]
    data = har_bytes(
        [entry(PAGE, rt="document")]
        + [entry(u, rt="script", initiator={"type": "parser"}) for u in urls]
    )
    record = parse_har(data)
    assert record.entries[2].host is record.entries[-1].host  # interned per capture
    trees = [build_tree(record)]
    assert set(trees[0].nodes) == {PAGE, *urls}
    assert trees[0].hosts == {u: urlsplit(u).hostname for u in trees[0].nodes}
    loaded = list(read_trees(io.BytesIO(trees_file(trees))))
    assert loaded[0].hosts == trees[0].hosts
    saved = []
    for source in (loaded, trees):
        out = io.BytesIO()
        save_graph(build_widegraph(source), out)
        saved.append(out.getvalue())
    assert saved[0] == saved[1]


@pytest.mark.parametrize("url", ["https://a..b.com/x.js", "https://.a.com/x"])
def test_empty_dns_label_is_skipped_as_bad_host(url):
    embedded = entry(url, rt="script", initiator={"type": "parser"})
    record = parse_har(har_bytes([entry(PAGE, rt="document"), embedded]))
    assert [e.url for e in record.entries] == [PAGE]
    assert record.skipped == {"bad_host": 1}


def test_urls_sharing_a_host_read_as_url_host_reads_each():
    """parse_har reads a plain host once per capture and reuses it for
    later URLs with the same "scheme://host" prefix; each URL still gets
    the host, or the skip, that url_host gives it alone."""
    from widetrack.ingest import url_host

    base = "https://px.tracker.net"
    urls = [
        base + "/a", base + "/b\tc", base, base + "?q", base + "#f", base + ":8443/p",
        base + "./x", "http://px.tracker.net/h", "HTTPS://px.tracker.net/u", base + "/\u2028",
        "https://b\u00fccher.example/x", "https://b\u00fccher.example/y\x85",
        # " https:/" is the text before the third "/" of both; their hosts differ
        " https://px.tracker.net/l", " https://cdn.tracker.net/l",
    ]
    record = parse_har(har_bytes([entry(PAGE, rt="document")] + [entry(u) for u in urls]))
    expected = [(u, url_host(u)[0]) for u in [PAGE] + urls if url_host(u)[0]]
    assert [(e.url, e.host) for e in record.entries] == expected
    assert record.skipped == Counter(url_host(u)[1] for u in urls if url_host(u)[1])
    assert record.skipped["bad_url"] == 3


def test_unicode_host_and_its_punycode_stay_two_hosts_through_both_files():
    """Hosts get no IDNA mapping: a Unicode host and its punycode spelling
    are each accepted as written, as two hosts on two nodes, and both come
    back from trees.jsonl and from graph.jsonl."""
    from widetrack.graph import build_widegraph, load_graph, save_graph

    spellings = {
        "https://b\u00fccher.example/x.js": "b\u00fccher.example",
        "https://xn--bcher-kva.example/x.js": "xn--bcher-kva.example",
    }
    record = parse_har(
        har_bytes(
            [entry(PAGE, rt="document")]
            + [entry(u, rt="script", initiator={"type": "parser"}) for u in spellings]
        )
    )
    assert record.skip_count == 0
    tree = build_tree(record)
    assert {u: tree.hosts[u] for u in spellings} == spellings
    (loaded,) = read_trees(io.BytesIO(trees_file([tree])))
    assert loaded.hosts == tree.hosts
    out = io.BytesIO()
    save_graph(build_widegraph([loaded]), out)
    graph = load_graph(out.getvalue())
    assert graph == build_widegraph([tree])
    hosts = set(spellings.values())
    assert {d.host for d in graph.documents()} == hosts
    assert {key.domain for key in graph.third_party_keys()} == hosts


def test_trees_file_streams_one_record_at_a_time():
    tree = build_tree(parse_har(chain_fixture()))
    stream = io.BytesIO(trees_file([tree]) + b"not json\n")
    trees = read_trees(stream)
    assert tree_record(next(trees)) == tree_record(tree)
    assert stream.tell() == len(trees_file([tree]))  # the bad line is unread
    with pytest.raises(HarParseError, match="line 3"):
        next(trees)
    with pytest.raises(HarParseError, match="empty trees file"):
        list(read_trees(io.BytesIO(b"")))


def test_trees_file_rejects_garbage():
    with pytest.raises(HarParseError):
        list(read_trees(io.BytesIO(b'{"format": "something-else", "version": 9}\n')))


@pytest.mark.parametrize(
    "change",
    [
        lambda rec: rec.pop("root_domain"),
        lambda rec: rec.update(root_url=5),
        lambda rec: rec.update(nodes=7),
        lambda rec: rec.update(edges=[["a", "b"]]),
        lambda rec: rec.update(edges=[[PAGE, "https://elsewhere.org/", 1]]),
        lambda rec: rec.update(diagnostics={"self_edge_dropped": "x"}),
        # contraction would write it, and load_graph refuse it
        lambda rec: rec.update(edges=[[src, dst, 0] for src, dst, _ in rec["edges"]]),
        lambda rec: rec.update(edges=[*rec["edges"][:-1], [*rec["edges"][-1][:2], -2]]),
        lambda rec: rec["nodes"].append(["http:///x.js", "script"]),  # no host
        lambda rec: rec["nodes"].append(["http://[::1/x", "script"]),  # urlsplit raises
        lambda rec: rec["nodes"].append(["https://a..b/x.js", "script"]),  # no domain
        lambda rec: rec["nodes"].append(["https://px.t.net/x\ty.js", "script"]),  # tab
        lambda rec: rec["nodes"].append(["https://px.t.net/w.js", "weird"]),
        lambda rec: rec["nodes"].append(["https://px.t.net/f.js", "firstparty"]),
        # the root domain is its root URL's registrable domain, no other
        lambda rec: rec.update(root_domain="www." + rec["root_domain"]),
        lambda rec: rec.update(root_domain="elsewhere.org"),
        lambda rec: rec.update(root_url="ftp://" + rec["root_domain"] + "/"),
        # the root URL is a node
        lambda rec: rec.update(root_url=rec["root_url"] + "elsewhere.html"),
        # a repeated node URL or edge, as load_graph refuses in a graph file
        lambda rec: rec["nodes"].append(rec["nodes"][-1]),
        lambda rec: rec["nodes"].append([rec["nodes"][-1][0], "other"]),
        lambda rec: rec["edges"].append([*rec["edges"][-1][:2], 5]),
    ],
)
def test_trees_file_bad_record_names_the_line(change):
    tree = build_tree(parse_har(chain_fixture()))
    rec = tree_record(tree)
    change(rec)
    data = trees_file([tree]) + (json.dumps(rec) + "\n").encode()
    with pytest.raises(HarParseError, match="line 3"):
        list(read_trees(io.BytesIO(data)))
