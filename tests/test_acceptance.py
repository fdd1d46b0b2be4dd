"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a `criterion N: PASS` line once its assertions hold. Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from widetrack.content import build_vocabulary, content_rows, doc_token_counts
from widetrack.filters import ADTRACKER, RuleSet, _pattern_to_regex, label_document, parse_rules
from widetrack.forest import ForestParams, _walk, predict, save_model, train
from widetrack.graph import (
    NodeKey,
    SubdomainDocument,
    WideGraph,
    build_widegraph,
    coverage_counts,
)
from widetrack.ingest import build_tree, parse_har
from widetrack.pipeline import PipelineConfig, filter_eligible, run_all
from widetrack.synth import EcosystemConfig, generate

from url_documents import url_document

# ---------------------------------------------------------------------------
# criterion 1: graph oracle equivalence on 50 seeded corpora
# ---------------------------------------------------------------------------


def brute_force_coverage(corpus, key):
    """Per-site reachability straight from the generator's visit plans."""
    direct = indirect = 0
    for plan in corpus.site_plans.values():
        adjacency = {}
        for src, dst in plan.loads:
            adjacency.setdefault(src, set()).add(dst)
        seen = set(plan.direct)
        stack = list(plan.direct)
        while stack:
            for nxt in adjacency.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if key in plan.direct:
            direct += 1
        if key in seen:
            indirect += 1
    return direct, indirect, len(corpus.site_plans)


def edge_triples(graph):
    return {(src, dst, label) for src, dst, label, _, _ in graph.edge_records()}


def test_criterion_1_graph_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(50):
        config = EcosystemConfig(
            n_sites=10 + (seed * 7) % 41,  # 10..50 sites
            n_trackers=6,
            n_benign=5,
            tracker_embed_prob=0.4,
            benign_embed_prob=0.12,
            bounce_prob=0.4,
            seed=seed,
        )
        corpus = generate(config)
        trees = [build_tree(parse_har(data)) for _, data in corpus.har_files]
        graph = build_widegraph(trees)

        truth = corpus.truth_graph
        assert set(graph.nodes) == set(truth.nodes)
        assert graph.roots == truth.roots
        assert edge_triples(graph) == edge_triples(truth)
        assert graph == truth  # multiplicities, site sets, documents

        for key in graph.third_party_keys():
            d, i, n = coverage_counts(graph, key)
            bd, bi, bn = brute_force_coverage(corpus, key)
            assert Fraction(d, n) == Fraction(bd, bn)
            assert Fraction(i, n) == Fraction(bi, bn)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"
    print(f"criterion 1: PASS: 50 corpora matched exactly in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: TF-IDF against independent recomputation
# ---------------------------------------------------------------------------


def naive_tokens(url):
    s = url.lower()
    if s.startswith("https://"):
        s = s[8:]
    elif s.startswith("http://"):
        s = s[7:]
    for ch in "/?&=.-":
        s = s.replace(ch, " ")
    return s.split()


def test_criterion_2_tfidf_oracle():
    """Cells of the rows ``content_rows`` writes to content.tsv."""
    corpus = generate(EcosystemConfig(n_sites=40, n_trackers=10, n_benign=8, seed=2))
    docs = corpus.truth_graph.documents()
    token_counts = [doc_token_counts(d) for d in docs]
    vocabulary = build_vocabulary(token_counts, k=400, rank_by="df")
    _, values, _ = content_rows(docs, token_counts, vocabulary, clamp_idf=False)

    oracle_df = Counter()
    oracle_counts = []
    for doc in docs:
        counts = Counter()
        for url, mult in doc.urls.items():
            for token in naive_tokens(url):
                counts[token] += mult
        oracle_counts.append(counts)
        oracle_df.update(set(counts))

    rng = random.Random(1234)
    checked = 0
    while checked < 1000:
        term = rng.choice(vocabulary.terms)
        idx = rng.randrange(len(docs))
        got = values[idx, vocabulary.index[term]]
        f = oracle_counts[idx].get(term, 0)
        expected = math.log(1 + f) * math.log(len(docs) / (1 + oracle_df[term]))
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected)), (term, idx)
        checked += 1
    print("criterion 2: PASS: 1000 (term, document) pairs within 1e-12 relative")


# ---------------------------------------------------------------------------
# criterion 3: rule-matcher vectors and monotonicity
# ---------------------------------------------------------------------------

# (rules text, url, page domain, interaction kind, expected blocked)
MATCH_VECTORS = [
    # hostname anchor ||
    ("||ads.example.com^", "http://ads.example.com/banner.js", "news.com", "script", True),
    ("||ads.example.com^", "http://example.com/x", "news.com", "script", False),
    ("||ads.example.com^", "http://sub.ads.example.com/x", "news.com", "script", True),
    ("||ads.example.com^", "http://badads.example.com/x", "news.com", "script", False),
    # separator ^
    ("||t.net^", "https://t.net", "news.com", "script", True),
    ("||t.net^", "https://t.network/x", "news.com", "script", False),
    ("||t.net^", "https://t.net:8080/a", "news.com", "script", True),
    ("/banner^", "https://x.com/banner?id=1", "news.com", "script", True),
    ("/banner^", "https://x.com/bannerx", "news.com", "script", False),
    # start/end anchors |
    ("|https://exact.com/a.js|", "https://exact.com/a.js", "news.com", "script", True),
    ("|https://exact.com/a.js|", "https://exact.com/a.js?x", "news.com", "script", False),
    ("|http://only.com", "https://x.com/?u=http://only.com", "news.com", "script", False),
    # wildcard *
    ("ads/*/track", "https://x.com/ads/v1/track", "news.com", "script", True),
    ("ads/*/track", "https://x.com/ads/track", "news.com", "script", False),
    ("*", "https://anything.net/x", "news.com", "script", True),
    # exceptions @@
    ("||good.com^\n@@||good.com^", "https://good.com/x", "news.com", "script", False),
    ("||good.com^\n@@||good.com^$script", "https://good.com/x", "news.com", "media", True),
    ("||good.com^\n@@||good.com^$script", "https://good.com/x", "news.com", "script", False),
    # type options
    ("||t.net^$script", "https://px.t.net/x", "news.com", "script", True),
    ("||t.net^$script", "https://px.t.net/x", "news.com", "media", False),
    ("||t.net^$image", "https://px.t.net/x", "news.com", "media", True),
    ("||t.net^$image", "https://px.t.net/x", "news.com", "script", False),
    ("||t.net^$subdocument", "https://px.t.net/x", "news.com", "iframe", True),
    ("||t.net^$subdocument", "https://px.t.net/x", "news.com", "other", False),
    ("||t.net^$xmlhttprequest", "https://px.t.net/x", "news.com", "other", True),
    ("||t.net^$xmlhttprequest", "https://px.t.net/x", "news.com", "iframe", False),
    # third-party options
    ("||t.net^$third-party", "https://px.t.net/x", "news.com", "script", True),
    ("||t.net^$third-party", "https://px.t.net/x", "t.net", "script", False),
    ("||t.net^$~third-party", "https://px.t.net/x", "t.net", "script", True),
    ("||t.net^$~third-party", "https://px.t.net/x", "news.com", "script", False),
    # domain restrictions
    ("||t.net^$domain=news.com|blog.org", "https://px.t.net/x", "news.com", "script", True),
    ("||t.net^$domain=news.com|blog.org", "https://px.t.net/x", "shop.io", "script", False),
    ("||t.net^$domain=~news.com", "https://px.t.net/x", "news.com", "script", False),
    ("||t.net^$domain=~news.com", "https://px.t.net/x", "shop.io", "script", True),
    # combined options
    ("||t.net^$script,third-party", "https://px.t.net/x", "news.com", "script", True),
    ("||t.net^$script,third-party", "https://px.t.net/x", "news.com", "media", False),
    # literal characters escape properly
    ("/collect?uid=", "https://px.t.net/collect?uid=123", "news.com", "script", True),
    ("/collect?uid=", "https://px.t.net/collectXuid=1", "news.com", "script", False),
]


def blocked(ruleset, document):
    """run-all's verdict: the label ``label_document`` gives."""
    return label_document(ruleset, document).label == ADTRACKER


def test_criterion_3_rule_matcher():
    assert len(MATCH_VECTORS) >= 30
    for rules_text, url, page, kind, expected in MATCH_VECTORS:
        ruleset = parse_rules(rules_text)
        got = blocked(ruleset, url_document(url, page, kind))
        assert got == expected, (rules_text, url, page, kind)

    block_pool = parse_rules(
        "\n".join(
            [
                "||t.net^", "||shop.io^$script", "/uid=*", "|https://cdn.",
                "/y.js|", "/collect^", "||ads.example.com^$third-party",
                "||t.net^$domain=news.com", "banner", "*",
            ]
        )
    ).block_rules
    exception_pool = parse_rules(
        "\n".join(
            [
                "@@||t.net^", "@@/uid=*", "@@||cdn.good.org^$script",
                "@@||shop.io^", "@@/collect^$xmlhttprequest", "@@banner",
            ]
        )
    ).exception_rules
    hosts = ["px.t.net", "cdn.good.org", "ads.shop.io", "sync.t.net", "x.example.com"]
    urls = [
        f"https://{h}/{path}"
        for h in hosts
        for path in ("a", "b?uid=9", "x/y.js", "collect?uid=1", "img/banner.png")
    ]
    pages = ["news.com", "t.net", "shop.io"]
    kinds = ["script", "media", "iframe", "other"]

    rng = random.Random(31337)
    for _ in range(10_000):
        blocks = rng.sample(block_pool, rng.randint(0, 3))
        exceptions = rng.sample(exception_pool, rng.randint(0, 2))
        ruleset = RuleSet(blocks, exceptions, Counter())
        document = url_document(rng.choice(urls), rng.choice(pages), rng.choice(kinds))
        before = blocked(ruleset, document)

        more_blocks = RuleSet(blocks + [rng.choice(block_pool)], exceptions, Counter())
        after_block = blocked(more_blocks, document)
        assert after_block or not before, "adding a block rule unblocked a URL"

        more_exceptions = RuleSet(
            blocks, exceptions + [rng.choice(exception_pool)], Counter()
        )
        after_exception = blocked(more_exceptions, document)
        assert before or not after_exception, "adding an exception blocked a URL"
    print("criterion 3: PASS: 38 curated vectors and 10000 monotonicity trials")


def _eager_source(line):
    """The regex source of a rule line, built the way parsing once built it."""
    body = line[2:] if line.startswith("@@") else line
    body = body.rsplit("$", 1)[0]
    host = body.startswith("||")
    body = body[2:] if host else body
    start = not host and body.startswith("|")
    body = body[1:] if start else body
    end = body.endswith("|")
    return _pattern_to_regex((body[:-1] if end else body).lower(), host, start, end)


def test_criterion_3_lazy_regex_source_equals_the_eager_one():
    lines = [line for rules_text, *_ in MATCH_VECTORS for line in rules_text.splitlines()]
    for line in lines:
        ruleset = parse_rules(line)
        (rule,) = ruleset.block_rules + ruleset.exception_rules
        assert "pattern" not in rule.__dict__, line
        assert rule.pattern == _eager_source(line), line
        assert rule.regex.pattern == rule.pattern
    assert len(lines) > len(MATCH_VECTORS)


# ---------------------------------------------------------------------------
# criterion 4: forest sanity
# ---------------------------------------------------------------------------


def test_criterion_4_forest_sanity():
    # linearly separable with a margin: no test point sits closer to the
    # class boundary than any candidate split threshold can land
    rng = np.random.default_rng(77)
    raw = rng.uniform(size=(400, 2))
    X = raw[np.abs(raw[:, 0] - 0.5) > 0.05][:160]
    y = (X[:, 0] > 0.5).astype(int)
    X_train, y_train = X[:120], y[:120]
    X_test, y_test = X[120:], y[120:]

    params = ForestParams(n_trees=60, seed=123)
    model_a = train(X_train, y_train, params)
    model_b = train(X_train, y_train, ForestParams(n_trees=60, seed=123))
    assert save_model(model_a) == save_model(model_b)  # (a) determinism

    labels, _ = predict(model_a, X_test)
    assert np.array_equal(labels, y_test)  # (b) linearly separable held-out

    for tree, sample in zip(model_a.trees, model_a.in_bag):  # (c) bootstrap recall
        # the walk predict votes through, each bootstrap row from the root
        leaves = _walk(tree, X_train, np.zeros(len(sample), dtype=np.int64), sample)
        for row, (c0, c1) in zip(sample, tree.counts[leaves]):
            assert int(c1 > c0) == y_train[row]
    print(
        "criterion 4: PASS: byte-identical retrain, 100% held-out on separable data, "
        "100% per-tree bootstrap accuracy"
    )


# ---------------------------------------------------------------------------
# criteria 5, 6, 8: end-to-end synthetic runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    corpus = generate(EcosystemConfig(seed=7))  # 200 sites, 90 trackers, 60 benign
    paths = corpus.write(base)
    config = PipelineConfig(
        har_dir=paths["har_dir"],
        rules_files=[paths["rules"]],
        out_dir=base / "out",
    )
    start = time.perf_counter()
    summary = run_all(config)
    runtime = time.perf_counter() - start
    return SimpleNamespace(
        base=base, corpus=corpus, paths=paths, summary=summary, runtime=runtime
    )


def test_criterion_5_end_to_end(e2e):
    unbiased = e2e.summary["reports"]["unbiased"]
    assert unbiased["accuracy"] >= 0.90
    assert unbiased["precision"]["adtracker"] >= 0.90
    assert e2e.runtime < 60.0, f"pipeline took {e2e.runtime:.1f}s (budget 60s)"
    print(
        f"criterion 5: PASS: unbiased accuracy {unbiased['accuracy']:.3f}, "
        f"adtracker precision {unbiased['precision']['adtracker']:.3f}, "
        f"{e2e.runtime:.1f}s"
    )


def test_criterion_6_hidden_tracker_discovery(e2e):
    tracker_hosts = sorted(
        host for (host, _), label in e2e.corpus.truth_labels.items() if label == "adtracker"
    )
    withheld = set(tracker_hosts[::5])  # 20%
    assert len(withheld) == len(tracker_hosts) // 5
    kept = [r for r in e2e.corpus.truth_rules if r[2:-1] not in withheld]
    degraded_rules = e2e.base / "degraded-rules.txt"
    degraded_rules.write_text("".join(r + "\n" for r in kept), encoding="utf-8")

    config = PipelineConfig(
        har_dir=e2e.paths["har_dir"],
        rules_files=[degraded_rules],
        out_dir=e2e.base / "out-degraded",
    )
    run_all(config)
    candidate_text = (e2e.base / "out-degraded" / "candidate-rules.txt").read_text()
    emitted = {
        line[2:-1] for line in candidate_text.splitlines() if line.startswith("||")
    }
    recovered = withheld & emitted
    assert len(recovered) >= 0.5 * len(withheld), (
        f"recovered {len(recovered)}/{len(withheld)}"
    )
    print(
        f"criterion 6: PASS: recovered {len(recovered)}/{len(withheld)} withheld "
        "tracker hosts among emitted candidates"
    )


def test_criterion_8_feature_separation_directions(e2e):
    graph = e2e.corpus.truth_graph
    labels = e2e.corpus.truth_labels
    docs = graph.documents()

    coverages = {"adtracker": [], "benign": []}
    degrees = {"adtracker": [], "benign": []}
    degree_of = Counter()
    for src, dst, _ in edge_triples(graph):
        degree_of[src] += 1
        degree_of[dst] += 1
    for doc in docs:
        d, _, n = coverage_counts(graph, doc.parent)
        label = labels[(doc.host, doc.kind)]
        coverages[label].append(d / n)
        degrees[label].append(degree_of[doc.parent])

    mean = lambda xs: sum(xs) / len(xs)
    assert mean(coverages["adtracker"]) > mean(coverages["benign"])

    all_degrees = sorted(degrees["adtracker"] + degrees["benign"])
    median = all_degrees[len(all_degrees) // 2]
    high = [1] * sum(1 for v in degrees["adtracker"] if v >= median) + [0] * sum(
        1 for v in degrees["benign"] if v >= median
    )
    low = [1] * sum(1 for v in degrees["adtracker"] if v < median) + [0] * sum(
        1 for v in degrees["benign"] if v < median
    )
    assert mean(high) > mean(low)
    print(
        "criterion 8: PASS: tracker mean direct coverage exceeds benign and "
        "high-degree nodes carry a higher tracker share"
    )


# ---------------------------------------------------------------------------
# criterion 7: eligibility boundary
# ---------------------------------------------------------------------------


def graph_with_in_degrees(degree_by_domain):
    g = WideGraph()
    max_deg = max(degree_by_domain.values())
    for i in range(max_deg):
        root = f"s{i}.com"
        g.roots.add(root)
        g.add_node(NodeKey(root, "firstparty"))
    for domain, deg in degree_by_domain.items():
        key = g.add_node(NodeKey(domain, "script"))
        host = f"px.{domain}"
        g.docs[host, "script"] = SubdomainDocument(
            host, "script", Counter({f"https://{host}/x": 1}),
            {f"s{i}.com" for i in range(deg)}, key,
        )
        for i in range(deg):
            fp = NodeKey(f"s{i}.com", "firstparty")
            g.add_edge(fp, key, "script", 1, [f"s{i}.com"])
    return g


def test_criterion_7_eligibility_boundary(e2e):
    g = graph_with_in_degrees({"two.net": 2, "three.net": 3, "ten.net": 10})
    kept, report = filter_eligible(g, PipelineConfig().min_in_degree)
    hosts = {doc.host for doc in kept}
    assert "px.two.net" not in hosts
    assert "px.three.net" in hosts and "px.ten.net" in hosts
    assert report["total"] == report["kept"] + report["removed"] == 3

    # holds on the end-to-end corpus as well
    assert e2e.summary["eligibility"]["total"] == (
        e2e.summary["eligibility"]["kept"] + e2e.summary["eligibility"]["removed"]
    )
    print("criterion 7: PASS: in-degree 2 excluded, 3 included, totals conserved")
