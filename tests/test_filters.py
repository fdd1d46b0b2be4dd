import re
from collections import Counter
from dataclasses import replace
from urllib.parse import urlsplit

import pytest
from hypothesis import assume, given, settings, strategies as st

from widetrack.domains import registrable_domain
from widetrack.filters import (
    ADTRACKER,
    BENIGN,
    Rule,
    RuleSet,
    _Contexts,
    _TOKEN_RE,
    _token_runs,
    document_block_matched,
    label_document,
    parse_rules,
)
from widetrack.graph import NodeKey, SubdomainDocument

from url_documents import url_document


def blocked(rs, url, page="news.com", kind="script"):
    """The label of the document ``url`` makes when loaded as ``kind`` on
    ``page``; a URL ingest would skip makes none and is not blocked."""
    document = url_document(url, page, kind)
    return document is not None and label_document(rs, document).label == ADTRACKER


def doc(host, kind, urls, sites=("news.com",)):
    return SubdomainDocument(
        host=host,
        kind=kind,
        urls=Counter(urls),
        sites=set(sites),
        parent=NodeKey(registrable_domain(host), kind),
    )


class TestParseRules:
    def test_comment_skipped(self):
        rs = parse_rules("! comment")
        assert rs.rule_count == 0
        assert rs.skip_report == Counter({"comment": 1})

    def test_header_line_is_a_comment(self):
        rs = parse_rules("[Adblock Plus 2.0]")
        assert rs.skip_report == Counter({"comment": 1})

    def test_domain_anchor_rule(self):
        rs = parse_rules("||ads.example.com^")
        assert len(rs.block_rules) == 1
        assert not rs.block_rules[0].is_exception

    def test_element_hiding_skipped(self):
        rs = parse_rules("example.com##.banner\nexample.com#@#.ad\nx.com#?#.y")
        assert rs.rule_count == 0
        assert rs.skip_report["element_hiding"] == 3

    @pytest.mark.parametrize(
        "line, reason",
        [
            # every cosmetic, scriptlet and HTML-filter separator
            ("example.com##.banner", "element_hiding"),
            ("example.com#@#.ad", "element_hiding"),
            ("x.com#?#.y:has(.ad)", "element_hiding"),
            ("example.com#@?#.ad", "element_hiding"),
            ("example.com#$#body { overflow: auto }", "element_hiding"),
            ("example.com#@$#body { overflow: auto }", "element_hiding"),
            ("example.com#$?#.ad { remove: true; }", "element_hiding"),
            ("example.com#@$?#.ad { remove: true; }", "element_hiding"),
            ("example.org#%#window.__gaq = undefined;", "element_hiding"),
            ("example.com#@%#x", "element_hiding"),
            ("example.com$$script[data-src=\"ads.js\"]", "element_hiding"),
            ("example.com$@$script", "element_hiding"),
            ("##.ad-banner", "element_hiding"),
            ("! comment", "comment"),
            ("[Adblock Plus 2.0]", "comment"),
            ("||ads.example.com^$popup", "unsupported_option"),
            ("/banner[0-9]+/", "regex_rule"),
            ("|", "empty_pattern"),
            ("||ads\t.example^", "unprintable_pattern"),
            # a "#" that is no separator is part of a URL pattern
            ("||ads.example.com/#top", None),
            ("||ads.example.com/#!/x#y", None),
            ("||ads.example.com^$script", None),
        ],
    )
    def test_skip_reason_of_each_line(self, line, reason):
        rs = parse_rules(line)
        if reason is None:
            assert [r.raw for r in rs.block_rules] == [line]
            assert not rs.skip_report
        else:
            assert rs.rule_count == 0
            assert rs.skip_report == Counter({reason: 1})

    def test_unsupported_option_skips_whole_rule(self):
        rs = parse_rules("||ads.example.com^$popup\n||b.com^$script,redirect=x")
        assert rs.rule_count == 0
        assert rs.skip_report["unsupported_option"] == 2

    def test_exception_rules_separated(self):
        rs = parse_rules("@@||good.cdn.com^\n||ads.example.com^")
        assert len(rs.block_rules) == 1
        assert len(rs.exception_rules) == 1
        assert rs.exception_rules[0].is_exception

    def test_every_nonempty_line_accounted_for(self):
        text = "\n".join(
            [
                "! c",
                "",
                "||a.com^",
                "b.com##.x",
                "@@||c.com^",
                "/banner/*",
                "/banner[0-9]/",
                "   ",
                "||d.com^$media-placeholder",
            ]
        )
        rs = parse_rules(text)
        non_empty = sum(1 for line in text.splitlines() if line.strip())
        assert rs.rule_count + rs.skip_report.total() == non_empty

    def test_regex_rule_skipped(self):
        rs = parse_rules("/banner[0-9]+/\n@@/ads/$script\n/ad.js/*\n/\n/a/b")
        assert rs.skip_report == Counter({"regex_rule": 2})
        assert [r.raw for r in rs.block_rules] == ["/ad.js/*", "/", "/a/b"]

    def test_empty_pattern_without_options_skipped(self):
        rs = parse_rules("|\n@@")
        assert rs.rule_count == 0
        assert rs.skip_report["empty_pattern"] == 2

    @pytest.mark.parametrize("char", ["\u2028", "\x0c", "\x85", "\x1e"])
    def test_only_a_newline_ends_a_rule(self, char):
        """A line break that is not "\\n" is part of its rule: were it a line
        end, "$script" would stand alone as an empty pattern that blocks
        every script. The one rule it is part of is skipped: its pattern is
        not printable, and no URL ingest accepts is."""
        rs = parse_rules(f"||ads.example^{char}$script")
        assert rs.rule_count == 0
        assert rs.skip_report == Counter({"unprintable_pattern": 1})
        assert not blocked(rs, "https://cdn.other.net/lib.js")

    @pytest.mark.parametrize("char", ["\u2028", "\t", "\xa0"])
    def test_unprintable_pattern_skipped_and_counted(self, char):
        """No URL ingest accepts holds such a character, so the rule could
        never match; its options keep today's handling: a dead domain= entry
        just never matches."""
        rs = parse_rules(
            f"||ads{char}.example^\n@@||ok.example/{char}x$script\n"
            f"||t.net^$domain=a{char}.com|news.com\n||ff.example^\x0c"
        )
        assert rs.skip_report == Counter({"unprintable_pattern": 2})
        assert [r.raw for r in rs.block_rules] == [
            f"||t.net^$domain=a{char}.com|news.com", "||ff.example^",
        ]
        assert rs.block_rules[0].domains_pos == (f"a{char}.com", "news.com")
        assert blocked(rs, "https://px.t.net/p.js", page="news.com")
        assert not blocked(rs, "https://px.t.net/p.js", page="other.com")
        assert blocked(rs, "https://ff.example/x.js")

    def test_crlf_lines_read_as_lf_lines(self):
        rs = parse_rules("! list\r\n||a.com^\r\n@@||b.com^\r\n")
        assert [r.raw for r in rs.block_rules + rs.exception_rules] == ["||a.com^", "@@||b.com^"]
        assert rs.skip_report == Counter({"comment": 1})


class TestMatching:
    def test_host_anchor_hits_host_and_subdomains(self):
        rs = parse_rules("||ads.example.com^")
        assert blocked(rs, "http://ads.example.com/banner.js")
        assert blocked(rs, "http://x.ads.example.com/banner.js")

    def test_host_anchor_respects_label_boundary(self):
        rs = parse_rules("||ads.example.com^")
        assert not blocked(rs, "http://example.com/x")
        assert not blocked(rs, "http://badads.example.com/x")

    def test_exception_wins(self):
        rs = parse_rules("/adserv*\n@@||good.cdn.com^")
        assert not blocked(rs, "http://good.cdn.com/adserver.js")
        assert blocked(rs, "http://other.cdn.com/adserver.js")

    def test_separator_matches_non_url_chars_and_end(self):
        rs = parse_rules("||t.net^")
        assert blocked(rs, "https://t.net/x")  # '/' is a separator
        assert blocked(rs, "https://t.net:8080/x")  # ':' is a separator
        assert blocked(rs, "https://t.net")  # end of URL
        assert not blocked(rs, "https://t.network/x")  # letter is not

    def test_start_and_end_anchors(self):
        rs = parse_rules("|https://exact.com/file.js|")
        assert blocked(rs, "https://exact.com/file.js")
        assert not blocked(rs, "https://exact.com/file.js?x=1")
        assert not blocked(rs, "https://pre.fix/https://exact.com/file.js")

    def test_wildcard(self):
        rs = parse_rules("/ads/*/banner")
        assert blocked(rs, "https://x.com/ads/v2/banner")
        assert not blocked(rs, "https://x.com/ads/banner")

    def test_match_is_case_insensitive(self):
        rs = parse_rules("/AdServer/*")
        assert blocked(rs, "https://x.com/ADSERVER/pixel")

    def test_type_options_gate_by_interaction_kind(self):
        rs = parse_rules("||t.net^$script")
        url = "https://px.t.net/x"
        assert blocked(rs, url, "news.com", "script")
        assert not blocked(rs, url, "news.com", "media")

    def test_third_party_option(self):
        rs = parse_rules("||t.net^$third-party")
        url = "https://px.t.net/x"
        assert blocked(rs, url, "news.com", "script")
        assert not blocked(rs, url, "t.net", "script")

    def test_negated_third_party_option(self):
        rs = parse_rules("||t.net^$~third-party")
        url = "https://px.t.net/x"
        assert not blocked(rs, url, "news.com", "script")
        assert blocked(rs, url, "t.net", "script")

    def test_domain_option_restricts_page(self):
        rs = parse_rules("||t.net^$domain=news.com|blog.org")
        url = "https://px.t.net/x"
        assert blocked(rs, url, "news.com", "script")
        assert blocked(rs, url, "blog.org", "script")
        assert not blocked(rs, url, "shop.io", "script")

    def test_negated_domain_option(self):
        rs = parse_rules("||t.net^$domain=~news.com")
        url = "https://px.t.net/x"
        assert not blocked(rs, url, "news.com", "script")
        assert blocked(rs, url, "shop.io", "script")

    def test_rule_order_irrelevant(self):
        a = parse_rules("||a.net^\n||b.net^\n@@||a.net^$script")
        b = parse_rules("@@||a.net^$script\n||b.net^\n||a.net^")
        for url in ("https://x.a.net/1", "https://x.b.net/2", "https://c.org/3"):
            assert blocked(a, url) == blocked(b, url)

    def test_document_block_matched_ignores_exceptions(self):
        rs = parse_rules("||t.net^\n@@||t.net^")
        url = "https://px.t.net/x"
        assert not blocked(rs, url)
        assert document_block_matched(rs, doc("px.t.net", "script", [url]))


class TestLabelDocument:
    def test_one_blocked_url_is_enough(self):
        rs = parse_rules("||px.t.net^")
        urls = [f"https://clean.cdn.org/{i}" for i in range(9)]
        d = doc("px.t.net", "script", urls + ["https://px.t.net/collect"])
        assert label_document(rs, d).label == ADTRACKER

    def test_no_blocked_urls_is_benign(self):
        rs = parse_rules("||px.t.net^")
        d = doc("clean.cdn.org", "media", ["https://clean.cdn.org/logo.png"])
        assert label_document(rs, d).label == BENIGN

    def test_domain_scoped_rule_needs_matching_site_context(self):
        rs = parse_rules("||px.t.net^$domain=news.com")
        blocked = doc("px.t.net", "script", ["https://px.t.net/c"], sites=("news.com", "x.org"))
        unblocked = doc("px.t.net", "script", ["https://px.t.net/c"], sites=("x.org",))
        assert label_document(rs, blocked).label == ADTRACKER
        assert label_document(rs, unblocked).label == BENIGN

    @pytest.mark.parametrize("exception_site, label", [("b0.org", ADTRACKER), ("ab.com", BENIGN)])
    def test_block_and_exception_are_weighed_per_site_context(self, exception_site, label):
        # Blocked on ab.com; the exception lifts that only where it applies.
        rs = parse_rules(f"||px.t.net^$domain=ab.com\n@@||px.t.net^$domain={exception_site}")
        d = doc("px.t.net", "script", ["https://px.t.net/c"], sites=("ab.com", "b0.org"))
        assert label_document(rs, d).label == label
        assert document_block_matched(rs, d)

    def test_document_block_matched_ignores_exceptions(self):
        rs = parse_rules("||px.t.net^\n@@||px.t.net^")
        d = doc("px.t.net", "script", ["https://px.t.net/c"])
        assert label_document(rs, d).label == BENIGN
        assert document_block_matched(rs, d)

    def test_label_agrees_with_matches(self):
        rs = parse_rules("||t.net^$script\n@@||sync.t.net^")
        d = doc("sync.t.net", "script", ["https://sync.t.net/s"], sites=("news.com",))
        expected = any(
            blocked(rs, url, site, d.kind)
            for url in d.urls
            for site in d.sites
        )
        assert (label_document(rs, d).label == ADTRACKER) == expected


class TestMonotonicity:
    def test_adding_rules_moves_in_one_direction(self):
        import random

        rng = random.Random(99)
        hosts = ["px.t.net", "cdn.good.org", "ads.shop.io", "sync.t.net"]
        urls = [f"https://{h}/{p}" for h in hosts for p in ("a", "b?uid=1", "x/y.js")]
        pool_block = parse_rules(
            "\n".join(["||t.net^", "/uid=*", "||shop.io^$script", "|https://cdn.", "/y.js|"])
        ).block_rules
        pool_exc = parse_rules(
            "\n".join(["@@||t.net^", "@@/uid=*", "@@||cdn.good.org^$script"])
        ).exception_rules
        for _ in range(500):
            blocks = rng.sample(pool_block, rng.randint(0, 3))
            excs = rng.sample(pool_exc, rng.randint(0, 2))
            rs = RuleSet(blocks, excs, Counter())
            url = rng.choice(urls)
            page, kind = rng.choice(["news.com", "t.net"]), rng.choice(["script", "media"])
            before = blocked(rs, url, page, kind)
            extra_block = RuleSet(blocks + [rng.choice(pool_block)], excs, Counter())
            assert blocked(extra_block, url, page, kind) or not before
            extra_exc = RuleSet(blocks, excs + [rng.choice(pool_exc)], Counter())
            assert before or not blocked(extra_exc, url, page, kind)


# --- the linear matcher: every rule's regex on every URL in every context ---
# It checks each rule's options itself, one (URL, site) context at a time,
# and tests every rule, so it pins both the token index and the package's
# per-document option masks.

_LINEAR_TYPE_OPTION = {
    "script": "script", "media": "image", "iframe": "subdocument", "other": "xmlhttprequest",
}


def _covers(page, rule_domain):
    return page == rule_domain or page.endswith("." + rule_domain)


def _options_pass(rule, url_domain, page, kind):
    return (
        (not rule.type_options or _LINEAR_TYPE_OPTION.get(kind) in rule.type_options)
        and (rule.third_party is None or (url_domain != page) == rule.third_party)
        and not any(_covers(page, d) for d in rule.domains_neg)
        and (not rule.domains_pos or any(_covers(page, d) for d in rule.domains_pos))
    )


def _linear_targets(urls):
    for url in urls:
        url_lower = url.lower()
        host = urlsplit(url_lower).hostname
        if host:
            yield url_lower, registrable_domain(host)


def _linear_hit(rule, url_lower, url_domain, page, kind):
    return _options_pass(rule, url_domain, page, kind) and re.search(rule.pattern, url_lower)


def linear_matches(rs, url, page, kind):
    return any(
        any(_linear_hit(r, u, d, page, kind) for r in rs.block_rules)
        and not any(_linear_hit(r, u, d, page, kind) for r in rs.exception_rules)
        for u, d in _linear_targets([url])
    )


def linear_label(rs, document):
    hit = any(
        linear_matches(rs, url, site, document.kind)
        for url in document.urls
        for site in document.sites
    )
    return ADTRACKER if hit else BENIGN


def linear_block_matched(rs, document):
    return any(
        _linear_hit(r, u, d, site, document.kind)
        for u, d in _linear_targets(document.urls)
        for site in document.sites
        for r in rs.block_rules
    )


_RULE_PIECES = ["a", "b", "0", "%", "-", "_", ".", "/", "?", "=", ":", "*", "^", "|", "||", "@@"]
_OPTIONS = [
    "third-party", "~third-party", "script", "domain=ab.com", "domain=~b0.org|ab.com",
    "domain=~ab.com", "domain=b0.org|a.ab.b0",
]
_URL_PIECES = [
    "a", "b", "0", "A", "B", "%", "%2F", "%aB", "-", "_", ".", "/", "?", "=", ":", "é", "Ü", "ß",
]
_SITES = ["ab.com", "b0.org", "a.ab.b0"]

rule_lines = st.builds(
    lambda prefix, body, opts: prefix + body + ("$" + ",".join(opts) if opts else ""),
    st.sampled_from(["", "|", "||", "@@", "@@|", "@@||"]),
    st.lists(st.sampled_from(_RULE_PIECES), max_size=8).map("".join),
    st.lists(st.sampled_from(_OPTIONS), max_size=2, unique=True),
)
urls = st.builds(
    lambda scheme, host, port, path: f"{scheme}{host}{port}/{path}",
    st.sampled_from(["http://", "https://", "HTTPS://"]),
    st.sampled_from(["ab.com", "a.AB.com", "a-b.ab.com", "b0.org", "a.ab.b0"]),
    st.sampled_from(["", ":80", ":8080"]),
    st.lists(st.sampled_from(_URL_PIECES), max_size=12).map("".join),
) | st.sampled_from(["about:blank", "data:a,b"])


def _embeddings(line):
    """URLs whose path holds the rule's body, each "*" filled with nothing,
    a token character or a separator, and token characters put around it:
    where a run the rule is keyed by can grow into a longer URL run, a
    wrongly complete token shows as a missed hit."""
    body = line.split("$")[0].lstrip("@|")
    for star in ("", "a", "/"):
        filled = body.replace("*", star).replace("^", "/")
        yield f"https://ab.com/{filled}"
        yield f"https://ab.com/b{filled}0"
        yield f"https://ab.com/{filled.upper()}%41"


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(rule_lines, max_size=8),
    url_list=st.lists(urls, min_size=1, max_size=4),
    sites=st.lists(st.sampled_from(_SITES), min_size=1, max_size=3, unique=True),
    kind=st.sampled_from(["script", "media", "iframe", "other"]),
)
def test_indexed_verdicts_equal_the_linear_matcher(lines, url_list, sites, kind):
    rs = parse_rules("\n".join(lines))
    url_list = url_list + [u for line in lines for u in _embeddings(line)]
    for url in url_list:
        for site in sites:
            assert blocked(rs, url, site, kind) == linear_matches(rs, url, site, kind), (url, site)
    # A document holds the URLs of its own host, as the graph builds it.
    by_host = {}
    for url in url_list:
        host = urlsplit(url).hostname
        if host:
            by_host.setdefault(host, []).append(url)
    for host, host_urls in by_host.items():
        d = doc(host, kind, host_urls, sites=sites)
        assert label_document(rs, d).label == linear_label(rs, d), host
        assert document_block_matched(rs, d) == linear_block_matched(rs, d), host
    # Each pattern alone as an option-free block rule, so neither another
    # rule's hit nor a failed option can mask a rule the index left out.
    for rule in rs.block_rules + rs.exception_rules:
        bare = replace(
            rule, type_options=frozenset(), third_party=None, domains_pos=(), domains_neg=()
        )
        alone = RuleSet([bare], [], Counter())
        for url in url_list:
            expected = linear_matches(alone, url, "news.com", "script")
            assert blocked(alone, url) == expected, (rule.raw, url)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(rule_lines, max_size=8),
    url_list=st.lists(urls, min_size=1, max_size=4),
    sites=st.lists(st.sampled_from(_SITES), min_size=1, max_size=3, unique=True),
    kind=st.sampled_from(["script", "media", "iframe", "other"]),
)
def test_label_pass_records_the_block_match(lines, url_list, sites, kind):
    """The label pass's block-hit fact is the linear matcher's verdict on
    whether a block rule hits, exceptions aside, so candidate emission can
    take it instead of matching again."""
    rs = parse_rules("\n".join(lines))
    url_list = url_list + [u for line in lines for u in _embeddings(line)]
    by_host = {}
    for url in url_list:
        host = urlsplit(url).hostname
        if host:
            by_host.setdefault(host, []).append(url)
    for host, host_urls in by_host.items():
        d = doc(host, kind, host_urls, sites=sites)
        label = label_document(rs, d)
        assert label.block_matched == linear_block_matched(rs, d), host
        assert label.block_matched or label.label == BENIGN


# --- option masks: the per-site loop the package ran before its site table ---


def reference_mask(rule, url_domain, option, sites):
    """Bit i is set when the rule's options pass for a URL on ``url_domain``
    loaded as type ``option`` on the page of ``sites[i]``: each site's
    options checked one by one."""
    if rule.type_options and option not in rule.type_options:
        return 0
    if rule.third_party is None and not (rule.domains_pos or rule.domains_neg):
        return (1 << len(sites)) - 1
    return sum(
        1 << i
        for i, page in enumerate(sites)
        if (rule.third_party is None or (url_domain != page) == rule.third_party)
        and not any(_covers(page, d) for d in rule.domains_neg)
        and (not rule.domains_pos or any(_covers(page, d) for d in rule.domains_pos))
    )


# Nested subdomains of one another, the URLs' registrable domain (ab.com
# for every host below), a site under another site's name, and a trailing dot.
_MASK_SITES = ["ab.com", "a.ab.com", "b.a.ab.com", "b0.org", "ab.com.b0.org", "ab.com."]
_MASK_DOMAINS = ["ab.com", "a.ab.com", "com", "b0.org", "org", "b.ab.com", "", "ab", "com."]
_mask_options = st.one_of(
    st.sampled_from(["third-party", "~third-party", "script", "image", "subdocument"]),
    st.lists(
        st.tuples(st.booleans(), st.sampled_from(_MASK_DOMAINS)), min_size=1, max_size=3
    ).map(lambda ds: "domain=" + "|".join(("~" if neg else "") + d for neg, d in ds)),
)


@settings(max_examples=300, deadline=None)
@given(
    options=st.lists(st.lists(_mask_options, max_size=3), min_size=1, max_size=6),
    sites=st.lists(st.sampled_from(_MASK_SITES), min_size=1, max_size=6, unique=True),
    host=st.sampled_from(["ab.com", "px.ab.com", "x.b.a.ab.com"]),
    kind=st.sampled_from(["script", "media", "iframe", "other"]),
)
def test_site_table_masks_equal_the_per_site_loop(options, sites, host, kind):
    lines = ["||ab.com^" + ("$" + ",".join(o) if o else "") for o in options]
    lines += ["$domain=~", "$domain=~ab.com|~b0.org", "@@||ab.com^$~third-party,domain=com"]
    rs = parse_rules("\n".join(lines))
    contexts = _Contexts(doc(host, kind, [f"https://{host}/"], sites=sites))
    option = _LINEAR_TYPE_OPTION[kind]
    for rule in rs.block_rules + rs.exception_rules:
        expected = reference_mask(rule, registrable_domain(host), option, sorted(sites))
        assert contexts.mask(rule) == expected, (rule.raw, sites)


# --- literal bodies: the string scan each stands in for its regex with ---

# Hosts with userinfo, ports, ".." and a "." before "/", "#" or "?" in the
# authority, schemes the "||" anchor refuses ("http:/x", "ftp://") and an
# empty host; "%", "_" and non-ASCII after a literal.
_SCAN_URLS = [
    "https://t.net/", "http://t.net", "https://px.t.net:8080/a?b", "https://t.net@x.com/",
    "https://x.com@t.net/", "https://a..t.net/", "https://t.net./x", "https://x.t.net#.t.net/",
    "https://x?.t.net", "https://a#b.t.net/", "http:/t.net/", "ftp://t.net/", "https:///t.net/",
    "https://", "t.net", "https://t.net%2f", "https://t.net_x/", "https://t.neté/", "https://t.nets/",
    "https://t.net-x/", "https://x/t.net/", "https://x/a.t.net", "https://t.net/t.net",
    "https://t.net/?x=t.net^", "https://xt.net/", "",
]
_SCAN_BODIES = ["t.net", "t.net/", "/t.net", "net/?", "t.", ".", "-x", "t.net:8080", ""]


@pytest.mark.parametrize("prefix", ["", "|", "||"])
@pytest.mark.parametrize("sep", ["", "^"])
@pytest.mark.parametrize("end", ["", "|"])
def test_literal_scan_of_each_anchor_agrees_with_the_regex(prefix, sep, end):
    for body in _SCAN_BODIES:
        rs = parse_rules(f"{prefix}{body}{sep}{end}$script")
        (rule,) = rs.block_rules
        # An empty body leaves "|" and "||" to read as a start or host anchor.
        assert rule.anchors == (prefix == "||", prefix == "|", end == "|") or not body
        for url in _SCAN_URLS:
            expected = re.search(rule.pattern, url) is not None
            assert bool(rule.check(url)) == expected, (rule.raw, url)
        assert "regex" not in rule.__dict__, rule.raw


_LITERAL_PIECES = ["a", "t", "0", ".", "/", "?", "-", "%", "_", ":", "=", "@", "é"]
_SCAN_PIECES = _SCAN_URLS + [
    "a", "t", ".", "..", "./", "/", "?", "#", "-", "_", "%", ":80", "@", "é", "ß", "http://",
    "https://", "ftp://", "http:/", "^", " ", "A",
]
_printable = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=3).filter(
    str.isprintable
)
_scan_texts = st.lists(st.sampled_from(_SCAN_PIECES) | _printable, max_size=6).map("".join)
# Text before a literal: a scheme or none, then what ends right before it.
_befores = st.tuples(
    st.sampled_from(["", "http://", "https://", "ftp://", "http:/", "https:///"]),
    _scan_texts,
    st.sampled_from(["", ".", "..", "@", "#.", "?.", "/", "/.", ":80.", "t.net@"]),
).map("".join)
# Text after a literal, from a character "^" does or does not match.
_afters = st.tuples(
    st.sampled_from(["", "_", "%", "-", ".", "a", "0", "/", "?", "#", "é", ":", "@", "^"]),
    _scan_texts,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(
    prefix=st.sampled_from(["", "|", "||"]),
    body=st.lists(st.sampled_from(_LITERAL_PIECES), max_size=5).map("".join),
    sep=st.sampled_from(["", "^"]),
    end=st.sampled_from(["", "|"]),
    befores=st.lists(_befores, min_size=1, max_size=4),
    afters=st.lists(_afters, min_size=1, max_size=4),
)
def test_literal_scan_agrees_with_the_regex(prefix, body, sep, end, befores, afters):
    """A literal rule's check is ``re.search`` of its pattern on printable
    strings: alone, and around the literal, which the scan must place."""
    rs = parse_rules(f"{prefix}{body}{sep}{end}$script")
    assume(rs.block_rules)  # "/a/" reads as a regex rule
    (rule,) = rs.block_rules
    lit = rule.body.removesuffix("^")
    assert "*" not in lit and "^" not in lit
    texts = befores + afters + [b + lit + a for b in befores for a in afters]
    for text in texts:
        assert bool(rule.check(text)) == (re.search(rule.pattern, text) is not None), text
    assert "regex" not in rule.__dict__


def _bucket(index, i):
    """Where rule ``i`` of an index's list is keyed."""
    for kind, table in (("token", index.by_token), ("prefix", index.by_prefix)):
        keys = [key for key, ids in table.items() if i in ids]
        if keys:
            return kind, *keys
    return ("fallback",) if i in index.fallback else ()


@pytest.mark.parametrize(
    "line, bucket",
    [
        ("/uid=*", ("token", "uid")),
        ("/adzone12*.js", ("prefix", "adzone12")),
        ("*ads*", ("fallback",)),
        # each left edge that makes a run begin a URL token
        ("^track*", ("prefix", "track")),
        ("||ads*", ("prefix", "ads")),
        ("|http*", ("prefix", "http")),
        ("*.gif", ("prefix", "gif")),
        # an unanchored start or a "*" lets the URL token begin earlier
        ("ads*", ("fallback",)),
        ("*ads", ("fallback",)),
        ("$third-party", ("fallback",)),
    ],
)
def test_rule_bucket(line, bucket):
    rs = parse_rules(line)
    index = rs.block_index if rs.block_rules else rs.exception_index
    assert _bucket(index, 0) == bucket


def reference_token_runs(body, start_bounded, end_bounded):
    """_token_runs as one loop over every run's span: the package now takes
    a body without "*" from one findall."""
    complete, left_bounded, last = {}, {}, len(body)
    for m in _TOKEN_RE.finditer(body):
        start, end = m.span()
        if body[start - 1] != "*" if start else start_bounded:
            right = body[end] != "*" if end < last else end_bounded
            (complete if right else left_bounded)[m.group()] = None
    return tuple(complete), tuple(left_bounded)


@settings(max_examples=500, deadline=None)
@given(line=rule_lines)
def test_token_runs_equal_the_per_run_loop(line):
    for rule in (rs := parse_rules(line)).block_rules + rs.exception_rules:
        for start_bounded in (False, True):
            for end_bounded in (False, True):
                got = _token_runs(rule.body, start_bounded, end_bounded)
                assert got == reference_token_runs(rule.body, start_bounded, end_bounded)


def test_prefix_key_is_the_rarest_left_bounded_run():
    index = parse_rules("/ad*.js\n/b*.js\n/c*.js\n/*x.js").block_index
    assert index.by_prefix == {"ad": [0], "b": [1], "c": [2], "js": [3]}
    # Each key is filed under its first character, the shortest key's length.
    assert index.head_length == 1
    assert index.by_head == {"a": ["ad"], "b": ["b"], "c": ["c"], "j": ["js"]}
    # A token selects the rules keyed by its prefixes, each once, in order.
    assert [r.raw for r in index.candidates(["xb", "adx", "ad", "js1"])] == ["/ad*.js", "/*x.js"]
    assert [r.raw for r in index.candidates(["cab"])] == ["/c*.js"]


class _CountingCheck:
    """Stands in for a rule's check, a string scan or a regex search, and
    counts its calls; the real check is built on each call."""

    def __init__(self, rule, counter):
        self.rule = rule
        self.counter = counter

    def __call__(self, text):
        self.counter[self] += 1
        return Rule.check.func(self.rule)(text)


def _searches_per_url(text, url_list):
    """Per URL: (rule checks run by label_document and
    document_block_matched on the URL's one-URL document, their verdicts).
    No call may check a rule twice."""
    rs = parse_rules(text)
    counter = Counter()
    for rule in rs.block_rules + rs.exception_rules:
        rule.__dict__["check"] = _CountingCheck(rule, counter)
    out = []
    for url in url_list:
        d = url_document(url, "news.com", "script")
        calls = (
            lambda: label_document(rs, d).label,
            lambda: document_block_matched(rs, d),
        )
        searches, verdicts = 0, []
        for call in calls:
            counter.clear()
            verdicts.append(call())
            assert max(counter.values(), default=0) <= 1, url
            searches += counter.total()
        out.append((searches, tuple(verdicts)))
    return out


_SMALL_LIST = "\n".join(
    [
        "||px.t.net^",
        "||ads.shop.io^$script",
        "/uid=*",
        "|https://cdn.",
        "/pixel.gif|",
        "@@||sync.t.net^",
        "@@/collect?opt=out",
        # prefix-keyed: no run is complete
        "/pixel*$script",
        "@@/pixels*",
    ]
)
_SMALL_URLS = [
    "https://px.t.net/collect?uid=1",
    "https://sync.t.net/s?uid=2",
    "https://ads.shop.io/lib.js",
    "https://cdn.good.org/a/pixel.gif",
    "https://px.t.net/collect?opt=out",
    "https://news.com/index.html",
    # two tokens start with "pixel"
    "https://cdn.good.org/pixels/pixel2.gif",
]


def test_inert_decoys_add_no_regex_search():
    decoys = []
    for n in range(10_000):
        decoys.append(f"||decoy{n}.example^")
        tail = "$third-party" if n % 2 else ""
        decoys.append(f"/promo{n}/frame^{tail}" if n % 3 else f"@@/promo{n}/frame^{tail}")
        # keyed only by a token prefix no URL token starts with
        decoys.append(f"/adzone{n}*.js" if n % 3 else f"@@/adzone{n}*.js")
        decoys.append(f"*/promo{n}x*{tail}" if n % 4 else f"@@*/promo{n}x*{tail}")
    without = _searches_per_url(_SMALL_LIST, _SMALL_URLS)
    with_decoys = _searches_per_url(_SMALL_LIST + "\n" + "\n".join(decoys), _SMALL_URLS)
    assert with_decoys == without
    assert sum(n for n, _ in without) > 0


def test_rules_whose_options_pass_nowhere_are_never_searched():
    # Each decoy's pattern hits test URLs, but no context is on its domain.
    # An exception decoy holding "collect" would re-key "@@/collect?opt=out".
    decoys = "\n".join(
        f"@@||px.t.net^$domain=unvisited{n}.com" if n % 2 else f"/collect?$domain=unvisited{n}.com"
        for n in range(10_000)
    )
    rs = parse_rules(decoys)
    for rule in (rs.block_rules[0], rs.exception_rules[0]):
        assert sum(re.search(rule.pattern, u.lower()) is not None for u in _SMALL_URLS) == 2
    without = _searches_per_url(_SMALL_LIST, _SMALL_URLS)
    assert _searches_per_url(_SMALL_LIST + "\n" + decoys, _SMALL_URLS) == without
    # Nor is a check or a regex built for one, though the small list blocks both URLs.
    rs = parse_rules(_SMALL_LIST + "\n" + decoys)
    for url in _SMALL_URLS:
        label_document(rs, doc(urlsplit(url).hostname, "script", [url]))
    unvisited = [r for r in rs.block_rules + rs.exception_rules if "unvisited" in r.raw]
    assert not any("check" in r.__dict__ or "regex" in r.__dict__ for r in unvisited)


def test_host_anchored_rules_are_checked_without_a_regex():
    rs = parse_rules(
        "||px.t.net^\n||ads.shop.io^$script\n@@||sync.t.net^\n"
        "||t.net^$third-party\n||good.org^$domain=news.com\n@@||px.t.net^$image"
    )
    labels = [
        label_document(rs, doc(urlsplit(url).hostname, "script", [url])).label
        for url in _SMALL_URLS
    ]
    assert labels.count(ADTRACKER) == 5 and labels.count(BENIGN) == 2
    rules = rs.block_rules + rs.exception_rules
    # The "$image" exception's options pass in no context of a script.
    assert [r.raw for r in rules if "check" not in r.__dict__] == ["@@||px.t.net^$image"]
    assert not any("regex" in r.__dict__ for r in rules)
