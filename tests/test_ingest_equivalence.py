"""Ingest's fast paths against the checked reads they replace.

``url_host`` serves the host of an origin that is exactly ``http(s)://``
plus its host from one run-wide cache, and sends every other URL to
``urlsplit``; ``parse_har`` reads entry fields with exact type checks.
Both are held here to the ``urlsplit``-based host read and the
``_typed``-based parser they replaced, kept below as oracles, on
adversarial URLs read in either order and on mutated synthetic captures.
"""

import copy
import json
from collections import Counter
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings, strategies as st

from widetrack import ingest
from widetrack.domains import DomainError, registrable_domain
from widetrack.ingest import (
    HarParseError,
    RequestEntry,
    SessionRecord,
    parse_har,
    url_host,
)
from widetrack.pipeline import PipelineConfig, run_all
from widetrack.synth import EcosystemConfig, generate

# ---------------------------------------------------------------- oracles

INITIATOR_TYPES = ("script", "parser", "other", "unknown")


def oracle_url_host(url):
    if not url.isprintable():
        return None, "bad_url"
    try:
        parts = urlsplit(url)
    except ValueError:
        return None, "bad_url"
    host = parts.hostname
    if parts.scheme not in ("http", "https") or not host:
        return None, "bad_url"
    try:
        registrable_domain(host)
    except DomainError:
        return None, "bad_host"
    return host, None


def _typed(obj, key, kind):
    value = obj.get(key) if isinstance(obj, dict) else None
    return value if isinstance(value, kind) else None


def _oracle_stack_top_url(stack):
    while isinstance(stack, dict):
        for frame in _typed(stack, "callFrames", list) or ():
            url = _typed(frame, "url", str)
            if url:
                return url
        stack = stack.get("parent")
    return None


def oracle_parse_har(data):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HarParseError("not valid UTF-8", exc.start) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HarParseError(exc.msg, len(text[: exc.pos].encode("utf-8"))) from exc
    try:
        raw_entries = doc["log"]["entries"]
    except (TypeError, KeyError) as exc:
        raise HarParseError("document has no log.entries") from exc
    if not isinstance(raw_entries, list):
        raise HarParseError("log.entries is not a list")

    skipped = Counter()
    parsed = []
    for raw in raw_entries:
        url = _typed(_typed(raw, "request", dict), "url", str)
        if not url:
            skipped["malformed_entry"] += 1
            continue
        scheme = url.split(":", 1)[0].lower()
        if scheme in ("data", "blob", "about", "chrome-extension"):
            skipped["no_hostname"] += 1
            continue
        host, reason = oracle_url_host(url)
        if reason:
            skipped[reason] += 1
            continue
        parsed.append((_typed(raw, "startedDateTime", str) or "", url, host, raw))
    if not parsed:
        raise HarParseError("no usable entries in capture")

    parsed.sort(key=lambda item: item[0])
    document_url = parsed[0][1]

    entries = []
    redirects = {}
    for _, url, host, raw in parsed:
        ini = raw.get("_initiator")
        if isinstance(ini, str):
            ini = {"url": ini}
        elif not isinstance(ini, dict):
            ini = {}
        ini_type = str(ini.get("type", "")).lower()
        if ini_type not in INITIATOR_TYPES:
            ini_type = "other" if ini_type else "unknown"
        initiator_url = _typed(ini, "url", str)
        if not initiator_url:
            initiator_url = _oracle_stack_top_url(ini.get("stack"))
        if not initiator_url and ini_type == "parser":
            initiator_url = document_url
        if not initiator_url:
            initiator_url = None
        response = _typed(raw, "response", dict)
        target = _typed(response, "redirectURL", str)
        if target:
            redirects.setdefault(target, url)
        content = _typed(response, "content", dict)
        entries.append(
            RequestEntry(
                url=url,
                host=host,
                initiator_url=initiator_url,
                resource_type=_typed(raw, "_resourceType", str),
                mime=_typed(content, "mimeType", str),
            )
        )
    entries = [
        e
        if e.initiator_url or e.url not in redirects or e.url == redirects[e.url]
        else e._replace(initiator_url=redirects[e.url])
        for e in entries
    ]
    return SessionRecord(site_url=document_url, entries=entries, skipped=skipped)


# ------------------------------------------------------ adversarial URLs

_SCHEMES = (
    "http://", "https://", "HTTP://", "hTtPs://", "", "//", "ftp://", "http:/", "http:",
    "http:\\\\", " http://", " https://", "\thttp://", "\x00https://", "\x1f\x01http://",
    "ht\ttp://", "data:", "blob:https://", "https:///",
)
_USERINFO = ("", "", "user@", "u:p@", "@", ":@", "a%40b@")
_LABELS = (
    "a", "b0", "site", "com", "net", "co", "uk", "xn--bcher-kva", "xn--", "EXAMPLE", "Com",
    "", "-", "a-b", "1", "127", "0", "[::1]", "[::1", "::1]", "[v1.x]", "[", "]", "%41",
    "a%2e", "%", "\t", "\r", "\n", " ", "a b", "\\", "\x00", "\x07", "\x7f", "ü", "_x",
)
_PORTS = ("", "", ":80", ":", ":x", ":99999", ":0")
_TAILS = ("", "/", "/x.js", "/a/b?c=d", "?q", "#f", "\\x", " /", "\t/", "/\n", "\r\n", "/ ")
_ALPHABET = "aZ09-._:/?#@[]%\\ \t\r\n\x00\x1fü" + "x"

_composed_urls = st.builds(
    lambda scheme, user, labels, port, tail: scheme + user + ".".join(labels) + port + tail,
    st.sampled_from(_SCHEMES),
    st.sampled_from(_USERINFO),
    st.lists(st.sampled_from(_LABELS), min_size=0, max_size=4),
    st.sampled_from(_PORTS),
    st.sampled_from(_TAILS),
)
adversarial_urls = st.one_of(
    _composed_urls,
    st.builds(
        lambda scheme, rest: scheme + rest,
        st.sampled_from(_SCHEMES),
        st.text(alphabet=_ALPHABET, max_size=24),
    ),
)


@settings(max_examples=1500, deadline=None)
@given(adversarial_urls)
def test_url_host_equals_urlsplit_oracle(url):
    assert url_host(url) == oracle_url_host(url)


@settings(max_examples=300, deadline=None)
@given(st.lists(adversarial_urls, max_size=12))
# Both share the origin " https:/", which is no "http(s)://" plus a host.
@example([" https://a.com/x", " https://b.net/y"])
def test_url_host_does_not_depend_on_reading_order(urls):
    for order in (urls, urls[::-1]):
        ingest._origin_host.cache_clear()
        assert [url_host(url) for url in order] == [oracle_url_host(url) for url in order]


def _origin(url):
    """The part of ``url`` that ``url_host`` looks up: up to the first "/",
    "?" or "#" at index 8 or later, or all of it."""
    ends = [i for i in map(url.find, "/?#", [8] * 3) if i >= 0]
    return url[: min(ends)] if ends else url


@pytest.mark.parametrize(
    "url, plain",
    [
        ("https://px.t.net/a.js", "px.t.net"),
        ("http://a-b.c0.com", "a-b.c0.com"),
        ("https://xn--bcher-kva.de?q", "xn--bcher-kva.de"),  # a query ends the origin
        ("https://a.com#f", "a.com"),  # so does a fragment
        ("https://a.com#f/?x", "a.com"),  # whichever comes first
        ("https://a.com?x#f/", "a.com"),
        ("HTTPS://a.com/", None),  # upper case
        ("https://A.com/", None),
        ("https://a.com:443/", None),  # port
        ("https://u@a.com/", None),  # userinfo
        ("https://[::1]/", None),  # IPv6
        ("https://a%2ecom/", "a%2ecom"),  # urlsplit leaves escapes alone
        ("https://a.com./", "a.com."),  # trailing dot
        ("https://a..com/", None),  # empty label: no registrable domain
        (" https://a.com/", None),  # leading space: the origin is " https:/"
        ("https://a.com\t/", None),  # whitespace urlsplit drops
        ("https://a.com\\x", "a.com\\x"),  # a backslash is part of the host
        ("https://a.com/\n", "a.com"),  # after the host it is path
        ("//a.com/", None),  # no scheme
    ],
)
def test_plain_host_regex_takes_only_plain_hosts(url, plain):
    """The origin cache serves a host only for an origin that is exactly
    "http(s)://" plus that host, and every URL reads as urlsplit reads it."""
    assert ingest._origin_host(_origin(url)) == plain
    assert url_host(url) == oracle_url_host(url)


# -------------------------------------------------- mutated synth captures

_CORPUS = generate(EcosystemConfig(n_sites=4, n_trackers=4, n_benign=3, seed=5))
_CAPTURES = [json.loads(data)["log"]["entries"] for _, data in _CORPUS.har_files]
_CORPUS_URLS = sorted({e["request"]["url"] for entries in _CAPTURES for e in entries})
_CORPUS_TIMES = sorted({e["startedDateTime"] for entries in _CAPTURES for e in entries})[:5]

# Where a mutation lands: a path of keys into one entry.
_PATHS = (
    ("request",), ("request", "url"), ("response",), ("response", "content"),
    ("response", "content", "mimeType"), ("response", "redirectURL"), ("_resourceType",),
    ("startedDateTime",), ("_initiator",), ("_initiator", "type"), ("_initiator", "url"),
    ("_initiator", "stack"), ("_initiator", "stack", "callFrames"),
    ("_initiator", "stack", "parent"),
)
_json_values = st.one_of(
    st.sampled_from([None, 0, 7, 1.5, True, False, "", "x", "Parser", "SCRIPT", [], {}, ["a"]]),
    st.sampled_from(_CORPUS_URLS),
    st.sampled_from(_CORPUS_TIMES),  # a timestamp tie; sorting must keep file order
    adversarial_urls,
    st.builds(lambda url: {"url": url}, st.sampled_from(_CORPUS_URLS)),
    st.builds(
        lambda url, typ: {"type": typ, "stack": {"callFrames": [{"url": ""}, {"url": url}]}},
        st.sampled_from(_CORPUS_URLS),
        st.sampled_from(["script", "other", 3, None]),
    ),
    st.builds(
        lambda url: {"callFrames": "x", "parent": {"callFrames": [7, {"url": url}]}},
        st.sampled_from(_CORPUS_URLS),
    ),
    st.builds(lambda t: {"mimeType": t}, st.sampled_from(["image/gif", "text/html", 5])),
)
_mutations = st.tuples(
    st.sampled_from(("set", "set", "drop", "replace_entry")),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(_PATHS),
    _json_values,
)


def _mutate(entries, mutation):
    op, where, path, value = mutation
    # A copy: strategies hand the same [] and {} to every example, and later
    # mutations write into what this one stores.
    value = copy.deepcopy(value)
    i = where % len(entries)
    if op == "replace_entry":
        entries[i] = value
        return
    target = entries[i]
    for key in path[:-1]:
        if not isinstance(target, dict):
            return
        target = target.setdefault(key, {}) if op == "set" else target.get(key)
    if not isinstance(target, dict):
        return
    if op == "set":
        target[path[-1]] = value
    else:
        target.pop(path[-1], None)


def test_mutations_leave_the_drawn_value_alone():
    drawn = {}
    entries = [{"request": {}}]
    _mutate(entries, ("replace_entry", 0, ("request",), drawn))
    _mutate(entries, ("set", 0, ("request", "url"), "https://a.com/"))
    assert entries == [{"request": {"url": "https://a.com/"}}]
    assert drawn == {}


@st.composite
def mutated_captures(draw):
    entries = json.loads(json.dumps(draw(st.sampled_from(_CAPTURES))))
    for mutation in draw(st.lists(_mutations, max_size=12)):
        _mutate(entries, mutation)
    return json.dumps({"log": {"version": "1.2", "entries": entries}}).encode()


def _parsed(parser, data):
    try:
        record = parser(data)
    except HarParseError as exc:
        return str(exc)
    return record.site_url, record.entries, record.skipped


@settings(max_examples=400, deadline=None)
@given(mutated_captures())
def test_parse_har_equals_typed_oracle(data):
    assert _parsed(parse_har, data) == _parsed(oracle_parse_har, data)


def test_unmutated_synth_captures_parse_as_the_oracle_does():
    for entries in _CAPTURES:
        data = json.dumps({"log": {"entries": entries}}).encode()
        assert _parsed(parse_har, data) == _parsed(oracle_parse_har, data)


# ---------------------------------------------------------- whole corpus


def test_run_all_writes_the_same_bytes_without_the_plain_host_regex(tmp_path, monkeypatch):
    """Run-all with an origin cache that always misses, so every host is
    read by urlsplit, writes the bytes it writes with the cache."""
    paths = generate(EcosystemConfig(n_sites=12, n_trackers=5, n_benign=4, seed=3)).write(
        tmp_path / "corpus"
    )

    def run(out):
        run_all(
            PipelineConfig(
                har_dir=paths["har_dir"], rules_files=[paths["rules"]],
                out_dir=out, n_trees=10, min_in_degree=1,
            )
        )
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    fast = run(tmp_path / "fast")
    monkeypatch.setattr(ingest, "_origin_host", lambda origin: None)
    assert url_host("https://px.t.net/a.js") == ("px.t.net", None)
    assert run(tmp_path / "split") == fast
