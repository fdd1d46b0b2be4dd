"""HAR session ingestion: entries, initiator resolution, dependency trees."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _esc
from operator import itemgetter
from typing import BinaryIO, Iterator, NamedTuple
from urllib.parse import urlsplit

from .domains import DomainError, registrable_domain
from .lines import read_lines


class HarParseError(ValueError):
    """Malformed HAR document. ``offset`` is the byte position when known."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


# The node kinds, in feature-code order ("bounced" is an edge label only).
NODE_KINDS = ("script", "media", "iframe", "other")

# A capture's lower-cased resource type -> its kind; any other is "other".
_RESOURCE_KINDS = {
    "script": "script", "image": "media", "media": "media", "font": "media",
    "document": "iframe", "subdocument": "iframe",
}


class RequestEntry(NamedTuple):
    url: str
    host: str  # the URL's hostname, split once at ingest
    initiator_url: str | None  # None when no initiator resolves
    resource_type: str | None  # the capture's _resourceType
    mime: str | None = None  # the response content's mimeType


@dataclass
class SessionRecord:
    """All parsed requests of one site visit, plus a skip report."""

    site_url: str
    entries: list[RequestEntry]
    skipped: Counter = field(default_factory=Counter)

    @property
    def skip_count(self) -> int:
        return sum(self.skipped.values())


@dataclass
class DependencyTree:
    """Per-visit initiator graph over (url, kind) nodes, rooted at the page."""

    root_url: str
    root_domain: str
    nodes: dict[str, str]  # url -> its kind, one of NODE_KINDS
    edges: dict[tuple[str, str], int]  # (initiator url, requested url) -> multiplicity
    diagnostics: Counter = field(default_factory=Counter)
    skipped: Counter = field(default_factory=Counter)
    # url -> hostname of each node, read once per tree; not written by tree_line
    hosts: dict[str, str] = field(kw_only=True, repr=False, compare=False)

    @classmethod
    def from_record(cls, rec: dict) -> "DependencyTree":
        """The tree of a ``tree_line`` record as ``json.loads`` reads it;
        KeyError, TypeError or ValueError on a record with a missing key, a
        field of the wrong type, a node URL or edge listed twice, an edge
        multiplicity below 1, a dangling edge, a root URL that is not a node,
        a node kind other than script/media/iframe/other, a node URL with no
        usable host or a root domain that is not its root URL's."""
        nodes = {u: k for u, k in rec["nodes"]}
        edges = {(s, d): m for s, d, m in rec["edges"]}
        if len(nodes) < len(rec["nodes"]) or len(edges) < len(rec["edges"]):
            raise ValueError("repeated node url or edge")
        diagnostics = Counter(dict(rec.get("diagnostics", {})))
        skipped = Counter(dict(rec.get("skipped", {})))
        root_url, root_domain = rec["root_url"], rec["root_domain"]
        texts = [root_url, root_domain]
        texts += [t for pair in (*nodes.items(), *edges) for t in pair]
        if not all(isinstance(t, str) for t in texts):
            raise TypeError("urls, domains and kinds must be strings")
        tallies = [*edges.values(), *diagnostics.values(), *skipped.values()]
        if not all(type(c) is int for c in tallies):
            raise TypeError("multiplicities and tallies must be integers")
        if min(edges.values(), default=1) < 1:
            raise ValueError(f"edge multiplicity {min(edges.values())} is below 1")
        if any(u not in nodes for edge in edges for u in edge):
            raise ValueError("edge endpoint is not a node")
        if root_url not in nodes:
            raise ValueError("root url is not a node")
        unknown = set(nodes.values()).difference(NODE_KINDS)
        if unknown:
            raise ValueError(f"unknown node kind {min(unknown)!r}")
        hosts = {url: url_host(url) for url in nodes}  # url -> (host, reason)
        root_host, _ = hosts[root_url]
        if root_host is None or registrable_domain(root_host) != root_domain:
            raise ValueError(f"root domain {root_domain!r} is not that of {root_url!r}")
        for url, (host, reason) in hosts.items():
            if reason:
                raise ValueError(f"node url {url!r} is unusable: {reason}")
            hosts[url] = host
        return cls(root_url, root_domain, nodes, edges, diagnostics, skipped, hosts=hosts)


def url_host(url: str) -> tuple[str | None, str | None]:
    """(hostname, None) for a usable URL, else (None, why not): ``bad_url``
    for bad syntax or scheme or a character that is not printable (a tab or
    line break would end a cell or row of a TSV artifact), ``bad_host`` for
    a hostname with no registrable domain."""
    if not url.isprintable():
        return None, "bad_url"
    # The origin ends at the first "/", "?" or "#" from index 8 on.
    end = url.find("/", 8)
    origin = url[:end] if end >= 0 else url
    if "?" in origin or "#" in origin:
        origin = origin[:8] + origin[8:].split("?", 1)[0].split("#", 1)[0]
    host = _origin_host(origin)
    return (host, None) if host is not None else _split_host(url)


@lru_cache(maxsize=65536)
def _origin_host(origin: str) -> str | None:
    """The host of ``origin`` when it is exactly "http://" or "https://" plus
    a usable host, else None. ``url_host`` asks only for URLs that are the
    origin plus nothing, or plus a "/", "?" or "#" and the rest. Such an
    origin holds none of those after its scheme, so every such URL has its
    netloc, and ``urlsplit`` gives it that host, whatever capture it is in."""
    host, _ = _split_host(origin)
    return host if host and origin in ("https://" + host, "http://" + host) else None


def _split_host(url: str) -> tuple[str | None, str | None]:
    """``url_host`` of a printable URL, read by ``urlsplit``."""
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


def _stack_top_url(stack) -> str | None:
    """First frame URL in a Chromium initiator call stack, parents included."""
    while type(stack) is dict:
        frames = stack.get("callFrames")
        for frame in frames if type(frames) is list else ():
            url = frame.get("url") if type(frame) is dict else None
            if type(url) is str and url:
                return url
        stack = stack.get("parent")
    return None


def classify_interaction(resource_type: str | None, mime: str | None = None) -> str:
    """Map a capture resource type (or, failing that, a MIME type) to a kind.

    The top frame's document also maps to iframe here; it becomes the tree
    root, whose kind is discarded during path contraction.
    """
    if resource_type:
        return _RESOURCE_KINDS.get(resource_type.lower(), "other")
    if mime:
        m = mime.lower()
        if m.startswith(("image/", "video/", "audio/")):
            return "media"
        if "javascript" in m:
            return "script"
        if m.startswith("text/html"):
            return "iframe"
    return "other"


def parse_har(data: bytes) -> SessionRecord:
    """Parse HAR 1.2 bytes into a SessionRecord.

    Initiators resolve in priority order: explicit initiator URL, top frame
    of the initiator call stack, the document URL for parser-initiated
    entries, otherwise none. Entries without a usable URL (bad syntax,
    data:/blob: schemes, a hostname with no registrable domain) are skipped
    and tallied.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HarParseError("not valid UTF-8", exc.start) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HarParseError(
            exc.msg, len(text[: exc.pos].encode("utf-8"))
        ) from exc
    except RecursionError:
        raise HarParseError("JSON nested too deeply") from None

    try:
        raw_entries = doc["log"]["entries"]
    except (TypeError, KeyError) as exc:
        raise HarParseError("document has no log.entries") from exc
    if not isinstance(raw_entries, list):
        raise HarParseError("log.entries is not a list")

    skipped: Counter = Counter()
    parsed: list[tuple[str, str, str, dict]] = []
    interned: dict[str, str] = {}  # one string object per distinct host
    for raw in raw_entries:
        # Fields are read with exact type checks: json.loads makes no
        # subclasses, and a field of the wrong type counts as absent.
        request = raw.get("request") if type(raw) is dict else None
        url = request.get("url") if type(request) is dict else None
        if type(url) is not str or not url:
            skipped["malformed_entry"] += 1
            continue
        host, reason = url_host(url)
        if reason:
            hostless = url.split(":", 1)[0].lower() in ("data", "blob", "about", "chrome-extension")
            skipped["no_hostname" if hostless else reason] += 1
            continue
        host = interned.setdefault(host, host)
        started = raw.get("startedDateTime")
        parsed.append((started if type(started) is str else "", url, host, raw))
    if not parsed:
        raise HarParseError("no usable entries in capture")

    parsed.sort(key=itemgetter(0))  # stable: ties keep file order
    document_url = parsed[0][1]

    entries = []
    redirects: dict[str, str] = {}  # redirect target -> first hop naming it
    for _, url, host, raw in parsed:
        ini = raw.get("_initiator")
        if type(ini) is dict:
            initiator_url = ini.get("url")
            if type(initiator_url) is not str or not initiator_url:
                initiator_url = _stack_top_url(ini.get("stack"))
            if not initiator_url and str(ini.get("type", "")).lower() == "parser":
                initiator_url = document_url
        else:  # a bare string is the initiator's URL with no type; else none
            initiator_url = ini if type(ini) is str else None

        response = raw.get("response")
        response = response if type(response) is dict else {}
        target = response.get("redirectURL")
        if type(target) is str and target:
            redirects.setdefault(target, url)
        content = response.get("content")
        mime = content.get("mimeType") if type(content) is dict else None
        mime = mime if type(mime) is str else None
        resource_type = raw.get("_resourceType")
        resource_type = resource_type if type(resource_type) is str else None
        entry = (url, host, initiator_url or None, resource_type, mime)
        entries.append(tuple.__new__(RequestEntry, entry))  # skips NamedTuple's Python __new__

    # Redirect hops initiate their targets; fill that in where the capture
    # left the target's initiator unknown.
    if redirects:
        entries = [
            e
            if e.initiator_url or e.url not in redirects or e.url == redirects[e.url]
            else e._replace(initiator_url=redirects[e.url])
            for e in entries
        ]

    return SessionRecord(site_url=document_url, entries=entries, skipped=skipped)


def build_tree(record: SessionRecord) -> DependencyTree:
    """Resolve initiator edges into a dependency tree for one session.

    Nodes are keyed by URL (first-seen kind wins); duplicate initiator pairs
    collapse into edge multiplicity. Entries whose initiator is unknown or
    never itself requested attach to the root. Nothing may point back at the
    root; such edges are dropped and tallied in diagnostics. Each node's
    host is the one its entry carries.
    """
    if not record.entries:
        raise ValueError("SessionRecord has no entries")
    root_url = record.site_url
    nodes: dict[str, str] = {}
    hosts: dict[str, str] = {}
    kinds: dict[tuple, str] = {}  # (resource type, MIME) -> kind, classified once
    for url, host, _, resource_type, mime in record.entries:
        if url not in nodes:
            kind = kinds.get((resource_type, mime))
            if kind is None:
                kind = kinds[resource_type, mime] = classify_interaction(resource_type, mime)
            nodes[url] = kind
            hosts[url] = host
    if root_url not in hosts:
        raise ValueError("site_url is not a requested URL")
    root_domain = registrable_domain(hosts[root_url])

    diagnostics: Counter = Counter()
    edges: dict[tuple[str, str], int] = {}
    for url, _, src, _, _ in record.entries:
        if url == root_url:
            if src and src != root_url:
                diagnostics["edge_to_root_dropped"] += 1
            continue
        if src is None or src not in nodes:
            src = root_url
        if src == url:
            diagnostics["self_edge_dropped"] += 1
            src = root_url
        edge = (src, url)
        edges[edge] = edges.get(edge, 0) + 1

    return DependencyTree(
        root_url=root_url,
        root_domain=root_domain,
        nodes=nodes,
        edges=edges,
        diagnostics=diagnostics,
        skipped=Counter(record.skipped),
        hosts=hosts,
    )


# A trees file is this version header, then one ``tree_line`` per tree.
TREES_HEADER = b'{"format": "widetrack-trees", "version": 1}\n'


# A trees line is its record as JSONEncoder(sort_keys=True) writes it: this
# template, keys in order, each string escaped as that encoder does (ASCII).
_TREE = (
    '{"diagnostics": {%s}, "edges": [%s], "nodes": [%s], '
    '"root_domain": %s, "root_url": %s, "skipped": {%s}}\n'
)


def tree_line(tree: DependencyTree) -> bytes:
    """The tree's trees-file line. Each node URL is escaped once; edges sort
    by their endpoints' ranks among the sorted URLs, as (source, target) do."""
    urls = sorted(tree.nodes)
    n = len(urls)
    rank = dict(zip(urls, range(n)))
    quoted = list(map(_esc, urls))
    nodes = [f"[{q}, {_esc(tree.nodes[url])}]" for url, q in zip(urls, quoted)]
    edges = sorted([(rank[s] * n + rank[d], m) for (s, d), m in tree.edges.items()])
    edges = [f"[{quoted[i // n]}, {quoted[i % n]}, {m:d}]" for i, m in edges]
    line = _TREE % (
        _tallies(tree.diagnostics), ", ".join(edges), ", ".join(nodes),
        _esc(tree.root_domain), _esc(tree.root_url), _tallies(tree.skipped),
    )
    return line.encode()


def _tallies(counts: Counter) -> str:
    return ", ".join([f"{_esc(name)}: {n:d}" for name, n in sorted(counts.items())])


def read_trees(stream: BinaryIO, source: str = "trees file") -> Iterator[DependencyTree]:
    """Yield the trees of the trees file ``source`` read one line at a time
    (``read_lines``), so only the tree being yielded is held. An empty file
    raises HarParseError naming ``source``; a bad header, a bad record or a
    byte that is not UTF-8 raises one naming ``source`` and the line."""
    lines = read_lines(stream, source, HarParseError)
    _, first = next(lines, (1, None))
    if first is None:
        raise HarParseError(f"{source}: empty trees file")
    try:
        header = json.loads(first)
    except (ValueError, RecursionError):
        header = None
    if (
        not isinstance(header, dict)
        or header.get("format") != "widetrack-trees"
        or header.get("version") != 1
    ):
        raise HarParseError(f"{source}: line 1: unrecognized trees file header")
    for lineno, line in lines:
        if not line:
            continue
        try:
            tree = DependencyTree.from_record(json.loads(line))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise HarParseError(f"{source}: line {lineno}: bad trees record: {exc!r}") from exc
        yield tree
