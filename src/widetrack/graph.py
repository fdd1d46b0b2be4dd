"""Merged cross-site dependency graph and its per-site building blocks.

Third parties appear as up to four (domain, kind) nodes; first parties are
super-nodes with no incoming edges. Each sub-domain document, the unit later
classified, is filed once in ``WideGraph.docs`` by its (host, kind) and names
its parent third-party node.
"""

from __future__ import annotations

import gc
import io
import json
from bisect import bisect_left
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from json.encoder import encode_basestring_ascii as _esc
from typing import BinaryIO, Iterable, NamedTuple

import numpy as np

from .domains import DomainError, registrable_domain
from .ingest import NODE_KIND_VALUES, DependencyTree, InteractionKind, url_host

FIRST_PARTY = "firstparty"
BOUNCED = InteractionKind.BOUNCED.value


class GraphError(ValueError):
    pass


class GraphFormatError(GraphError):
    """Raised when a persisted graph cannot be decoded."""


class NodeKey(NamedTuple):
    domain: str
    kind: str  # interaction kind value or FIRST_PARTY

    def is_first_party(self) -> bool:
        return self.kind == FIRST_PARTY


class EdgeData:
    """A merged edge's multiplicity and the sorted, distinct names of the
    roots whose captures contributed it."""

    __slots__ = ("multiplicity", "sites")

    def __init__(self, multiplicity: int = 0, sites: Iterable[str] = ()):
        self.multiplicity = multiplicity
        self.sites: list[str] = []
        for site in sites:
            self.add_site(site)

    def add_site(self, site: str) -> None:
        i = bisect_left(self.sites, site)
        if i == len(self.sites) or self.sites[i] != site:
            self.sites.insert(i, site)


@dataclass
class SubdomainDocument:
    host: str
    kind: str
    urls: Counter  # url -> request count
    sites: set[str]
    parent: NodeKey


class WideGraph:
    def __init__(self):
        self.roots: set[str] = set()
        # Each key maps to itself: the one key object that every edge and
        # document of the node shares.
        self.nodes: dict[NodeKey, NodeKey] = {}
        self.edges: dict[tuple[NodeKey, NodeKey, str], EdgeData] = {}
        self.docs: dict[tuple[str, str], SubdomainDocument] = {}  # by (host, kind)

    def third_party_keys(self) -> list[NodeKey]:
        return sorted(k for k in self.nodes if not k.is_first_party())

    def documents(self) -> list[SubdomainDocument]:
        """Every document, by parent node, then host."""
        return sorted(self.docs.values(), key=attrgetter("parent", "host"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WideGraph):
            return NotImplemented
        if self.roots != other.roots or set(self.nodes) != set(other.nodes):
            return False
        if set(self.edges) != set(other.edges):
            return False
        for key, data in self.edges.items():
            o = other.edges[key]
            if data.multiplicity != o.multiplicity or data.sites != o.sites:
                return False
        if self.docs.keys() != other.docs.keys():
            return False
        for key, doc in self.docs.items():
            o = other.docs[key]
            if doc.parent != o.parent or doc.urls != o.urls or doc.sites != o.sites:
                return False
        return True


def contract_tree(graph: WideGraph, tree: DependencyTree) -> Counter:
    """Path contraction of one site's tree straight into the graph.

    First-party URLs collapse into the site's super-node and third-party
    URLs key to (domain, kind) nodes; each URL joins its (host, kind)
    document. Edges into the first party and edges that become self-loops
    after re-keying are dropped and tallied in the returned diagnostics.
    The site's own edges are expanded, then fused into the graph: edge
    multiplicities add and their contributing-site lists union.
    """
    root = tree.root_domain
    graph.roots.add(root)
    fp = NodeKey(root, FIRST_PARTY)
    fp = graph.nodes.setdefault(fp, fp)

    request_count = dict.fromkeys(tree.nodes, 0)
    for (_, dst), mult in tree.edges.items():
        request_count[dst] += mult

    # Every node key below is the node's own object, so keys compare by identity.
    key_of: dict[str, NodeKey] = {}
    for url, kind in tree.nodes.items():
        key_of[url], urls = _file_document(graph, fp, tree.hosts[url], kind)
        if urls is not None:  # each URL is one node
            urls[url] = urls.get(url, 0) + (request_count[url] or 1)

    diagnostics: Counter = Counter()
    edges: dict[tuple[NodeKey, NodeKey, str], int] = {}
    for (src_url, dst_url), mult in tree.edges.items():
        src, dst = key_of[src_url], key_of[dst_url]
        if dst is fp:
            diagnostics["edge_to_firstparty_dropped"] += mult
        elif src is dst:
            diagnostics["contracted_self_edge_dropped"] += mult
        else:
            edge = (src, dst, dst.kind)
            edges[edge] = edges.get(edge, 0) + mult

    expand_edges(fp, edges)
    for edge, mult in edges.items():
        data = graph.edges.get(edge) or graph.edges.setdefault(edge, EdgeData())
        data.multiplicity += mult
        data.add_site(root)
    return diagnostics


def _file_document(graph: WideGraph, fp: NodeKey, host: str, kind: str) -> tuple:
    """(node key, URL counts) of the ``kind`` URLs on ``host`` in the site of
    first party ``fp``, filing their document; the counts are None in ``fp``.
    The key is the node's own, so every edge shares one key object per node."""
    doc = graph.docs.get((host, kind))
    if doc is None:
        domain = registrable_domain(host)
        if domain == fp.domain:
            return fp, None
        key = NodeKey(domain, kind)
        key = graph.nodes.setdefault(key, key)
        doc = graph.docs[host, kind] = SubdomainDocument(host, kind, Counter(), set(), key)
    if doc.parent.domain == fp.domain:  # filed by another site, first party in this one
        return fp, None
    doc.sites.add(fp.domain)
    return doc.parent, doc.urls


def expand_edges(fp: NodeKey, edges: dict[tuple[NodeKey, NodeKey, str], int]) -> None:
    """Add to one site's contracted edges, in place, one Bounced edge from
    its first party ``fp`` per third party reachable only indirectly."""
    adjacency: dict[NodeKey, set[NodeKey]] = {}
    direct: set[NodeKey] = set()
    for (src, dst, label) in edges:
        adjacency.setdefault(src, set()).add(dst)
        if src == fp and label != BOUNCED:
            direct.add(dst)

    queue = deque([fp])
    seen = {fp}
    while queue:
        for nxt in adjacency.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)

    for node in seen - direct - {fp}:
        edges.setdefault((fp, node, BOUNCED), 1)


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for the block, then set it back as
    the caller had it. Also a decorator: each call pauses it anew."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def build_widegraph(trees: Iterable[DependencyTree]) -> WideGraph:
    """The wide graph of every tree, contracted in as each one arrives.

    The cyclic garbage collector is paused while ``trees`` is drawn and
    contracted: reading and contracting make many containers but no
    reference cycles, so its sweeps find nothing.
    """
    graph = WideGraph()
    with collector_paused():
        for tree in trees:
            contract_tree(graph, tree)
    return graph


class GraphIndex:
    """Everything the per-node reads need, counted from ``graph.edges``.

    Degrees count each distinct (src, dst, label) edge once, ignoring
    multiplicity; neighbour sets, kept for third-party nodes only, ignore
    direction. Direct and indirect root counts are the numbers of first
    parties with a non-Bounced / any edge into a node. ``src``/``dst`` are
    the edges' endpoint ids into ``ids``. Build it once per graph and pass
    it to every consumer.
    """

    def __init__(self, graph: WideGraph):
        self.graph = graph
        self.ids = {key: i for i, key in enumerate(graph.nodes)}
        self.in_degree = Counter(dst for _, dst, _ in graph.edges)
        self.out_degree = Counter(src for src, _, _ in graph.edges)
        self.neighbors = {key: set() for key in graph.nodes if not key.is_first_party()}
        for src, dst, _ in graph.edges:
            if src in self.neighbors:
                self.neighbors[src].add(dst)
            if dst in self.neighbors:
                self.neighbors[dst].add(src)
        # (first party, node, whether the edge is not Bounced), once each
        fp_edges = {(s, d, label != BOUNCED) for s, d, label in graph.edges if s.is_first_party()}
        self.n_direct_roots = Counter(d for _, d, real in fp_edges if real)
        self.n_indirect_roots = Counter(d for _, d in {(s, d) for s, d, _ in fp_edges})
        self.src = np.array([self.ids[s] for s, _, _ in graph.edges], dtype=np.intp)
        self.dst = np.array([self.ids[d] for _, d, _ in graph.edges], dtype=np.intp)

    def degree(self, key: NodeKey) -> int:
        """Distinct in- plus out-edges, multiplicity ignored."""
        return self.in_degree[key] + self.out_degree[key]


def coverage_counts(index: GraphIndex, key: NodeKey) -> tuple[int, int, int]:
    """(direct roots, indirect roots, total roots) for a third-party node."""
    if key not in index.graph.nodes:
        raise GraphError(f"unknown node {key}")
    if key.is_first_party():
        raise GraphError("coverage is undefined for first-party nodes")
    return index.n_direct_roots[key], index.n_indirect_roots[key], len(index.graph.roots)


def coverage(index: GraphIndex, key: NodeKey) -> tuple[float, float]:
    """Fractions of first parties linking to the node directly / at all.

    Indirect coverage reads the per-site Bounced edges added at expansion
    time; merged-graph multi-hop paths would mix edges from different sites
    and overcount.
    """
    d, i, n = coverage_counts(index, key)
    if n == 0:
        return 0.0, 0.0
    return d / n, i / n


def average_path_length(graph: WideGraph) -> float:
    """Mean shortest-path length from first parties to reachable third
    parties, over real (non-Bounced) edges; 0.0 when nothing is reachable."""
    adjacency: dict[NodeKey, list[NodeKey]] = {}
    for (src, dst, label) in graph.edges:
        if label != BOUNCED:
            adjacency.setdefault(src, []).append(dst)
    total = pairs = 0
    for root in graph.roots:
        fp = NodeKey(root, FIRST_PARTY)
        dist = {fp: 0}
        queue = deque([fp])
        while queue:
            node = queue.popleft()
            for nxt in adjacency.get(node, ()):
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        for node, d in dist.items():
            if not node.is_first_party():
                total += d
                pairs += 1
    return total / pairs if pairs else 0.0


def stats(index: GraphIndex) -> dict:
    graph = index.graph
    label_counts: Counter = Counter(label for (_, _, label) in graph.edges)
    third = graph.third_party_keys()
    rows = []
    for key in third:
        direct, indirect = coverage(index, key)
        rows.append(
            {
                "domain": key.domain,
                "kind": key.kind,
                "direct": direct,
                "indirect": indirect,
                "in_degree": index.in_degree[key],
            }
        )
    rows.sort(key=lambda r: (-r["direct"], -r["indirect"], r["domain"], r["kind"]))
    return {
        "roots": len(graph.roots),
        "nodes": len(graph.nodes),
        "third_party_nodes": len(third),
        "edges": len(graph.edges),
        "edge_multiplicity_total": sum(e.multiplicity for e in graph.edges.values()),
        "edges_by_label": dict(sorted(label_counts.items())),
        "documents": len(graph.docs),
        "avg_path_length": average_path_length(graph),
        "top_coverage": rows[:20],
    }


_FORMAT = {"format": "widegraph", "version": 1}
_HEADER = json.dumps(_FORMAT)

# Each record is one fixed template with its keys in sorted order and each
# string escaped as JSONEncoder(sort_keys=True) writes it (ASCII-only).
# A node key goes in as its escaped ``[domain, kind]`` pair.
_ROOT = '{"d": %s, "t": "root"}\n'
_NODE = '{"d": %s, "k": %s, "t": "node"}\n'
_EDGE = '{"l": %s, "m": %d, "s": %s, "sites": [%s], "t": "edge", "x": %s}\n'
_DOC = '{"h": %s, "k": %s, "p": %s, "sites": [%s], "t": "doc", "urls": [%s]}\n'


def save_graph(graph: WideGraph, out: BinaryIO) -> None:
    """Write line-delimited records, deterministically ordered, to ``out``,
    one line at a time, escaping each node key once."""
    out.write(_HEADER.encode() + b"\n")
    for domain in sorted(graph.roots):
        out.write((_ROOT % _esc(domain)).encode())
    pairs: dict[NodeKey, str] = {}
    for key in sorted(graph.nodes):
        domain, kind = _esc(key.domain), _esc(key.kind)
        pairs[key] = f"[{domain}, {kind}]"
        out.write((_NODE % (domain, kind)).encode())
    for edge in sorted(graph.edges):
        src, dst, label = edge
        data = graph.edges[edge]
        sites = ", ".join(map(_esc, data.sites))
        line = _EDGE % (_esc(label), data.multiplicity, pairs[src], sites, pairs[dst])
        out.write(line.encode())
    for doc in graph.documents():
        sites = ", ".join(map(_esc, sorted(doc.sites)))
        urls = ", ".join([f"[{_esc(url)}, {n:d}]" for url, n in sorted(doc.urls.items())])
        line = _DOC % (_esc(doc.host), _esc(doc.kind), pairs[doc.parent], sites, urls)
        out.write(line.encode())


_NODE_KINDS = NODE_KIND_VALUES | {FIRST_PARTY}


def load_graph(data: bytes) -> WideGraph:
    """The graph in a ``save_graph`` file, read one line at a time.

    A bad or repeated record, or a byte that is not UTF-8, raises
    GraphFormatError naming its line. Besides types, the checks are: root
    and node domains are printable and their own registrable domains, node
    kinds are known, edges and documents name loaded nodes, a document is
    on its node's domain and kind, an edge runs into a third party from
    another node, an edge's label is its target's kind or Bounced, a
    Bounced edge leaves a first party, multiplicities and URL
    counts are at least 1, edge and document sites are sorted, distinct
    root names, and a document lists at least one URL, each once, and each
    one ingest accepts (``url_host``) on the document's host. Key order,
    spacing, record order, blank lines and CR line ends are not checked;
    ``save_graph`` writes its own layout whatever was read. Nor are empty
    sites, which ``contract_tree`` never writes but which load and re-save
    as they are."""
    graph = WideGraph()
    lineno = 0
    try:
        for lineno, raw in enumerate(io.BytesIO(data), 1):
            try:
                line = raw.rstrip(b"\r\n").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise GraphFormatError(f"byte {raw[exc.start]:#04x} is not UTF-8") from None
            if lineno == 1:
                try:
                    header = json.loads(line)
                except (json.JSONDecodeError, RecursionError):
                    raise GraphFormatError("bad graph header") from None
                if header != _FORMAT:
                    raise GraphFormatError(f"unsupported graph format {header!r}")
                continue
            if not line:
                continue
            rec = json.loads(line)
            kind = rec["t"]
            if kind in ("root", "node"):
                _check_domain(kind, rec["d"])
            if kind == "root":
                if rec["d"] in graph.roots:
                    raise GraphFormatError(f"repeated root {rec['d']!r}")
                graph.roots.add(rec["d"])
            elif kind == "node":
                if rec["k"] not in _NODE_KINDS:
                    raise GraphFormatError(f"unknown node kind {rec['k']!r}")
                key = NodeKey(rec["d"], rec["k"])
                if key in graph.nodes:
                    raise GraphFormatError(f"repeated node {tuple(key)}")
                graph.nodes[key] = key
            elif kind == "edge":
                _load_edge(graph, rec)
            elif kind == "doc":
                _load_doc(graph, rec)
            else:
                raise GraphFormatError(f"unknown record type {kind!r}")
    except GraphFormatError as exc:
        raise GraphFormatError(f"{exc} on line {lineno}") from None
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise GraphFormatError(f"corrupt graph record on line {lineno}: {exc}") from exc
    if lineno == 0:
        raise GraphFormatError("empty graph file")
    return graph


def _load_edge(graph: WideGraph, rec: dict) -> None:
    """File one edge record in ``graph``."""
    src = graph.nodes.get(NodeKey(*rec["s"]))
    dst = graph.nodes.get(NodeKey(*rec["x"]))
    if src is None or dst is None:
        raise GraphFormatError("edge references unknown node")
    label = rec["l"]
    if dst.is_first_party():
        raise GraphFormatError(f"edge into first-party node {tuple(dst)}")
    if label not in (dst.kind, BOUNCED):
        raise GraphFormatError(
            f"edge label {label!r} is neither its target's kind {dst.kind!r} nor bounced"
        )
    if label == BOUNCED and not src.is_first_party():
        raise GraphFormatError(f"bounced edge from third-party node {tuple(src)}")
    if src is dst:
        raise GraphFormatError(f"self-loop edge on {tuple(src)}")
    edge = (src, dst, label)
    if edge in graph.edges:
        raise GraphFormatError(f"repeated edge {tuple(src)} -> {tuple(dst)}")
    mult, sites = rec["m"], rec["sites"]
    if type(mult) is not int or type(sites) is not list or not all(type(s) is str for s in sites):
        raise GraphFormatError("edge multiplicity must be an integer, sites a list of strings")
    if mult < 1:
        raise GraphFormatError(f"edge multiplicity {mult} is below 1")
    _check_sites(graph, "edge", sites)
    graph.edges[edge] = EdgeData(mult, sites)


def _load_doc(graph: WideGraph, rec: dict) -> None:
    """File one document record in ``graph``."""
    parent = graph.nodes.get(NodeKey(*rec["p"]))
    if parent is None:
        raise GraphFormatError("document references unknown node")
    kind = rec["k"]
    if kind not in NODE_KIND_VALUES:
        raise GraphFormatError(f"unknown document kind {kind!r}")
    host = rec["h"]
    if not isinstance(host, str) or parent != (registrable_domain(host), kind):
        raise GraphFormatError(f"document {host!r} is filed under {tuple(parent)}")
    if (host, kind) in graph.docs:
        raise GraphFormatError(f"repeated document {host!r}")
    pairs, sites = rec["urls"], rec["sites"]
    urls = Counter(dict((u, c) for u, c in pairs))
    if type(sites) is not list or not all(type(s) is str for s in sites) or not all(
        type(c) is int for c in urls.values()
    ):
        raise GraphFormatError("url counts must be integers, sites a list of strings")
    if not pairs:
        raise GraphFormatError(f"document {host!r} lists no urls")
    if len(urls) != len(pairs):
        twice = next(u for u, n in Counter(u for u, _ in pairs).items() if n > 1)
        raise GraphFormatError(f"document lists url {twice!r} twice")
    # The matcher takes every URL's host to be the document's.
    for url, count in urls.items():
        if type(url) is str and not url.isprintable():
            raise GraphFormatError(f"document url {url!r} is not printable")
        if type(url) is not str or url_host(url)[0] != host:
            raise GraphFormatError(f"document url {url!r} is not on host {host!r}")
        if count < 1:
            raise GraphFormatError(f"document url {url!r} has count {count}, below 1")
    _check_sites(graph, "document", sites)
    graph.docs[host, kind] = SubdomainDocument(host, kind, urls, set(sites), parent)


def _check_domain(what: str, domain) -> None:
    """Raise GraphFormatError unless ``domain`` is a string that
    ``registrable_domain`` accepts and returns unchanged."""
    if type(domain) is not str:
        raise GraphFormatError(f"{what} domain {domain!r} is not a string")
    try:
        registrable = registrable_domain(domain) == domain
    except DomainError:
        registrable = False
    if not registrable:
        raise GraphFormatError(f"{what} domain {domain!r} is not a printable registrable domain")


def _check_sites(graph: WideGraph, what: str, sites: list[str]) -> None:
    """Raise GraphFormatError unless ``sites`` are sorted, distinct roots."""
    if not graph.roots.issuperset(sites):
        stray = next(s for s in sites if s not in graph.roots)
        raise GraphFormatError(f"{what} site {stray!r} is not a root")
    if sorted(set(sites)) != sites:
        raise GraphFormatError(f"{what} sites are not sorted and distinct")
