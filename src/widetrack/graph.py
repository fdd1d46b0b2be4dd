"""Merged cross-site dependency graph and its per-site building blocks.

Third parties appear as up to four (domain, kind) nodes; first parties are
super-nodes with no incoming edges. Each sub-domain document, the unit later
classified, is filed once in ``WideGraph.docs`` by its (host, kind) and names
its parent third-party node.
"""

from __future__ import annotations

import io
import json
import sys
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from json.encoder import encode_basestring_ascii as _esc
from operator import attrgetter, itemgetter
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .domains import DomainError, registrable_domain
from .ingest import NODE_KINDS, DependencyTree, url_host
from .lines import read_lines

FIRST_PARTY = "firstparty"
BOUNCED = "bounced"  # an edge label only (see expand_edges), never a node kind
# Every edge label, sorted, so that label codes sort as the labels do.
LABELS = tuple(sorted((*NODE_KINDS, BOUNCED)))
_LABEL_CODES = {label: code for code, label in enumerate(LABELS)}


class GraphError(ValueError):
    pass


class GraphFormatError(GraphError):
    """Raised when a persisted graph cannot be decoded."""


class NodeKey(NamedTuple):
    domain: str
    kind: str  # one of NODE_KINDS, or FIRST_PARTY

    def is_first_party(self) -> bool:
        return self.kind == FIRST_PARTY


@dataclass
class SubdomainDocument:
    host: str
    kind: str
    urls: Counter  # url -> request count
    sites: set[str]
    parent: NodeKey


# What a WideGraph derives from its rows when one of these is first read.
_MERGED = (
    "keys", "ids", "edges", "site_ptr", "site_ids", "site_names",
    "in_degree", "out_degree", "n_direct_roots", "n_indirect_roots", "neighbors",
)


class WideGraph:
    """The merged graph of many sites' trees.

    ``nodes`` maps each node key to itself, the one key object its documents
    share. ``add_edges`` is the one row writer: ``add_edge`` adds one edge
    through it, contraction and the generator a site's edges as one batch.
    The first read of a ``_MERGED`` name merges the rows by one sort; from
    then on no node or edge can be added. Node ids follow NodeKey order
    (``keys``, ``ids``). ``edges`` holds one record per distinct (src, dst,
    label) in ``graph.jsonl`` order: node ids, a code into LABELS, and the
    multiplicity as a Python int. Edge i's sites are
    ``site_names[site_ids[site_ptr[i]:site_ptr[i + 1]]]``. By node id:
    distinct in- and out-edges, the numbers of first parties with a
    non-Bounced / any edge into the node, and a third party's neighbour ids,
    direction ignored, ascending.
    """

    def __init__(self):
        self.roots: set[str] = set()
        self.nodes: dict[NodeKey, NodeKey] = {}
        self.docs: dict[tuple[str, str], SubdomainDocument] = {}  # by (host, kind)
        # Five columns, one entry a row: src, dst, label code, mult, site.
        self._rows: tuple[list, ...] | None = ([], [], [], [], [])

    def add_node(self, key: NodeKey) -> NodeKey:
        """The graph's own object for node ``key``, adding the node if new."""
        if self._rows is None:
            raise GraphError("the graph was read; no node or edge can be added to it")
        return self.nodes.setdefault(key, key)

    def add_edge(
        self, src: NodeKey, dst: NodeKey, label: str, mult: int, sites: Iterable[str] = ()
    ) -> None:
        """Add ``mult`` to edge (src, dst, label), adding the edge, and its
        ends as nodes, if new, and add ``sites`` to the edge's sites."""
        self.add_edges((self.add_node(src),), (self.add_node(dst),), (label,), (mult,), sites)

    def add_edges(self, srcs, dsts, labels, mults, sites: Iterable[str]) -> None:
        """Append rows for edges with the same ``sites``, given as columns of the
        graph's own node keys, labels and multiplicities: a row per edge and
        site (or one, with no site), the multiplicity on the first, sites interned."""
        src, dst, code, mult, site = self._rows
        codes = [*map(_LABEL_CODES.__getitem__, labels)]
        for name in [*map(sys.intern, sites)] or [None]:
            src += srcs
            dst += dsts
            code += codes
            mult += mults
            site += [name] * len(codes)
            mults = [0] * len(codes)

    def __getattr__(self, name):
        if name not in _MERGED:
            raise AttributeError(name)
        self._merge()
        return self.__dict__[name]

    def _merge(self) -> None:
        """Sort the rows into ``edges`` and derive the per-node reads."""
        src, dst, row_label, mults, sites = self._rows
        self._rows = None
        self.keys = keys = sorted(self.nodes)
        self.ids = ids = {key: i for i, key in enumerate(keys)}
        n, rows = len(keys), len(src)
        pairs = np.fromiter(map(ids.__getitem__, src), np.int64, rows) * n
        pairs += np.fromiter(map(ids.__getitem__, dst), np.int64, rows)
        pairs = pairs * len(LABELS) + np.array(row_label, dtype=np.int64)
        codes, edge_of_row = np.unique(pairs, return_inverse=True)
        pair, label = np.divmod(codes, len(LABELS))
        e_src, e_dst = np.divmod(pair, n)
        mult = np.zeros(len(codes), dtype=object)
        np.add.at(mult, edge_of_row, np.array(mults, dtype=object))
        self.edges = np.rec.fromarrays([e_src, e_dst, label, mult], names="src,dst,label,mult")
        self.site_names = names = sorted(set(sites) - {None})
        site_of = dict(zip(names, range(len(names))))
        site = np.fromiter(map(site_of.get, sites, repeat(-1)), np.int64, rows)
        listed = site >= 0
        self.site_ptr, self.site_ids = _grouped(
            edge_of_row[listed], site[listed], len(codes), len(names)
        )

        self.in_degree = np.bincount(e_dst, minlength=n)
        self.out_degree = np.bincount(e_src, minlength=n)
        first_party = np.array([key.is_first_party() for key in keys], dtype=bool)
        root = first_party[e_src]
        direct = root & (label != _LABEL_CODES[BOUNCED])
        self.n_direct_roots = np.diff(_grouped(e_dst[direct], e_src[direct], n, n)[0])
        self.n_indirect_roots = np.diff(_grouped(e_dst[root], e_src[root], n, n)[0])
        ends, others = np.concatenate([e_src, e_dst]), np.concatenate([e_dst, e_src])
        third = ~first_party[ends]
        neighbor_ptr, neighbor_ids = _grouped(ends[third], others[third], n, n)
        self.neighbors = np.split(neighbor_ids, neighbor_ptr[1:-1])

    def edge_records(self) -> Iterator[tuple[NodeKey, NodeKey, str, int, list[str]]]:
        """Each edge as (source, target, label, multiplicity, sites), in file order."""
        return chain.from_iterable(self._edge_blocks(self.keys, LABELS, self.site_names))

    def _edge_blocks(self, keys: list, labels: Sequence, names: list) -> Iterator[Iterator]:
        """Each block of edges in file order, as (source, target, label, mult,
        sites) rows looked up by id or code in ``keys``, ``labels``, ``names``."""
        for start in range(0, len(self.edges), 4096):
            block = self.edges[start:start + 4096]
            ptr = self.site_ptr[start:start + len(block) + 1]
            sites = [*map(names.__getitem__, self.site_ids[ptr[0]:ptr[-1]].tolist())]
            ptr = (ptr - ptr[0]).tolist()
            src, dst, label, mult = (block[name].tolist() for name in block.dtype.names)
            node, cut = keys.__getitem__, map(sites.__getitem__, map(slice, ptr[:-1], ptr[1:]))
            yield zip(map(node, src), map(node, dst), map(labels.__getitem__, label), mult, cut)

    def third_party_keys(self) -> list[NodeKey]:
        return [key for key in self.keys if not key.is_first_party()]

    def documents(self) -> list[SubdomainDocument]:
        """Every document, by parent node, then host."""
        return sorted(self.docs.values(), key=attrgetter("parent", "host"))

    def _facts(self) -> tuple:
        """What graph equality compares: roots, nodes, edges and documents."""
        docs = {key: (doc.parent, doc.urls, doc.sites) for key, doc in self.docs.items()}
        return self.roots, self.keys, list(self.edge_records()), docs

    def __eq__(self, other) -> bool:
        if not isinstance(other, WideGraph):
            return NotImplemented
        return self._facts() == other._facts()


def _grouped(rows: np.ndarray, values: np.ndarray, n_rows: int, n_values: int) -> tuple:
    """(offsets, values) of a CSR table: the distinct ``values`` paired with
    each of ``n_rows`` rows, ascending. Each row is below ``n_rows`` and
    each value below ``n_values``."""
    codes = np.sort(rows * n_values + values)
    distinct = np.ones(len(codes), dtype=bool)
    distinct[1:] = codes[1:] != codes[:-1]
    row, value = np.divmod(codes[distinct], n_values)
    return np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n_rows))]), value


def contract_tree(graph: WideGraph, tree: DependencyTree) -> Counter:
    """Path contraction of one site's tree straight into the graph.

    First-party URLs collapse into the site's super-node and third-party
    URLs key to (domain, kind) nodes; each distinct (host, kind) is filed
    once, as one document, where its URLs add their request counts (their
    in-edges' multiplicities, or 1). Edges into the first party and edges
    that become self-loops after re-keying are dropped and tallied in the
    returned diagnostics. The site's edges are expanded, then added as one batch.
    """
    root = tree.root_domain
    graph.roots.add(root)
    fp = graph.add_node(NodeKey(root, FIRST_PARTY))

    pairs = list(zip(map(tree.hosts.__getitem__, tree.nodes), tree.nodes.values()))
    filed = {pair: _file_document(graph, fp, *pair) for pair in dict.fromkeys(pairs)}
    # url -> (node key, URL counts); keys are the graph's own, so compare by identity
    filed_as = dict(zip(tree.nodes, map(filed.__getitem__, pairs)))
    for url in filterfalse(set(map(itemgetter(1), tree.edges)).__contains__, tree.nodes):
        _, urls = filed_as[url]  # requested by no edge
        if urls is not None:
            urls[url] = urls.get(url, 0) + 1

    diagnostics: Counter = Counter()
    edges: dict[tuple[NodeKey, NodeKey, str], int] = {}
    for (src_url, dst_url), mult in tree.edges.items():
        dst, urls = filed_as[dst_url]
        if urls is None:  # dst is fp
            diagnostics["edge_to_firstparty_dropped"] += mult
            continue
        urls[dst_url] = urls.get(dst_url, 0) + mult
        src = filed_as[src_url][0]
        if src is dst:
            diagnostics["contracted_self_edge_dropped"] += mult
        else:
            edge = (src, dst, dst.kind)
            edges[edge] = edges.get(edge, 0) + mult

    expand_edges(fp, edges)
    src, dst, label = zip(*edges) if edges else ((), (), ())
    graph.add_edges(src, dst, label, edges.values(), (root,))
    return diagnostics


def _file_document(graph: WideGraph, fp: NodeKey, host: str, kind: str) -> tuple:
    """(node key, URL counts) of the ``kind`` URLs on ``host`` in the site of
    first party ``fp``, filing their document; the counts are None in ``fp``.
    The key is the node's own, so contraction compares node keys by identity."""
    doc = graph.docs.get((host, kind))
    if doc is None:
        domain = registrable_domain(host)
        if domain == fp.domain:
            return fp, None
        key = graph.add_node(NodeKey(domain, kind))
        doc = graph.docs[host, kind] = SubdomainDocument(host, kind, Counter(), set(), key)
    if doc.parent.domain == fp.domain:  # filed by another site, first party in this one
        return fp, None
    doc.sites.add(fp.domain)
    return doc.parent, doc.urls


def expand_edges(fp: NodeKey, edges: dict[tuple[NodeKey, NodeKey, str], int]) -> None:
    """Add to one site's contracted edges, in place, one Bounced edge from
    its first party ``fp`` per third party reachable only indirectly. The
    search starts from ``fp``'s targets and follows third parties' edges."""
    adjacency: dict[NodeKey, list[NodeKey]] = {}
    direct: set[NodeKey] = set()
    for (src, dst, label) in edges:
        if src != fp:
            adjacency.setdefault(src, []).append(dst)
        elif label != BOUNCED:
            direct.add(dst)
    seen = {dst for src, dst, _ in edges if src == fp}

    stack = list(seen) if adjacency else []
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)

    for node in seen - direct - {fp}:
        edges.setdefault((fp, node, BOUNCED), 1)


def build_widegraph(trees: Iterable[DependencyTree]) -> WideGraph:
    """The wide graph of every tree, contracted in as each one arrives."""
    graph = WideGraph()
    for tree in trees:
        contract_tree(graph, tree)
    graph._merge()
    return graph


def coverage_counts(graph: WideGraph, key: NodeKey) -> tuple[int, int, int]:
    """(direct roots, indirect roots, total roots) for a third-party node."""
    if key not in graph.nodes:
        raise GraphError(f"unknown node {key}")
    if key.is_first_party():
        raise GraphError("coverage is undefined for first-party nodes")
    i = graph.ids[key]
    return int(graph.n_direct_roots[i]), int(graph.n_indirect_roots[i]), len(graph.roots)


def coverage(graph: WideGraph, key: NodeKey) -> tuple[float, float]:
    """Fractions of first parties linking to the node directly / at all.

    Indirect coverage reads the per-site Bounced edges added at expansion
    time; merged-graph multi-hop paths would mix edges from different sites
    and overcount.
    """
    d, i, n = coverage_counts(graph, key)
    if n == 0:
        return 0.0, 0.0
    return d / n, i / n


def average_path_length(graph: WideGraph) -> float:
    """Mean shortest-path length from first parties to reachable third
    parties, over real (non-Bounced) edges; 0.0 when nothing is reachable."""
    keys, e = graph.keys, graph.edges
    real = e.label != _LABEL_CODES[BOUNCED]
    out_ptr, targets = _grouped(e.src[real], e.dst[real], len(keys), len(keys))
    out_ptr, targets = out_ptr.tolist(), targets.tolist()
    total = pairs = 0
    for root in graph.roots:
        fp = graph.ids.get(NodeKey(root, FIRST_PARTY))
        if fp is None:
            continue
        dist = {fp: 0}
        queue = deque([fp])
        while queue:
            node = queue.popleft()
            for nxt in targets[out_ptr[node]:out_ptr[node + 1]]:
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        for node, d in dist.items():
            if not keys[node].is_first_party():
                total += d
                pairs += 1
    return total / pairs if pairs else 0.0


def stats(graph: WideGraph) -> dict:
    e = graph.edges
    label_counts = np.bincount(e.label, minlength=len(LABELS)).tolist()
    third = graph.third_party_keys()
    rows = []
    for key in third:
        direct, indirect = coverage(graph, key)
        rows.append(
            {
                "domain": key.domain,
                "kind": key.kind,
                "direct": direct,
                "indirect": indirect,
                "in_degree": int(graph.in_degree[graph.ids[key]]),
            }
        )
    rows.sort(key=lambda r: (-r["direct"], -r["indirect"], r["domain"], r["kind"]))
    return {
        "roots": len(graph.roots),
        "nodes": len(graph.nodes),
        "third_party_nodes": len(third),
        "edges": len(e),
        "edge_multiplicity_total": sum(e.mult.tolist()),
        "edges_by_label": {label: n for label, n in zip(LABELS, label_counts) if n},
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
    """Write line-delimited records, deterministically ordered, to ``out``.
    Edge lines come straight from the edge arrays and the site table, a
    block at a time; each node key, label and site name is escaped once."""
    out.write(_HEADER.encode() + b"\n")
    for domain in sorted(graph.roots):
        out.write((_ROOT % _esc(domain)).encode())
    escaped = [(_esc(key.domain), _esc(key.kind)) for key in graph.keys]
    out.write("".join(map(_NODE.__mod__, escaped)).encode())
    pairs = ["[%s, %s]" % pair for pair in escaped]  # by node id
    for block in graph._edge_blocks(pairs, [*map(_esc, LABELS)], [*map(_esc, graph.site_names)]):
        lines = [_EDGE % (lab, m, src, ", ".join(sites), dst) for src, dst, lab, m, sites in block]
        out.write("".join(lines).encode())
    for doc in graph.documents():
        sites = ", ".join(map(_esc, sorted(doc.sites)))
        urls = ", ".join([f"[{_esc(url)}, {n:d}]" for url, n in sorted(doc.urls.items())])
        parent = pairs[graph.ids[doc.parent]]
        out.write((_DOC % (_esc(doc.host), _esc(doc.kind), parent, sites, urls)).encode())


def load_graph(data: bytes, source: str = "graph file") -> WideGraph:
    """The graph in the ``save_graph`` file ``source``, read one line at a
    time (``read_lines``).

    An empty file raises GraphFormatError naming ``source``; a bad or
    repeated record, or a byte that is not UTF-8, raises one naming
    ``source`` and the line. Besides types, the checks are: root
    and node domains are printable and their own registrable domains, node
    kinds are known, edges and documents name loaded nodes, a document is
    on its node's domain and kind, an edge runs into a third party from
    another node, an edge's label is its target's kind or Bounced, a
    Bounced edge leaves a first party, multiplicities and URL
    counts are at least 1, edge and document sites are sorted, distinct
    root names, and a document lists at least one URL, each once, and each
    one ingest accepts (``url_host``) on the document's host. Key order,
    spacing, record order and blank lines are not checked; ``save_graph``
    writes its own layout whatever was read. Nor are empty sites, which
    ``contract_tree`` never writes but which load and re-save as they
    are."""
    graph = WideGraph()
    edges: set[tuple[NodeKey, NodeKey, str]] = set()  # each loaded (src, dst, label)
    lineno = 0
    for lineno, line in read_lines(io.BytesIO(data), source, GraphFormatError):
        try:
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
                if rec["k"] not in NODE_KINDS and rec["k"] != FIRST_PARTY:
                    raise GraphFormatError(f"unknown node kind {rec['k']!r}")
                key = NodeKey(rec["d"], rec["k"])
                if key in graph.nodes:
                    raise GraphFormatError(f"repeated node {tuple(key)}")
                graph.add_node(key)
            elif kind == "edge":
                _load_edge(graph, rec, edges)
            elif kind == "doc":
                _load_doc(graph, rec)
            else:
                raise GraphFormatError(f"unknown record type {kind!r}")
        except GraphFormatError as exc:
            raise GraphFormatError(f"{source}: line {lineno}: {exc}") from None
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise GraphFormatError(f"{source}: line {lineno}: corrupt graph record: {exc}") from exc
    if lineno == 0:
        raise GraphFormatError(f"{source}: empty graph file")
    return graph


def _load_edge(graph: WideGraph, rec: dict, edges: set) -> None:
    """Add one edge record to ``graph``; ``edges`` holds the (src, dst,
    label) of each edge added before."""
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
    if edge in edges:
        raise GraphFormatError(f"repeated edge {tuple(src)} -> {tuple(dst)}")
    mult, sites = rec["m"], rec["sites"]
    if type(mult) is not int or type(sites) is not list or not all(type(s) is str for s in sites):
        raise GraphFormatError("edge multiplicity must be an integer, sites a list of strings")
    if mult < 1:
        raise GraphFormatError(f"edge multiplicity {mult} is below 1")
    _check_sites(graph, "edge", sites)
    edges.add(edge)
    graph.add_edge(src, dst, label, mult, sites)


def _load_doc(graph: WideGraph, rec: dict) -> None:
    """File one document record in ``graph``."""
    parent = graph.nodes.get(NodeKey(*rec["p"]))
    if parent is None:
        raise GraphFormatError("document references unknown node")
    kind = rec["k"]
    if kind not in NODE_KINDS:
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
