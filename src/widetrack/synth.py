"""Seeded synthetic web ecosystems emitted as HAR corpora with ground truth.

The generator tracks its own truth graph (nodes, edges, documents) directly
from its embedding decisions, never through the construction pipeline: it
shares only the graph's storage (``add_node`` and the batch row writer
``add_edges``), so it can serve as an independent oracle for graph
building, coverage, and labeling. Tracker services spray query-heavy URLs
across many sites and load each other per the bounce probability; benign
services serve plain asset URLs on few sites. Every service is additionally pinned to three
deterministic anchor sites so no document falls under the eligibility
floor by bad luck.

It works one site at a time: each step files the site's truth, its edges
in one batch, and yields the site's capture; each document's URLs are
counted in one ``Counter.update`` after the last site. ``generate``
collects every capture; ``stream`` hands them out as they are made, for
``SynthCorpus.write`` to write one at a time.

Each HAR is written from fixed templates that give ``json.dumps``' bytes
(sorted keys, compact separators), and each hex value is one 1024-bit draw
that reads the same Mersenne words, in the same order, as 16 ``choices``
draws; tests/test_synth.py pins the digests of the corpora written.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _esc
from pathlib import Path
from typing import Iterable, Iterator

from .filters import ADTRACKER, BENIGN
from .graph import (
    BOUNCED,
    FIRST_PARTY,
    NodeKey,
    SubdomainDocument,
    WideGraph,
    save_graph,
)
from .pipeline import replaced_when_done

_TRACKER_KINDS = ("script", "script", "other", "media")
_TRACKER_PREFIXES = ("px", "sync", "beacon", "events")
_BENIGN_KINDS = ("media", "script", "iframe")
_BENIGN_PREFIXES = ("static", "cdn", "assets", "img")

_RESOURCE_TYPES = {
    "script": "script",
    "media": "image",
    "iframe": "document",
    "other": "xhr",
    "stylesheet": "stylesheet",  # first-party asset only; classifies as other
}
_MIMES = {
    "script": "application/javascript",
    "media": "image/gif",
    "iframe": "text/html",
    "other": "application/json",
    "stylesheet": "text/css",
}

# A HAR as json.dumps(sort_keys=True, separators=(",", ":")) writes it: keys
# in sorted order, strings escaped by _esc. An entry's first field is its
# _INITIATOR, or nothing for the page itself.
_HAR = '{"log":{"creator":{"name":"widetrack-synth","version":"1"},"entries":[%s],"version":"1.2"}}'
_ENTRY = (
    '{%s"_resourceType":"%s","request":{"method":"GET","url":%s},'
    '"response":{"content":{"mimeType":"%s"},"status":200},'
    '"startedDateTime":"2024-01-01T00:00:00.%06dZ"}'
)
_INITIATOR = '"_initiator":{"type":"%s","url":%s},'

# Shared path/word pool; palettes drawn from it keep most vocabulary terms
# in several documents, so no single document owns an identifying keyword.
_WORD_POOL = tuple(f"w{k:04d}" for k in range(1400))


@dataclass
class EcosystemConfig:
    n_sites: int = 200
    n_trackers: int = 90
    n_benign: int = 60
    tracker_embed_prob: float = 0.35
    benign_embed_prob: float = 0.05
    bounce_prob: float = 0.3
    seed: int = 7

    def validate(self):
        for name in ("n_sites", "n_trackers", "n_benign"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("tracker_embed_prob", "benign_embed_prob", "bounce_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.seed < 0:  # random.Random(-n) draws as Random(n)
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class _Service:
    index: int
    domain: str
    host: str
    kind: str
    tracker: bool
    palette: tuple[str, ...]
    anchors: frozenset[int]
    key: NodeKey


@dataclass(frozen=True)
class SitePlan:
    """Generation-time record of one visit, for brute-force oracles."""

    direct: frozenset
    loads: frozenset  # (loader NodeKey, target NodeKey) pairs


@dataclass
class SynthCorpus:
    config: EcosystemConfig
    har_files: list[tuple[str, bytes]]
    truth_graph: WideGraph
    truth_labels: dict[tuple[str, str], str]
    truth_rules: list[str]
    site_plans: dict[str, SitePlan] = field(default_factory=dict)

    def write(
        self, out_dir: str | Path, captures: Iterable[tuple[str, bytes]] | None = None
    ) -> dict[str, Path]:
        """Write the corpus under ``out_dir``: each of ``captures`` (by
        default ``har_files``) into ``har/`` as it comes, through a ``.part``
        file renamed once whole, then the truth files, which ``stream``'s
        captures finish filing. Refuses, before writing anything, a ``har/``
        holding a capture this corpus does not write, which a run over the
        directory would read but the truth graph lacks."""
        out = Path(out_dir)
        har_dir = out / "har"
        names = {f"{site}.har" for site in _site_names(self.config)}
        stray = sorted(p.name for p in har_dir.glob("*.har") if p.name not in names)
        if stray:
            raise ValueError(f"{har_dir} holds {stray[0]}, a capture this corpus does not write")
        har_dir.mkdir(parents=True, exist_ok=True)
        for name, data in self.har_files if captures is None else captures:
            with replaced_when_done(har_dir / name) as har:
                har.write(data)
        labels_path = out / "truth-labels.tsv"
        labels_path.write_text(
            "".join(
                f"{host}\t{kind}\t{label}\n"
                for (host, kind), label in sorted(self.truth_labels.items())
            ),
            encoding="utf-8",
        )
        rules_path = out / "truth-rules.txt"
        rules_path.write_text("".join(r + "\n" for r in self.truth_rules), encoding="utf-8")
        graph_path = out / "truth-graph.jsonl"
        with graph_path.open("wb") as graph_out:
            save_graph(self.truth_graph, graph_out)
        return {
            "har_dir": har_dir,
            "labels": labels_path,
            "rules": rules_path,
            "graph": graph_path,
        }


def _make_services(config: EcosystemConfig, rng: random.Random) -> list[_Service]:
    services = []
    total = config.n_trackers + config.n_benign
    for idx in range(total):
        tracker = idx < config.n_trackers
        if tracker:
            kind = _TRACKER_KINDS[idx % len(_TRACKER_KINDS)]
            prefix = _TRACKER_PREFIXES[idx % len(_TRACKER_PREFIXES)]
        else:
            j = idx - config.n_trackers
            kind = _BENIGN_KINDS[j % len(_BENIGN_KINDS)]
            prefix = _BENIGN_PREFIXES[j % len(_BENIGN_PREFIXES)]
        domain = f"svc{idx:03d}.net"
        services.append(
            _Service(
                index=idx,
                domain=domain,
                host=f"{prefix}.{domain}",
                kind=kind,
                tracker=tracker,
                palette=tuple(rng.sample(_WORD_POOL, 30)),
                anchors=frozenset((idx * 7 + k) % config.n_sites for k in range(3)),
                key=NodeKey(domain, kind),
            )
        )
    return services


def _fresh_values(rng: random.Random, counter: list[int]) -> tuple[str, str]:
    """Two values, each a serial plus the 16 hex digits
    ``rng.choices("0123456789abcdef", k=16)`` draws: the 32 ``random()``
    calls of two such draws read the 64 words one 2048-bit draw reads, and
    digit j is the top 4 bits of word 2j."""
    n = counter[0] = counter[0] + 2
    digits = rng.getrandbits(2048).to_bytes(256, "little")[3::8].hex()[::2]
    return f"{n - 1:06d}{digits[:16]}", f"{n:06d}{digits[16:]}"


def _service_url(
    svc: _Service, site: str, rng: random.Random, counter: list[int]
) -> str:
    w = rng.choice(svc.palette)
    w2 = rng.choice(svc.palette)
    if svc.tracker:
        v1, v2 = _fresh_values(rng, counter)
        if svc.kind == "script":
            return f"https://{svc.host}/{w}/{w2}.js?id={v1}&uid={v2}&ref={site}"
        if svc.kind == "media":
            return f"https://{svc.host}/{w}/pixel.gif?uid={v1}&ref={site}"
        return f"https://{svc.host}/{w}/collect?uid={v1}&sid={v2}&ref={site}"
    w3 = rng.choice(svc.palette)
    if svc.kind == "media":
        ext = rng.choice(("png", "jpg", "gif", "woff2"))
    elif svc.kind == "script":
        ext = "js"
    else:
        ext = "html"
    return f"https://{svc.host}/{w}/{w2}/{w3}.{ext}"


def _site_names(config: EcosystemConfig) -> list[str]:
    return [f"site{i:03d}.com" for i in range(config.n_sites)]


def _file_site(
    truth: WideGraph,
    fp: NodeKey,
    site: str,
    direct_records: list[tuple[_Service, list[str]]],
    loads: list[tuple[_Service, str, _Service, str]],
    filed: list[tuple[SubdomainDocument, list[str]] | None],
) -> SitePlan:
    """File one site's truth straight from its decisions: its services'
    documents, then its direct, loaded and Bounced edges in one batch.
    ``filed`` holds, by service index, the service's document and its URLs
    so far, which ``_captures`` counts in one ``Counter.update`` after the
    last site. Filing a document adds its service's node, so every key the
    batch names is the graph's own."""
    for svc, urls in direct_records + [(target, (url,)) for _, _, target, url in loads]:
        entry = filed[svc.index]
        if entry is None:
            doc = truth.docs[svc.host, svc.kind] = SubdomainDocument(
                svc.host, svc.kind, Counter(), set(), truth.add_node(svc.key)
            )
            entry = filed[svc.index] = (doc, [])
        entry[0].sites.add(site)
        entry[1].extend(urls)
    direct = [svc.key for svc, _ in direct_records]
    edges = [(fp, svc.key, svc.kind, len(urls)) for svc, urls in direct_records]
    edges += [(loader.key, target.key, target.kind, 1) for loader, _, target, _ in loads]
    bounced = {target.key for _, _, target, _ in loads} - set(direct)
    edges += [(fp, key, BOUNCED, 1) for key in sorted(bounced)]
    if edges:  # a site that embeds no service stays a root with no edges
        truth.add_edges(*zip(*edges), (site,))
    return SitePlan(
        direct=frozenset(direct),
        loads=frozenset((loader.key, target.key) for loader, _, target, _ in loads),
    )


def generate(config: EcosystemConfig) -> SynthCorpus:
    """Emit one HAR per site plus truth labels, rules, and graph."""
    corpus, captures = stream(config)
    corpus.har_files.extend(captures)
    return corpus


def stream(config: EcosystemConfig) -> tuple[SynthCorpus, Iterator[tuple[str, bytes]]]:
    """The corpus of ``config`` with no captures, and an iterator of its
    captures, one a site. The corpus's truth is whole once the iterator is
    spent; ``generate`` draws the same values in the same order."""
    config.validate()
    rng = random.Random(config.seed)
    services = _make_services(config, rng)
    labels = {
        (svc.host, svc.kind): ADTRACKER if svc.tracker else BENIGN for svc in services
    }
    rules = sorted(f"||{svc.host}^" for svc in services if svc.tracker)
    corpus = SynthCorpus(config, [], WideGraph(), labels, rules)
    return corpus, _captures(corpus, services, rng)


def _captures(
    corpus: SynthCorpus, services: list[_Service], rng: random.Random
) -> Iterator[tuple[str, bytes]]:
    """Each site's ``(name, bytes)`` capture, its truth filed in ``corpus``
    before it is yielded; the documents' URL counts follow the last site."""
    config, truth = corpus.config, corpus.truth_graph
    counter = [0]
    trackers = [s for s in services if s.tracker]  # trackers[j].index == j
    filed: list[tuple[SubdomainDocument, list[str]] | None] = [None] * len(services)

    for i, site in enumerate(_site_names(config)):
        page_url = f"https://www.{site}/"
        fp = NodeKey(site, FIRST_PARTY)
        truth.roots.add(site)
        truth.add_node(fp)

        direct_records: list[tuple[_Service, list[str]]] = []
        for svc in services:
            prob = config.tracker_embed_prob if svc.tracker else config.benign_embed_prob
            if i in svc.anchors or rng.random() < prob:
                urls = [
                    _service_url(svc, site, rng, counter)
                    for _ in range(rng.randint(1, 3))
                ]
                direct_records.append((svc, urls))

        loads: list[tuple[_Service, str, _Service, str]] = []
        for loader, urls in direct_records:
            if not (loader.tracker and loader.kind == "script"):
                continue
            if rng.random() >= config.bounce_prob:
                continue
            candidates = trackers[: loader.index] + trackers[loader.index + 1 :]
            if not candidates:
                continue
            for target in rng.sample(candidates, min(rng.randint(1, 2), len(candidates))):
                loads.append((loader, urls[0], target, _service_url(target, site, rng, counter)))
        # Occasional second hop: a bounced script tracker loads one more.
        for loader, _, target, turl in list(loads):
            if target.kind == "script" and rng.random() < config.bounce_prob * 0.5:
                candidates = trackers[: target.index] + trackers[target.index + 1 :]
                if candidates:
                    nxt = rng.choice(candidates)
                    loads.append((target, turl, nxt, _service_url(nxt, site, rng, counter)))

        # --- HAR assembly: (url, kind, initiator) per entry, page first ---
        parser = _INITIATOR % ("parser", _esc(page_url))
        requests = [
            (page_url, "iframe", ""),
            (f"https://www.{site}/assets/site.css", "stylesheet", parser),
            (f"https://static.{site}/logo.png", "media", parser),
        ]
        requests += [(url, svc.kind, parser) for svc, urls in direct_records for url in urls]
        requests += [
            (target_url, target.kind, _INITIATOR % ("script", _esc(loader_url)))
            for _, loader_url, target, target_url in loads
        ]
        entries = ",".join(
            _ENTRY % (initiator, _RESOURCE_TYPES[kind], _esc(url), _MIMES[kind], ts)
            for ts, (url, kind, initiator) in enumerate(requests)
        )
        corpus.site_plans[site] = _file_site(truth, fp, site, direct_records, loads, filed)
        yield f"{site}.har", (_HAR % entries).encode()
    for doc, urls in filter(None, filed):
        doc.urls.update(urls)
