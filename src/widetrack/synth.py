"""Seeded synthetic web ecosystems emitted as HAR corpora with ground truth.

The generator tracks its own truth graph (nodes, edges, documents) directly
from its embedding decisions, never through the construction pipeline: it
shares only the graph's storage (``add_node``, ``add_edge``), so it can serve as an independent oracle for graph building, coverage, and
labeling. Tracker services spray query-heavy URLs across many sites and
load each other per the bounce probability; benign services serve plain
asset URLs on few sites. Every service is additionally pinned to three
deterministic anchor sites so no document falls under the eligibility
floor by bad luck.

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

from .filters import ADTRACKER, BENIGN
from .graph import (
    BOUNCED,
    FIRST_PARTY,
    NodeKey,
    SubdomainDocument,
    WideGraph,
    save_graph,
)

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

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        """Write the corpus under ``out_dir``. Refuses, before writing
        anything, a ``har/`` holding a capture this corpus does not write,
        which a run over the directory would read but the truth graph lacks."""
        out = Path(out_dir)
        har_dir = out / "har"
        names = {name for name, _ in self.har_files}
        stray = sorted(p.name for p in har_dir.glob("*.har") if p.name not in names)
        if stray:
            raise ValueError(f"{har_dir} holds {stray[0]}, a capture this corpus does not write")
        har_dir.mkdir(parents=True, exist_ok=True)
        for name, data in self.har_files:
            (har_dir / name).write_bytes(data)
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


def _fresh_value(rng: random.Random, counter: list[int]) -> str:
    """A serial plus the 16 hex digits ``rng.choices("0123456789abcdef", k=16)``
    draws: its 16 ``random()`` calls read the 32 words one 1024-bit draw
    reads, and digit j is the top 4 bits of word 2j."""
    counter[0] += 1
    return f"{counter[0]:06d}" + rng.getrandbits(1024).to_bytes(128, "little")[3::8].hex()[::2]


def _service_url(
    svc: _Service, site: str, rng: random.Random, counter: list[int]
) -> str:
    w = rng.choice(svc.palette)
    w2 = rng.choice(svc.palette)
    if svc.tracker:
        v1 = _fresh_value(rng, counter)
        v2 = _fresh_value(rng, counter)
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


def _touch_doc(truth: WideGraph, svc: _Service, url: str, site: str):
    doc = truth.docs.get((svc.host, svc.kind))
    if doc is None:
        doc = truth.docs[svc.host, svc.kind] = SubdomainDocument(
            svc.host, svc.kind, Counter(), set(), truth.add_node(svc.key)
        )
    doc.urls[url] += 1
    doc.sites.add(site)


def generate(config: EcosystemConfig) -> SynthCorpus:
    """Emit one HAR per site plus truth labels, rules, and graph."""
    config.validate()
    rng = random.Random(config.seed)
    counter = [0]
    services = _make_services(config, rng)
    trackers = [s for s in services if s.tracker]  # trackers[j].index == j
    sites = [f"site{i:03d}.com" for i in range(config.n_sites)]

    truth = WideGraph()
    har_files: list[tuple[str, bytes]] = []
    plans: dict[str, SitePlan] = {}

    for i, site in enumerate(sites):
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
        har_files.append((f"{site}.har", (_HAR % entries).encode()))

        # --- truth bookkeeping, straight from the decisions above ---
        direct_keys = set()
        for svc, urls in direct_records:
            direct_keys.add(svc.key)
            truth.add_edge(fp, svc.key, svc.kind, len(urls), (site,))
            for url in urls:
                _touch_doc(truth, svc, url, site)
        reached = set(direct_keys)
        load_pairs = set()
        for loader, _, target, target_url in loads:
            reached.add(target.key)
            load_pairs.add((loader.key, target.key))
            truth.add_edge(loader.key, target.key, target.kind, 1, (site,))
            _touch_doc(truth, target, target_url, site)
        for key in sorted(reached - direct_keys):
            truth.add_edge(fp, key, BOUNCED, 1, (site,))
        plans[site] = SitePlan(
            direct=frozenset(direct_keys), loads=frozenset(load_pairs)
        )

    labels = {
        (svc.host, svc.kind): ADTRACKER if svc.tracker else BENIGN for svc in services
    }
    rules = sorted(f"||{svc.host}^" for svc in trackers)
    return SynthCorpus(
        config=config,
        har_files=har_files,
        truth_graph=truth,
        truth_labels=labels,
        truth_rules=rules,
        site_plans=plans,
    )
