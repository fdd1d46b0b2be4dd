"""The benchmark's workloads and their seeded set-up.

Each workload loads one layer of the pipeline and keeps the others light,
so a change to that layer shows on it and the others predict no change:

- ``graph_dense``: many sites embedding many services, so the wide graph is
  dense (about 21k edges). Structural features and the analysis tables
  rescan the edge list once per node, so this is where their
  O(nodes x edges) cost shows. The rule list is the short, complete truth
  list, so nearly every matcher lookup is a hit and a matcher change must
  cost nothing here.
- ``rules_large``: a small graph labelled against an EasyList-scale list
  (the truth rules minus every 5th tracker, plus about 5k generated rules
  that never change a label). Rule parsing, labelling and candidate
  matching dominate.
- ``docs_noisy``: few sites but many services, so there are many documents
  and training rows. Withheld trackers carry benign list labels, which the
  trees must fit, so forest training and scoring dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from widetrack.filters import ADTRACKER, BENIGN
from widetrack.synth import EcosystemConfig, SynthCorpus, generate

from . import rulegen


@dataclass(frozen=True)
class Workload:
    name: str
    sites: int
    trackers: int
    benign: int
    withhold_every: int  # withhold every n-th tracker rule; 0 keeps all
    extra_rules: int  # generated rules appended to the list


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "graph_dense",
            sites=300,
            trackers=135,
            benign=90,
            withhold_every=0,
            extra_rules=0,
        ),
        Workload(
            "rules_large",
            sites=60,
            trackers=90,
            benign=60,
            withhold_every=5,
            extra_rules=5000,
        ),
        Workload(
            "docs_noisy",
            sites=30,
            trackers=300,
            benign=200,
            withhold_every=5,
            extra_rules=0,
        ),
    )
}


@dataclass
class Prepared:
    """A workload's corpus on disk plus what the oracle needs to judge it."""

    corpus: SynthCorpus
    har_dir: Path
    rules_path: Path
    withheld: set[str]  # tracker hosts whose rule is not on the list
    generated: list[str]  # generated rule lines (empty unless extra_rules)

    def expected_label(self, host: str, kind: str) -> str:
        if host in self.withheld:
            return BENIGN
        return self.corpus.truth_labels[(host, kind)]


def prepare(workload: Workload, seed: int, corpus_dir: Path) -> Prepared:
    """Generate the corpus and rule list from ``seed`` and write them."""
    corpus = generate(
        EcosystemConfig(
            n_sites=workload.sites,
            n_trackers=workload.trackers,
            n_benign=workload.benign,
            seed=seed,
        )
    )
    trackers = sorted(
        host for (host, _), label in corpus.truth_labels.items() if label == ADTRACKER
    )
    withheld = (
        set(trackers[:: workload.withhold_every]) if workload.withhold_every else set()
    )
    rules = [r for r in corpus.truth_rules if r[2:-1] not in withheld]
    generated = []
    if workload.extra_rules:
        docs = corpus.truth_graph.documents()
        words = {
            urlsplit(url).path.split("/")[1] for doc in docs for url in doc.urls
        }
        generated = rulegen.generate_rules(
            workload.extra_rules, [d.host for d in docs], sorted(words), seed
        )
    paths = corpus.write(corpus_dir)
    rules_path = corpus_dir / "rules.txt"
    rules_path.write_text("".join(r + "\n" for r in rules + generated), encoding="utf-8")
    return Prepared(corpus, paths["har_dir"], rules_path, withheld, generated)


def corpus_urls(corpus: SynthCorpus) -> list[str]:
    return [url for doc in corpus.truth_graph.documents() for url in doc.urls]
