"""Checks of a run's artifacts against the generator's truth, and the
quality metrics read off them."""

from __future__ import annotations

import json
from pathlib import Path

from widetrack.filters import ADTRACKER
from widetrack.graph import load_graph
from widetrack.pipeline import read_labels_file

from .rulegen import expected_skips
from .workloads import Prepared


def check_artifacts(out: Path, prepared: Prepared) -> list[str]:
    """Problems found in one run's artifacts; empty when they are correct."""
    problems = []
    corpus = prepared.corpus
    if load_graph((out / "graph.jsonl").read_bytes()) != corpus.truth_graph:
        problems.append("graph.jsonl does not load equal to the truth graph")

    labels = read_labels_file((out / "labels.tsv").read_bytes())
    if set(labels) != set(corpus.truth_labels):
        problems.append("labels.tsv does not label exactly the generated services")
    wrong = sorted(
        f"{host} ({kind})"
        for (host, kind), lab in labels.items()
        if (host, kind) in corpus.truth_labels
        and lab.label != prepared.expected_label(host, kind)
    )
    if wrong:
        problems.append(
            f"{len(wrong)} list label(s) differ from the expected: {', '.join(wrong[:5])}"
        )

    lines = [
        line.strip()
        for line in prepared.rules_path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    skips = {k: v for k, v in expected_skips(lines).items() if v}
    rules = json.loads((out / "report.json").read_text(encoding="utf-8"))["rules"]
    if rules["skipped"] != skips or rules["parsed"] != len(lines) - sum(skips.values()):
        problems.append(
            f"rule counts {rules} differ from the list's "
            f"(parsed {len(lines) - sum(skips.values())}, skipped {skips})"
        )
    return problems


def quality(out: Path, prepared: Prepared) -> dict[str, float]:
    """Accuracy against truth and lists, and candidate-rule quality.

    With nothing withheld, recall reads 1.0 (no withheld host was missed);
    with no candidate emitted, precision reads 1.0 (no wrong candidate), so
    a single wrong candidate where none belong drops it to 0.
    """
    truth = prepared.corpus.truth_labels
    test = []
    for line in (out / "scores.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        host, kind, prediction, _, basis = line.split("\t")
        if basis == "full":  # test split; training rows are scored out-of-bag
            test.append(prediction == truth[(host, kind)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    candidates = {
        line[2:-1]
        for line in (out / "candidate-rules.txt").read_text(encoding="utf-8").splitlines()
        if line.startswith("||")
    }
    trackers = {host for (host, _), label in truth.items() if label == ADTRACKER}
    withheld = prepared.withheld
    return {
        "truth_accuracy": sum(test) / len(test),
        "list_accuracy": report["reports"]["unbiased"]["accuracy"],
        "discovery_recall": len(withheld & candidates) / len(withheld) if withheld else 1.0,
        "candidate_precision": (
            len(candidates & trackers) / len(candidates) if candidates else 1.0
        ),
    }
