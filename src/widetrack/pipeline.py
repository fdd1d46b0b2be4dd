"""End-to-end orchestration: eligibility filtering, train/test splitting,
biased/unbiased/corrected metrics, reports, and candidate-rule emission.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import content as content_mod
from . import forest as forest_mod
from . import structural as structural_mod
from .domains import registrable_domain
from .filters import (
    ADTRACKER,
    BENIGN,
    Label,
    RuleSet,
    document_block_matched,
    label_document,
    parse_overrides,
    parse_rules,
)
from .graph import (
    GraphIndex,
    NodeKey,
    SubdomainDocument,
    build_widegraph,
    coverage_counts,
    save_graph,
)
from .ingest import build_tree, parse_har, write_trees

CLASS_NAMES = (BENIGN, ADTRACKER)


class DataError(Exception):
    """Input data is unusable; distinct from usage errors for exit codes."""


def filter_eligible(
    index: GraphIndex, min_in_degree: int
) -> tuple[list[SubdomainDocument], dict]:
    """Documents whose parent node has at least ``min_in_degree`` distinct
    in-edges, plus a (total, removed, kept) report."""
    docs = index.graph.documents()
    kept = [d for d in docs if len(index.in_edges[d.parent]) >= min_in_degree]
    report = {"total": len(docs), "kept": len(kept), "removed": len(docs) - len(kept)}
    return kept, report


def _shuffle_split(
    keys: list[tuple[str, str]], fraction: float, seed: int
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """Deterministic shuffle; the first ceil(fraction * n) go to train."""
    if not 0.0 < fraction < 1.0:
        raise DataError("train fraction must be in (0, 1)")
    if len(keys) < 2:
        raise DataError("need at least 2 documents to split")
    ordered = sorted(keys)
    random.Random(seed).shuffle(ordered)
    n_train = math.ceil(fraction * len(ordered))
    return ordered[:n_train], ordered[n_train:]


def split_keys(
    keys: list[tuple[str, str]],
    cfg: PipelineConfig,
    labels: dict[tuple[str, str], Label] | None = None,
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """The train/test split of document keys by ``cfg.train_frac`` and
    ``cfg.split_seed``; independent of the order of ``keys``.

    With ``cfg.stratified`` each class is split on its own (a class of one
    goes to train), which needs ``labels``.
    """
    if not cfg.stratified:
        return _shuffle_split(keys, cfg.train_frac, cfg.split_seed)
    if labels is None:
        raise DataError("stratified split needs labels")
    for host, kind in keys:
        if (host, kind) not in labels:
            raise DataError(f"document {host} ({kind}) has no label")
    train: list[tuple[str, str]] = []
    test: list[tuple[str, str]] = []
    for cls in CLASS_NAMES:
        group = [k for k in keys if labels[k].label == cls]
        if len(group) == 1:
            train.extend(group)
        elif group:
            tr, te = _shuffle_split(group, cfg.train_frac, cfg.split_seed)
            train.extend(tr)
            test.extend(te)
    return train, test


def split_documents(
    docs: list[SubdomainDocument],
    cfg: PipelineConfig,
    labels: dict[tuple[str, str], Label] | None = None,
) -> tuple[list[SubdomainDocument], list[SubdomainDocument]]:
    """``split_keys`` over documents: (train documents, test documents)."""
    by_key = {(d.host, d.kind): d for d in docs}
    train_keys, test_keys = split_keys(list(by_key), cfg, labels)
    return [by_key[k] for k in train_keys], [by_key[k] for k in test_keys]


@dataclass
class MetricsReport:
    mode: str  # "biased" or "unbiased"
    corrected: bool
    confusion: dict[str, dict[str, float]]  # confusion[true][pred] = weight
    precision: dict[str, float]
    recall: dict[str, float]
    macro_precision: float
    macro_recall: float
    accuracy: float
    total_weight: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        title = f"{self.mode} metrics" + (" (corrected)" if self.corrected else "")
        lines = [title, "-" * len(title)]
        lines.append(f"{'class':<12} {'precision':>10} {'recall':>10}")
        for cls in (ADTRACKER, BENIGN):
            lines.append(
                f"{cls:<12} {self.precision[cls]:>10.4f} {self.recall[cls]:>10.4f}"
            )
        lines.append(
            f"{'macro avg':<12} {self.macro_precision:>10.4f} {self.macro_recall:>10.4f}"
        )
        lines.append(f"accuracy     {self.accuracy:.4f}  (weight {self.total_weight:g})")
        return "\n".join(lines)


def compute_metrics(
    rows: list[tuple[str, str, float]], mode: str, corrected: bool
) -> MetricsReport:
    """Weighted confusion metrics over (true, predicted, weight) rows."""
    confusion = {t: {p: 0.0 for p in CLASS_NAMES} for t in CLASS_NAMES}
    for truth, pred, weight in rows:
        confusion[truth][pred] += weight
    total = sum(sum(row.values()) for row in confusion.values())
    precision = {}
    recall = {}
    for cls in CLASS_NAMES:
        predicted = sum(confusion[t][cls] for t in CLASS_NAMES)
        actual = sum(confusion[cls].values())
        precision[cls] = confusion[cls][cls] / predicted if predicted else 0.0
        recall[cls] = confusion[cls][cls] / actual if actual else 0.0
    diagonal = sum(confusion[c][c] for c in CLASS_NAMES)
    return MetricsReport(
        mode=mode,
        corrected=corrected,
        confusion=confusion,
        precision=precision,
        recall=recall,
        macro_precision=sum(precision.values()) / len(CLASS_NAMES),
        macro_recall=sum(recall.values()) / len(CLASS_NAMES),
        accuracy=diagonal / total if total else 0.0,
        total_weight=total,
    )


def evaluate(
    predictions: dict[tuple[str, str], tuple[int, float]],
    test_docs: list[SubdomainDocument],
    labels: dict[tuple[str, str], Label],
    mode: str,
    weight_by: str,
    overrides: dict[str, str] | None = None,
) -> MetricsReport:
    """Weighted metrics over already-computed predictions.

    Biased mode weights each document by how many first parties reached it
    (or by raw URL count with ``weight_by="urls"``); unbiased gives every
    document weight 1. Overrides re-label before scoring (corrected report).
    """
    if mode not in ("biased", "unbiased"):
        raise DataError(f"unknown metrics mode {mode!r}")
    if weight_by not in ("sites", "urls"):
        raise DataError(f"unknown weighting {weight_by!r}")
    rows = []
    for doc in test_docs:
        key = (doc.host, doc.kind)
        if key not in labels:
            raise DataError(f"document {doc.host} ({doc.kind}) has no label")
        if key not in predictions:
            raise DataError(f"document {doc.host} ({doc.kind}) has no prediction")
        pred, _ = predictions[key]
        truth = labels[key].label
        if overrides and doc.host in overrides:
            truth = overrides[doc.host]
        if mode == "unbiased":
            weight = 1.0
        elif weight_by == "sites":
            weight = float(len(doc.sites))
        else:
            weight = float(sum(doc.urls.values()))
        rows.append((truth, CLASS_NAMES[pred], weight))
    return compute_metrics(rows, mode, corrected=overrides is not None)


def evaluate_all(
    predictions: dict[tuple[str, str], tuple[int, float]],
    test_docs: list[SubdomainDocument],
    labels: dict[tuple[str, str], Label],
    cfg: PipelineConfig,
    overrides: dict[str, str] | None = None,
) -> dict[str, MetricsReport]:
    """The report set: unbiased and biased metrics, and the same two
    corrected by ``overrides`` when there are any."""
    variants = [("", None)] + ([("corrected_", overrides)] if overrides else [])
    return {
        f"{prefix}{mode}": evaluate(
            predictions, test_docs, labels, mode, cfg.weight_by, corrected
        )
        for prefix, corrected in variants
        for mode in ("unbiased", "biased")
    }


def reports_text(reports: dict[str, MetricsReport]) -> str:
    return "\n\n".join(rep.to_text() for rep in reports.values())


def emit_candidate_rules(
    index: GraphIndex,
    scored: list[tuple[SubdomainDocument, int, float]],
    rules: RuleSet,
) -> str:
    """Block-rule lines for predicted AdTrackers the lists do not yet hit."""
    selected = []
    for doc, pred, score in scored:
        if pred != 1:
            continue
        if document_block_matched(rules, doc):
            continue
        d, i, n = coverage_counts(index, doc.parent)
        selected.append((score, doc.host, d / n if n else 0.0, i / n if n else 0.0))
    selected.sort(key=lambda s: (-s[0], s[1]))
    lines = [
        "! widetrack candidate rules",
        f"! {len(selected)} candidate(s), sorted by model score",
    ]
    for score, host, direct, indirect in selected:
        lines.append(
            f"! score={score:.4f} direct_coverage={direct:.4f} indirect_coverage={indirect:.4f}"
        )
        lines.append(f"||{host}^")
    return "\n".join(lines) + "\n"


_DEGREE_BUCKETS = ((1, 1), (2, 3), (4, 7), (8, 15), (16, 31), (32, 63), (64, None))


def coverage_ccdf(values: list[float]) -> list[dict]:
    """Share of values at or above each distinct value, ascending."""
    values = sorted(values)
    n = len(values)
    return [
        {"coverage": v, "ccdf": (n - bisect_left(values, v)) / n}
        for v in sorted(set(values))
    ]


def analysis_tables(
    index: GraphIndex,
    docs: list[SubdomainDocument],
    labels: dict[tuple[str, str], Label],
    vocabulary: content_mod.Vocabulary | None = None,
    doc_terms: dict[tuple[str, str], frozenset[str]] | None = None,
    top_terms: int = 20,
) -> dict:
    """Degree-bucket class mix, coverage CCDF points, keyword rates.

    ``doc_terms`` maps each document's (host, kind) to the vocabulary terms
    it contains, as ``content_rows`` returns them; keyword rates need it
    along with ``vocabulary``.
    """
    classes = [labels[(doc.host, doc.kind)].label for doc in docs]
    degrees = [index.degree(doc.parent) for doc in docs]

    def bucket_name(lo, hi):
        return f"{lo}+" if hi is None else (f"{lo}" if lo == hi else f"{lo}-{hi}")

    buckets = []
    for lo, hi in _DEGREE_BUCKETS:
        n_ad = n_benign = 0
        for deg, cls in zip(degrees, classes):
            if deg >= lo and (hi is None or deg <= hi):
                if cls == ADTRACKER:
                    n_ad += 1
                else:
                    n_benign += 1
        total = n_ad + n_benign
        buckets.append(
            {
                "bucket": bucket_name(lo, hi),
                "adtracker": n_ad,
                "benign": n_benign,
                "adtracker_share": n_ad / total if total else 0.0,
            }
        )

    n_roots = len(index.graph.roots)
    direct = [coverage_counts(index, doc.parent)[0] / n_roots for doc in docs]
    ccdf = {
        cls: coverage_ccdf([v for v, c in zip(direct, classes) if c == cls])
        for cls in CLASS_NAMES
    }

    keywords = []
    if vocabulary is not None:
        by_class = {cls: [] for cls in CLASS_NAMES}
        for doc, cls in zip(docs, classes):
            by_class[cls].append(doc_terms[(doc.host, doc.kind)])
        for term in vocabulary.terms[:top_terms]:
            rates = {
                cls: (
                    sum(1 for terms in group if term in terms) / len(group)
                    if group
                    else 0.0
                )
                for cls, group in by_class.items()
            }
            keywords.append({"term": term, **rates})

    return {"degree_buckets": buckets, "direct_coverage_ccdf": ccdf, "top_keywords": keywords}


# --- flat-file interfaces shared by the CLI subcommands ---


_LABELS_HEADER = ["host", "kind", "label", "source"]
_SCORES_HEADER = ["host", "kind", "prediction", "score", "basis"]


def _read_table(data: bytes, what: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """(header cells, [(line number, cells)] of each non-empty row) of a
    TSV table; a row whose column count differs from the header's is a
    DataError that names its line."""
    lines = data.decode("utf-8").splitlines()
    if not lines:
        raise DataError(f"empty {what}")
    header = lines[0].split("\t")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise DataError(
                f"bad {what} row on line {lineno}: {len(cells)} columns, expected {len(header)}"
            )
        rows.append((lineno, cells))
    return header, rows


def write_labels_file(labels: dict[tuple[str, str], Label]) -> bytes:
    lines = ["\t".join(_LABELS_HEADER)]
    for (host, kind) in sorted(labels):
        lab = labels[(host, kind)]
        lines.append(f"{host}\t{kind}\t{lab.label}\t{lab.source}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_labels_file(data: bytes) -> dict[tuple[str, str], Label]:
    header, rows = _read_table(data, "labels file")
    if header != _LABELS_HEADER:
        raise DataError("unrecognized labels file header")
    out = {}
    for lineno, (host, kind, label, source) in rows:
        if label not in CLASS_NAMES:
            raise DataError(f"unknown label {label!r} for {host} on line {lineno}")
        out[(host, kind)] = Label(label, source)
    return out


def write_scores_file(rows: list[tuple[str, str, int, float, str]]) -> bytes:
    lines = ["\t".join(_SCORES_HEADER)]
    for host, kind, pred, score, basis in sorted(rows):
        lines.append(f"{host}\t{kind}\t{CLASS_NAMES[pred]}\t{score!r}\t{basis}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_scores_file(data: bytes) -> dict[tuple[str, str], tuple[int, float]]:
    header, rows = _read_table(data, "scores file")
    if header != _SCORES_HEADER:
        raise DataError("unrecognized scores file header")
    out = {}
    for lineno, (host, kind, pred, score, _) in rows:
        if pred not in CLASS_NAMES:
            raise DataError(f"unknown prediction {pred!r} for {host} on line {lineno}")
        try:
            value = float(score)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise DataError(f"bad score {score!r} for {host} on line {lineno}")
        out[(host, kind)] = (CLASS_NAMES.index(pred), value)
    return out


def write_content_matrix(
    keys: list[tuple[str, str]], columns: list[str], values: np.ndarray
) -> bytes:
    """Content feature table; the exact inverse of read_content_matrix."""
    lines = ["\t".join(["host", "kind", *columns])]
    for (host, kind), row in zip(keys, values):
        lines.append("\t".join([host, kind] + [repr(v) for v in row.tolist()]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _read_matrix(data: bytes, what: str, key_header: list[str]):
    """(row keys, value columns, values) of a feature table whose first two
    columns are ``key_header`` and the rest finite floats; a bad row is a
    DataError that names its line."""
    header, rows = _read_table(data, what)
    if header[:2] != key_header:
        raise DataError(f"unrecognized {what} header")
    values = np.zeros((len(rows), len(header) - 2))
    for i, (lineno, cells) in enumerate(rows):
        try:
            values[i] = [float(c) for c in cells[2:]]
            finite = np.isfinite(values[i]).all()
        except ValueError:
            finite = False
        if not finite:
            raise DataError(f"bad {what} value on line {lineno}")
    return [(cells[0], cells[1]) for _, cells in rows], header[2:], values


def read_content_matrix(data: bytes):
    """Returns (keys, columns, values) from a content feature table."""
    return _read_matrix(data, "content matrix", ["host", "kind"])


def read_struct_matrix(data: bytes) -> structural_mod.StructMatrix:
    """Structural feature table; the inverse of structural.save_struct_matrix."""
    keys, columns, values = _read_matrix(data, "structural matrix", ["domain", "kind"])
    return structural_mod.StructMatrix(
        keys=[NodeKey(domain, kind) for domain, kind in keys],
        columns=columns,
        generations=[structural_mod.generation_of(c) for c in columns],
        values=values,
    )


# --- configuration and the full run ---

def _to_bool(value: str) -> bool:
    return value.lower() in ("1", "true", "yes", "on")


def _to_optional_int(value: str) -> int | None:
    if value in ("", "None", "none"):
        return None
    return int(value)


# Config-file value conversions, keyed by a dataclass field's annotation.
_CONVERTERS = {
    "Path": Path,
    "Path | None": lambda v: Path(v) if v else None,
    "list[Path]": lambda v: [Path(p) for p in v.split()],
    "str": str,
    "int": int,
    "int | None": _to_optional_int,
    "float": float,
    "bool": _to_bool,
}


def _read_utf8(path: str | Path) -> str:
    """A text file's contents; a byte that is not UTF-8 raises DataError
    naming the file and its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        byte = data[exc.start]
        raise DataError(f"{path}: line {lineno}: byte {byte:#04x} is not UTF-8") from None


def load_config(cls, path: str | Path | None):
    """Build dataclass ``cls`` from ``key = value`` lines ('#' comments);
    a key the file leaves out, or every key when ``path`` is None, keeps
    its field default. Each value is converted by its field's annotation.
    """
    types = {f.name: f.type for f in fields(cls)}
    values = {}
    lines = _read_utf8(path).splitlines() if path is not None else []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"bad config line {lineno}: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise DataError(f"unknown config key {key!r}")
        values[key] = _CONVERTERS[types[key]](value)
    return cls(**values)


@dataclass
class PipelineConfig:
    har_dir: Path = Path()
    rules_files: list[Path] = field(default_factory=list)
    out_dir: Path = Path("out")
    overrides_file: Path | None = None
    vocab_size: int = 1000
    vocab_rank: str = "df"
    clamp_idf: bool = False
    refex_depth: int = 2
    prune_threshold: float = 0.95
    directed_neighbors: bool = False
    n_trees: int = 250
    mtry: int | None = None
    max_depth: int | None = None
    forest_seed: int = 29
    train_frac: float = 0.8
    split_seed: int = 13
    stratified: bool = False
    min_in_degree: int = 3
    weight_by: str = "sites"


# --- the stages; run_all and each staged CLI subcommand call these ---


def ingest_har_dir(har_dir: str | Path):
    """Parse every *.har under the directory into dependency trees."""
    paths = sorted(Path(har_dir).glob("*.har"))
    if not paths:
        raise DataError(f"no .har files under {har_dir}")
    trees = []
    skip_total: Counter = Counter()
    for path in paths:
        record = parse_har(path.read_bytes())
        skip_total.update(record.skipped)
        trees.append(build_tree(record))
    return trees, skip_total


def structural_matrix(index: GraphIndex, cfg: PipelineConfig) -> structural_mod.StructMatrix:
    """Base features of every third-party node plus ``cfg.refex_depth``
    levels of pruned neighbourhood aggregates."""
    return structural_mod.refex_expand(
        structural_mod.build_base_matrix(index),
        index,
        depth=cfg.refex_depth,
        threshold=cfg.prune_threshold,
        directed=cfg.directed_neighbors,
    )


def read_rules(paths) -> RuleSet:
    """One rule set from the concatenated filter-list files."""
    return parse_rules("\n".join(_read_utf8(p) for p in paths))


def read_overrides(path: str | Path | None) -> dict[str, str] | None:
    if path is None:
        return None
    return parse_overrides(_read_utf8(path))


def content_features(
    eligible: list[SubdomainDocument],
    train_docs: list[SubdomainDocument],
    cfg: PipelineConfig,
):
    """(vocabulary, content_rows of ``eligible``): the vocabulary is built
    from the training documents only."""
    vocabulary = content_mod.build_vocabulary(train_docs, cfg.vocab_size, cfg.vocab_rank)
    return vocabulary, content_mod.content_rows(eligible, vocabulary, cfg.clamp_idf)


def assemble_all_vectors(
    keys: list[tuple[str, str]],
    content_values: np.ndarray,
    struct_matrix: structural_mod.StructMatrix,
) -> dict[tuple[str, str], np.ndarray]:
    """Join content rows (host-keyed) with their parent node's structural
    row into per-document vectors ordered [keywords | engineered | structural]."""
    width = content_values.shape[1]
    matrix = np.empty((len(keys), width + len(struct_matrix.columns)))
    matrix[:, :width] = content_values
    for i, (host, kind) in enumerate(keys):
        matrix[i, width:] = struct_matrix.row(NodeKey(registrable_domain(host), kind))
    return {key: matrix[i] for i, key in enumerate(keys)}


def train_forest(
    vectors: dict[tuple[str, str], np.ndarray],
    train_keys: list[tuple[str, str]],
    labels: dict[tuple[str, str], Label],
    cfg: PipelineConfig,
) -> tuple[forest_mod.ForestModel, np.ndarray]:
    """The forest trained on ``train_keys`` (in that row order) with the
    config's forest parameters, and its training matrix."""
    X = np.vstack([vectors[k] for k in train_keys])
    y = np.array([CLASS_NAMES.index(labels[k].label) for k in train_keys])
    params = forest_mod.ForestParams(
        n_trees=cfg.n_trees,
        mtry=cfg.mtry,
        max_depth=cfg.max_depth,
        seed=cfg.forest_seed,
    )
    try:
        return forest_mod.train(X, y, params), X
    except forest_mod.ForestError as exc:
        raise DataError(str(exc)) from exc


def run_all(cfg: PipelineConfig) -> dict:
    """Full run: ingest -> graph -> features -> label -> train -> report."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    trees, skip_total = ingest_har_dir(cfg.har_dir)
    (out / "trees.jsonl").write_bytes(write_trees(trees))
    graph = build_widegraph(trees)
    (out / "graph.jsonl").write_bytes(save_graph(graph))
    index = GraphIndex(graph)

    struct = structural_matrix(index, cfg)
    (out / "structural.tsv").write_bytes(structural_mod.save_struct_matrix(struct))

    eligible, elig_report = filter_eligible(index, cfg.min_in_degree)
    if len(eligible) < 2:
        raise DataError("fewer than 2 eligible documents; nothing to learn from")

    ruleset = read_rules(cfg.rules_files)
    overrides = read_overrides(cfg.overrides_file)
    labels = {(d.host, d.kind): label_document(ruleset, d) for d in eligible}
    (out / "labels.tsv").write_bytes(write_labels_file(labels))

    train_docs, test_docs = split_documents(eligible, cfg, labels)
    vocabulary, (keys, columns, content_values, doc_terms) = content_features(
        eligible, train_docs, cfg
    )
    (out / "vocabulary.tsv").write_bytes(content_mod.save_vocabulary(vocabulary))
    (out / "content.tsv").write_bytes(
        write_content_matrix(keys, columns, content_values)
    )
    vectors = assemble_all_vectors(keys, content_values, struct)
    del content_values  # the vectors now hold the only copy

    model, X_train = train_forest(
        vectors, [(d.host, d.kind) for d in train_docs], labels, cfg
    )
    (out / "model.txt").write_bytes(forest_mod.save_model(model))

    # Training rows are scored out-of-bag: a fully grown forest memorizes its
    # training labels, which would mask any list-label disagreement there and
    # hide exactly the unlisted trackers candidate emission exists to find.
    oob_labels, oob_scores = forest_mod.oob_predict(model, X_train)
    predictions = {
        (d.host, d.kind): (int(oob_labels[i]), float(oob_scores[i]))
        for i, d in enumerate(train_docs)
    }
    full_keys = [key for key in keys if key not in predictions]
    if full_keys:
        full_labels, full_scores = forest_mod.predict(
            model, np.vstack([vectors[k] for k in full_keys])
        )
        predictions.update(
            (key, (int(pred), float(score)))
            for key, pred, score in zip(full_keys, full_labels, full_scores)
        )
    full = set(full_keys)
    scored_docs = [(d, *predictions[(d.host, d.kind)]) for d in eligible]
    score_rows = [
        (d.host, d.kind, pred, score, "full" if (d.host, d.kind) in full else "oob")
        for d, pred, score in scored_docs
    ]
    (out / "scores.tsv").write_bytes(write_scores_file(score_rows))

    reports = evaluate_all(predictions, test_docs, labels, cfg, overrides)

    candidates = emit_candidate_rules(index, scored_docs, ruleset)
    (out / "candidate-rules.txt").write_text(candidates, encoding="utf-8")

    names = content_mod.feature_names(vocabulary, struct.columns)
    importance = [
        {"feature": names[f], "importance": imp}
        for f, imp in forest_mod.feature_importance(model)[:25]
    ]
    summary = {
        "sites": len(trees),
        "ingest_skips": dict(sorted(skip_total.items())),
        "eligibility": elig_report,
        "split": {"train": len(train_docs), "test": len(test_docs)},
        "rules": {
            "parsed": ruleset.rule_count,
            "skipped": dict(sorted(ruleset.skip_report.items())),
        },
        "label_counts": dict(
            Counter(lab.label for lab in labels.values()).most_common()
        ),
        "reports": {name: rep.to_dict() for name, rep in reports.items()},
        "feature_importance": importance,
        "analysis": analysis_tables(
            index, eligible, labels, vocabulary, dict(zip(keys, doc_terms))
        ),
    }
    (out / "report.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8"
    )
    (out / "report.txt").write_text(reports_text(reports) + "\n", encoding="utf-8")
    return summary
