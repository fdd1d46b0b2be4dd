"""End-to-end orchestration: eligibility filtering, train/test splitting,
biased/unbiased/corrected metrics, reports, and candidate-rule emission.
"""

from __future__ import annotations

import io
import json
import math
import random
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Iterator

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
    parse_rules,
)
from .forest import CLASSES, ForestParams
from .graph import (
    GraphIndex,
    NodeKey,
    SubdomainDocument,
    WideGraph,
    build_widegraph,
    collector_paused,
    coverage,
    coverage_counts,
    save_graph,
)
from .ingest import TREES_HEADER, DependencyTree, build_tree, parse_har, tree_line
from .lines import read_lines


class DataError(Exception):
    """Input data is unusable; distinct from usage errors for exit codes."""


# A document's (host, kind): the key of its row in every per-document file.
doc_key = attrgetter("host", "kind")


def filter_eligible(
    index: GraphIndex, min_in_degree: int
) -> tuple[list[SubdomainDocument], dict]:
    """Documents whose parent node has at least ``min_in_degree`` distinct
    in-edges, plus a (total, removed, kept) report. The kept documents, in
    ``doc_key`` order, are the rows of every per-document list and file."""
    docs = index.graph.docs
    kept = [docs[k] for k in sorted(docs) if index.in_degree[docs[k].parent] >= min_in_degree]
    report = {"total": len(docs), "kept": len(kept), "removed": len(docs) - len(kept)}
    return kept, report


def aligned(keys: list[tuple[str, str]], table: dict, what: str) -> list:
    """``table``'s entry for each key, in order: a (host, kind)-keyed file
    joined onto the rows; a missing key is a DataError naming the document."""
    for host, kind in keys:
        if (host, kind) not in table:
            raise DataError(f"document {host} ({kind}) has no {what}")
    return [table[key] for key in keys]


def _shuffle_split(rows: list[int], fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Deterministic shuffle; the first ceil(fraction * n) go to train."""
    if len(rows) < 2:
        raise DataError("need at least 2 documents to split")
    shuffled = list(rows)
    random.Random(seed).shuffle(shuffled)
    n_train = math.ceil(fraction * len(shuffled))
    return shuffled[:n_train], shuffled[n_train:]


def split_keys(
    keys: list[tuple[str, str]],
    cfg: PipelineConfig,
    labels: list[Label] | None = None,
) -> tuple[list[int], list[int]]:
    """(train rows, test rows): the indices into ``keys`` split by
    ``cfg.train_frac`` and ``cfg.split_seed``. The rows are shuffled in key
    order, so one set of keys splits the same way in any order.

    With ``cfg.stratified`` each class is split on its own (a class of one
    goes to train), which needs ``labels``, one per key.
    """
    rows = sorted(range(len(keys)), key=keys.__getitem__)
    if not cfg.stratified:
        return _shuffle_split(rows, cfg.train_frac, cfg.split_seed)
    if labels is None:
        raise DataError("stratified split needs labels")
    train: list[int] = []
    test: list[int] = []
    for cls in CLASSES:
        group = [i for i in rows if labels[i].label == cls]
        if len(group) == 1:
            train.extend(group)
        elif group:
            tr, te = _shuffle_split(group, cfg.train_frac, cfg.split_seed)
            train.extend(tr)
            test.extend(te)
    return train, test


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
    confusion = {t: {p: 0.0 for p in CLASSES} for t in CLASSES}
    for truth, pred, weight in rows:
        confusion[truth][pred] += weight
    total = sum(sum(row.values()) for row in confusion.values())
    precision = {}
    recall = {}
    for cls in CLASSES:
        predicted = sum(confusion[t][cls] for t in CLASSES)
        actual = sum(confusion[cls].values())
        precision[cls] = confusion[cls][cls] / predicted if predicted else 0.0
        recall[cls] = confusion[cls][cls] / actual if actual else 0.0
    diagonal = sum(confusion[c][c] for c in CLASSES)
    return MetricsReport(
        mode=mode,
        corrected=corrected,
        confusion=confusion,
        precision=precision,
        recall=recall,
        macro_precision=sum(precision.values()) / len(CLASSES),
        macro_recall=sum(recall.values()) / len(CLASSES),
        accuracy=diagonal / total if total else 0.0,
        total_weight=total,
    )


def evaluate(
    docs: list[SubdomainDocument],
    labels: list[Label],
    predictions: list[int],
    rows: list[int],
    mode: str,
    weight_by: str,
    overrides: dict[str, str] | None = None,
) -> MetricsReport:
    """Weighted metrics over the already-computed predictions at ``rows``
    (the test split); ``labels`` and ``predictions`` hold one entry per
    document of ``docs``.

    Biased mode weights each document by how many first parties reached it
    (or by raw URL count with ``weight_by="urls"``); unbiased gives every
    document weight 1. Overrides re-label before scoring (corrected report).
    """
    weighted = []
    for i in rows:
        doc, truth = docs[i], labels[i].label
        if overrides and doc.host in overrides:
            truth = overrides[doc.host]
        if mode == "unbiased":
            weight = 1.0
        elif weight_by == "sites":
            weight = float(len(doc.sites))
        else:
            weight = float(sum(doc.urls.values()))
        weighted.append((truth, CLASSES[predictions[i]], weight))
    return compute_metrics(weighted, mode, corrected=overrides is not None)


def evaluate_all(
    docs: list[SubdomainDocument],
    labels: list[Label],
    predictions: list[int],
    rows: list[int],
    cfg: PipelineConfig,
    overrides: dict[str, str] | None = None,
) -> dict[str, MetricsReport]:
    """The report set over ``rows``: unbiased and biased metrics, and the
    same two corrected by ``overrides`` when there are any."""
    variants = [("", None)] + ([("corrected_", overrides)] if overrides else [])
    return {
        f"{prefix}{mode}": evaluate(
            docs, labels, predictions, rows, mode, cfg.weight_by, corrected
        )
        for prefix, corrected in variants
        for mode in ("unbiased", "biased")
    }


def reports_text(reports: dict[str, MetricsReport]) -> str:
    return "\n\n".join(rep.to_text() for rep in reports.values())


def emit_candidate_rules(
    index: GraphIndex,
    docs: list[SubdomainDocument],
    scored: list[tuple],
    rules: RuleSet,
    labels: list[Label] | None = None,
) -> str:
    """Block-rule lines for predicted AdTrackers the lists do not yet hit.

    ``scored`` holds each document's (prediction, score, ...) and
    ``labels``, when given, its label. A document the lists label AdTracker
    is block-matched by definition, so only the others are matched again.
    """
    selected = []
    for doc, (pred, score, *_), label in zip(docs, scored, labels or [None] * len(docs)):
        if pred != 1:
            continue
        listed = label is not None and label.label == ADTRACKER
        if listed or document_block_matched(rules, doc):
            continue
        selected.append((score, doc.host, *coverage(index, doc.parent)))
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
_TOP_TERMS = 20  # vocabulary terms given keyword rates in the analysis tables


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
    labels: list[Label],
    vocabulary: content_mod.Vocabulary,
    doc_terms: list[frozenset[str]],
) -> dict:
    """Degree-bucket class mix, coverage CCDF points, keyword rates.

    ``labels`` holds one label per document of ``docs``, and ``doc_terms``
    the vocabulary terms each contains, as ``content_rows`` returns them.
    A keyword rate is the share of a class's documents holding one of the
    vocabulary's first ``_TOP_TERMS`` terms.
    """
    classes = [label.label for label in labels]
    degrees = [index.degree(doc.parent) for doc in docs]

    def bucket_name(lo, hi):
        return f"{lo}+" if hi is None else (f"{lo}" if lo == hi else f"{lo}-{hi}")

    buckets = []
    for lo, hi in _DEGREE_BUCKETS:
        n = Counter(c for d, c in zip(degrees, classes) if d >= lo and (hi is None or d <= hi))
        total = sum(n.values())
        buckets.append(
            {
                "bucket": bucket_name(lo, hi),
                **{cls: n[cls] for cls in CLASSES},
                "adtracker_share": n[ADTRACKER] / total if total else 0.0,
            }
        )

    n_roots = len(index.graph.roots)
    direct = [coverage_counts(index, doc.parent)[0] / n_roots for doc in docs]
    ccdf = {
        cls: coverage_ccdf([v for v, c in zip(direct, classes) if c == cls])
        for cls in CLASSES
    }

    by_class = {cls: [] for cls in CLASSES}
    for terms, cls in zip(doc_terms, classes):
        by_class[cls].append(terms)
    keywords = []
    for term in vocabulary.terms[:_TOP_TERMS]:
        rates = {
            cls: sum(1 for terms in group if term in terms) / len(group) if group else 0.0
            for cls, group in by_class.items()
        }
        keywords.append({"term": term, **rates})

    return {"degree_buckets": buckets, "direct_coverage_ccdf": ccdf, "top_keywords": keywords}


# --- flat-file interfaces shared by the CLI subcommands ---


_LABELS_HEADER = ["host", "kind", "label", "source"]
_SCORES_HEADER = ["host", "kind", "prediction", "score", "basis"]


def _read_table(data: bytes, what: str, source) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """(header cells, [(line number, cells)] of each non-empty row) of the
    TSV table ``source``; an empty one has no header cells. A byte that is
    not UTF-8, a row whose column count differs from the header's, or a row
    whose first two cells (its key) repeat an earlier row's, is a DataError
    that names ``source`` and its line."""
    lines = read_lines(io.BytesIO(data), source, DataError)
    _, first = next(lines, (1, None))
    header = first.split("\t") if first is not None else []
    rows = []
    first_line: dict[tuple[str, ...], int] = {}
    for lineno, line in lines:
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise DataError(
                f"{source}: line {lineno}: bad {what} row: {len(cells)} columns, "
                f"expected {len(header)}"
            )
        seen = first_line.setdefault(tuple(cells[:2]), lineno)
        if seen != lineno:
            raise DataError(f"{source}: line {lineno}: {what} row repeats the key of line {seen}")
        rows.append((lineno, cells))
    return header, rows


def write_labels_file(keys: list[tuple[str, str]], labels: list[Label]) -> bytes:
    lines = ["\t".join(_LABELS_HEADER)]
    for (host, kind), lab in zip(keys, labels):
        lines.append(f"{host}\t{kind}\t{lab.label}\tfilterlist")
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_labels_file(data: bytes, source="labels file") -> dict[tuple[str, str], Label]:
    header, rows = _read_table(data, "labels file", source)
    if header != _LABELS_HEADER:
        raise DataError(f"{source}: line 1: unrecognized labels file header")
    out = {}
    for lineno, (host, kind, label, origin) in rows:
        if label not in CLASSES:
            raise DataError(f"{source}: line {lineno}: unknown label {label!r} for {host}")
        if origin != "filterlist":
            raise DataError(f"{source}: line {lineno}: unknown label source {origin!r} for {host}")
        out[(host, kind)] = Label(label)
    return out


def write_scores_file(
    keys: list[tuple[str, str]], scored: list[tuple[int, float, str]]
) -> bytes:
    lines = ["\t".join(_SCORES_HEADER)]
    for (host, kind), (pred, score, basis) in zip(keys, scored):
        lines.append(f"{host}\t{kind}\t{CLASSES[pred]}\t{score!r}\t{basis}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_scores_file(data: bytes, source="scores file") -> dict[tuple[str, str], tuple[int, float]]:
    header, rows = _read_table(data, "scores file", source)
    if header != _SCORES_HEADER:
        raise DataError(f"{source}: line 1: unrecognized scores file header")
    out = {}
    for lineno, (host, kind, pred, score, basis) in rows:
        if pred not in CLASSES:
            raise DataError(f"{source}: line {lineno}: unknown prediction {pred!r} for {host}")
        try:
            value = float(score)
        except ValueError:
            value = math.nan
        # A score is a vote fraction; NaN fails both comparisons.
        if not 0.0 <= value <= 1.0:
            raise DataError(f"{source}: line {lineno}: bad score {score!r} for {host}")
        if basis not in ("full", "oob"):
            raise DataError(f"{source}: line {lineno}: unknown basis {basis!r} for {host}")
        out[(host, kind)] = (CLASSES.index(pred), value)
    return out


def _write_matrix(key_header, keys, columns: list[str], values: np.ndarray, out: BinaryIO) -> None:
    """Feature table, written to ``out`` one row at a time; the exact
    inverse of ``_read_matrix``.

    A zero cell is written as ``0.0``, which is its ``repr``; only the
    nonzero and negative-zero cells go through ``repr``."""
    out.write(("\t".join([*key_header, *columns]) + "\n").encode("utf-8"))
    zeros = ["0.0"] * values.shape[1]
    written = np.signbit(values) | (values != 0)
    for key, row, mask in zip(keys, values, written):
        cells = [*key, *zeros]
        cols = np.flatnonzero(mask)
        for j, value in zip((cols + 2).tolist(), row[cols].tolist()):
            cells[j] = repr(value)
        out.write(("\t".join(cells) + "\n").encode("utf-8"))


def write_content_matrix(
    keys: list[tuple[str, str]], columns: list[str], values: np.ndarray, out: BinaryIO
) -> None:
    """Content feature table; the exact inverse of read_content_matrix."""
    _write_matrix(["host", "kind"], keys, columns, values, out)


def write_struct_matrix(matrix: structural_mod.StructMatrix, out: BinaryIO) -> None:
    """Structural feature table; the exact inverse of read_struct_matrix."""
    _write_matrix(["domain", "kind"], matrix.keys, matrix.columns, matrix.values, out)


def _read_matrix(data: bytes, what: str, key_header: list[str], source):
    """(row keys, value columns, values) of a feature table whose first two
    columns are ``key_header`` and the rest finite floats; a bad row is a
    DataError that names ``source`` and its line."""
    header, rows = _read_table(data, what, source)
    if header[:2] != key_header:
        raise DataError(f"{source}: line 1: unrecognized {what} header")
    values = np.zeros((len(rows), len(header) - 2))
    for i, (lineno, cells) in enumerate(rows):
        try:
            values[i] = [float(c) for c in cells[2:]]
            finite = np.isfinite(values[i]).all()
        except ValueError:
            finite = False
        if not finite:
            raise DataError(f"{source}: line {lineno}: bad {what} value")
    return [(cells[0], cells[1]) for _, cells in rows], header[2:], values


def read_content_matrix(data: bytes, source="content matrix"):
    """Returns (keys, columns, values) from a content feature table."""
    return _read_matrix(data, "content matrix", ["host", "kind"], source)


def read_struct_matrix(data: bytes, source="structural matrix") -> structural_mod.StructMatrix:
    """Structural feature table; the exact inverse of write_struct_matrix."""
    keys, columns, values = _read_matrix(data, "structural matrix", ["domain", "kind"], source)
    return structural_mod.StructMatrix([NodeKey(*key) for key in keys], columns, values)


# --- configuration and the full run ---

def _to_bool(value: str) -> bool:
    word = value.lower()
    if word in ("true", "yes", "on", "1"):
        return True
    if word in ("false", "no", "off", "0"):
        return False
    raise ValueError(value)


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


def _file_lines(path: str | Path):
    """The numbered lines (``read_lines``) of the text file at ``path``."""
    return read_lines(io.BytesIO(Path(path).read_bytes()), path, DataError)


def load_config(cls, path: str | Path | None):
    """Build dataclass ``cls`` from ``key = value`` lines ('#' comments);
    a key the file leaves out, or every key when ``path`` is None, keeps
    its field default. Each value is converted by its field's annotation;
    one that does not convert is a DataError naming the file, the line and
    its key, and so is an unknown key, or a key set twice (naming both lines).
    """
    types = {f.name: f.type for f in fields(cls)}
    values = {}
    first_line: dict[str, int] = {}
    for lineno, raw in _file_lines(path) if path is not None else ():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {lineno}: bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise DataError(f"{path}: line {lineno}: unknown config key {key!r}")
        earlier = first_line.setdefault(key, lineno)
        if earlier != lineno:
            raise DataError(f"{path}: line {lineno}: config key {key} repeats line {earlier}")
        try:
            values[key] = _CONVERTERS[types[key]](value)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad value for {key}: {value!r}") from None
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
    n_trees: int = 250
    mtry: int | None = None
    max_depth: int | None = None
    forest_seed: int = 29
    train_frac: float = 0.8
    split_seed: int = 13
    stratified: bool = False
    min_in_degree: int = 3
    weight_by: str = "sites"

    def forest_params(self) -> ForestParams:
        """The one mapping from config keys to the forest's parameters."""
        return ForestParams(self.n_trees, self.mtry, self.max_depth, seed=self.forest_seed)

    def validate(self) -> None:
        """The one check of each value, as a DataError; the stages trust
        it, so run-all and every staged command call it before any input."""
        checks = [
            (self.weight_by in ("sites", "urls"), f"unknown weighting {self.weight_by!r}"),
            (self.vocab_rank in ("df", "tf"), f"unknown ranking {self.vocab_rank!r}"),
            (0.0 < self.train_frac < 1.0, "train fraction must be in (0, 1)"),
            (0.0 < self.prune_threshold <= 1.0, "prune threshold must be in (0, 1]"),
            (self.refex_depth >= 0, "refex depth must be >= 0"),
            (self.vocab_size >= 0, f"vocabulary size must be >= 0, got {self.vocab_size}"),
        ]
        for ok, message in checks:
            if not ok:
                raise DataError(message)
        try:
            self.forest_params().validate()
        except forest_mod.ForestError as exc:
            raise DataError(str(exc)) from None


# --- the stages; run_all and each staged CLI subcommand call these ---


@dataclass
class IngestTally:
    """What ``ingest_har_dir`` has read so far: captures and skipped entries."""

    sites: int = 0
    skipped: Counter = field(default_factory=Counter)


def ingest_har_dir(
    har_dir: str | Path, out: BinaryIO, tally: IngestTally
) -> Iterator[DependencyTree]:
    """Yield one dependency tree per *.har under the directory, in name
    order. As each tree passes, its line goes to the trees file ``out`` and
    its capture counts into ``tally``. A capture that cannot be read raises
    ``DataError`` naming its file."""
    paths = sorted(Path(har_dir).glob("*.har"))
    if not paths:
        raise DataError(f"no .har files under {har_dir}")
    out.write(TREES_HEADER)
    for path in paths:
        data = path.read_bytes()
        try:
            record = parse_har(data)
            tree = build_tree(record)
        except ValueError as exc:
            raise DataError(f"{path.name}: {exc}") from exc
        out.write(tree_line(tree))
        tally.sites += 1
        tally.skipped.update(record.skipped)
        yield tree


@contextmanager
def replaced_when_done(path: str | Path) -> Iterator[BinaryIO]:
    """A binary stream onto a sibling temporary file that becomes ``path``
    only if the block completes, so a failed run leaves no partial file."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with part.open("wb") as out:
            yield out
        part.replace(path)
    finally:
        part.unlink(missing_ok=True)


def structural_matrix(index: GraphIndex, cfg: PipelineConfig) -> structural_mod.StructMatrix:
    """Base features of every third-party node plus ``cfg.refex_depth``
    levels of pruned neighbourhood aggregates."""
    return structural_mod.refex_expand(
        structural_mod.build_base_matrix(index),
        index,
        depth=cfg.refex_depth,
        threshold=cfg.prune_threshold,
    )


def read_rules(paths) -> RuleSet:
    """One rule set from the concatenated filter-list files."""
    return parse_rules("\n".join(line for p in paths for _, line in _file_lines(p)))


def read_overrides(path: str | Path | None) -> dict[str, str] | None:
    """The overrides file's ``host<TAB>adtracker|benign`` lines; '#'/'!'
    comments allowed. A bad line, a host that is not lower-case (no
    document host is) or a host given twice (naming both lines) is a
    DataError naming the file and the line."""
    if path is None:
        return None
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in _file_lines(path):
        line = raw.strip()
        if not line or line.startswith(("#", "!")):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in CLASSES:
            raise DataError(f"{path}: line {lineno}: bad override {raw!r}")
        host, label = parts
        if host != host.lower():
            raise DataError(f"{path}: line {lineno}: override host {host} is not lower-case")
        earlier = first_line.setdefault(host, lineno)
        if earlier != lineno:
            raise DataError(f"{path}: line {lineno}: override for {host} repeats line {earlier}")
        out[host] = label
    return out


def check_override_hosts(overrides: dict | None, path, graph: WideGraph) -> None:
    """A DataError naming the overrides file ``path`` for a host that no
    document of ``graph`` has, eligible or not: it could never apply."""
    hosts = {host for host, _ in graph.docs}
    for host in overrides or ():
        if host not in hosts:
            raise DataError(f"{path}: override host {host} is not the host of any graph document")


def content_features(
    eligible: list[SubdomainDocument],
    train_rows: list[int],
    cfg: PipelineConfig,
):
    """(vocabulary, content_rows of ``eligible``): each document is
    tokenized once, and the vocabulary is built from the training rows
    only."""
    counts = [content_mod.doc_token_counts(d) for d in eligible]
    train = [counts[i] for i in train_rows]
    vocabulary = content_mod.build_vocabulary(train, cfg.vocab_size, cfg.vocab_rank)
    return vocabulary, content_mod.content_rows(eligible, counts, vocabulary, cfg.clamp_idf)


def assemble_all_vectors(
    keys: list[tuple[str, str]],
    content_values: np.ndarray,
    struct_matrix: structural_mod.StructMatrix,
    rows: list[int] | None = None,
) -> np.ndarray:
    """Join content rows (host-keyed) with their parent node's structural
    row, laid out [keywords | engineered | structural]: one row per index
    of ``rows`` into ``keys`` and ``content_values``, in that order, or one
    per key in ``keys`` order. Rows are filled one by one, so no other
    matrix-sized array is made."""
    rows = range(len(keys)) if rows is None else rows
    width = content_values.shape[1]
    matrix = np.empty((len(rows), width + len(struct_matrix.columns)))
    for out, i in zip(matrix, rows):
        host, kind = keys[i]
        out[:width] = content_values[i]
        out[width:] = struct_matrix.row(NodeKey(registrable_domain(host), kind))
    return matrix


def train_forest(
    X_train: np.ndarray, labels: list[Label], cfg: PipelineConfig
) -> forest_mod.ForestModel:
    """The forest trained on ``X_train``, one label per row, with the
    config's forest parameters."""
    y = np.array([CLASSES.index(label.label) for label in labels])
    try:
        return forest_mod.train(X_train, y, cfg.forest_params())
    except forest_mod.ForestError as exc:
        raise DataError(str(exc)) from exc


def score_rows(
    model: forest_mod.ForestModel, X: np.ndarray, n_train: int = 0
) -> list[tuple[int, float, str]]:
    """(prediction, adtracker score, basis) of each row of ``X``. Its first
    ``n_train`` rows, the rows ``model`` was trained on in training order,
    are scored out-of-bag (``oob``): a fully grown forest memorizes its
    training labels, which would hide the unlisted trackers candidate
    emission exists to find. Every later row gets the full forest's vote
    (``full``). Both read X's rows in place."""
    parts = []
    if n_train:
        parts.append((*forest_mod.oob_predict(model, X[:n_train]), "oob"))
    if n_train < len(X):
        parts.append((*forest_mod.predict(model, X[n_train:]), "full"))
    return [
        (pred, score, basis)
        for preds, scores, basis in parts
        for pred, score in zip(preds.tolist(), scores.tolist())
    ]


# The cyclic collector is paused for the whole run: the only reference
# cycles a run makes are json.dumps' few encoder closures, so its sweeps
# free next to nothing.
@collector_paused()
def run_all(cfg: PipelineConfig) -> dict:
    """Full run: ingest -> graph -> features -> label -> train -> report."""
    cfg.validate()
    ruleset = read_rules(cfg.rules_files)
    overrides = read_overrides(cfg.overrides_file)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # One capture at a time: each tree is written, contracted, then let go.
    ingested = IngestTally()
    with replaced_when_done(out / "trees.jsonl") as trees_out:
        graph = build_widegraph(ingest_har_dir(cfg.har_dir, trees_out, ingested))
    check_override_hosts(overrides, cfg.overrides_file, graph)
    with (out / "graph.jsonl").open("wb") as graph_out:
        save_graph(graph, graph_out)
    index = GraphIndex(graph)

    struct = structural_matrix(index, cfg)
    with (out / "structural.tsv").open("wb") as table:
        write_struct_matrix(struct, table)

    # From here on each per-document fact is a list indexed by row.
    eligible, elig_report = filter_eligible(index, cfg.min_in_degree)
    if len(eligible) < 2:
        raise DataError("fewer than 2 eligible documents; nothing to learn from")
    keys = list(map(doc_key, eligible))

    labels = [label_document(ruleset, d) for d in eligible]
    (out / "labels.tsv").write_bytes(write_labels_file(keys, labels))

    train, test = split_keys(keys, cfg, labels)
    vocabulary, (columns, content_values, doc_terms) = content_features(eligible, train, cfg)
    (out / "vocabulary.tsv").write_bytes(content_mod.save_vocabulary(vocabulary))
    with (out / "content.tsv").open("wb") as table:
        write_content_matrix(keys, columns, content_values, table)
    # X's rows are the training rows in training order, then the test rows,
    # so the forest trains on and scores X's row ranges in place.
    order = train + test
    X = assemble_all_vectors(keys, content_values, struct, order)
    del content_values  # X now holds the only copy

    model = train_forest(X[:len(train)], [labels[i] for i in train], cfg)
    (out / "model.txt").write_bytes(forest_mod.save_model(model))

    # Back in key order, as every per-document list and file is.
    scored = [row for _, row in sorted(zip(order, score_rows(model, X, len(train))))]
    (out / "scores.tsv").write_bytes(write_scores_file(keys, scored))

    predictions = [pred for pred, _, _ in scored]
    reports = evaluate_all(eligible, labels, predictions, test, cfg, overrides)

    candidates = emit_candidate_rules(index, eligible, scored, ruleset, labels)
    (out / "candidate-rules.txt").write_text(candidates, encoding="utf-8")

    names = content_mod.feature_names(vocabulary, struct.columns)
    importance = [
        {"feature": names[f], "importance": imp}
        for f, imp in forest_mod.feature_importance(model)[:25]
    ]
    summary = {
        "sites": ingested.sites,
        "ingest_skips": dict(sorted(ingested.skipped.items())),
        "eligibility": elig_report,
        "split": {"train": len(train), "test": len(test)},
        "rules": {
            "parsed": ruleset.rule_count,
            "skipped": dict(sorted(ruleset.skip_report.items())),
        },
        "label_counts": dict(Counter(lab.label for lab in labels).most_common()),
        "reports": {name: rep.to_dict() for name, rep in reports.items()},
        "feature_importance": importance,
        "analysis": analysis_tables(index, eligible, labels, vocabulary, doc_terms),
    }
    (out / "report.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8"
    )
    (out / "report.txt").write_text(reports_text(reports) + "\n", encoding="utf-8")
    return summary
