"""URL tokenization, keyword weighting, and per-document content rows."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .graph import SubdomainDocument
from .ingest import NODE_KINDS

# A token is a maximal run between the six URL delimiters / ? & = . -;
# mapping the other five to "/" lets one str.split find every run.
_TO_SLASH = str.maketrans(dict.fromkeys("?&=.-", "/"))

KIND_CODES = {kind: code for code, kind in enumerate(NODE_KINDS)}

ENGINEERED_COLUMNS = (
    "avg_url_len",
    "amp_count",
    "eq_count",
    "question_count",
    "kind_code",
)


def _strip_scheme(url: str) -> str:
    """``url`` lower-cased, less a leading ``https://`` or ``http://``."""
    s = url.lower()
    if s.startswith("https://"):
        return s[8:]
    if s.startswith("http://"):
        return s[7:]
    return s


def _count_groups(document: SubdomainDocument) -> dict[int, list[str]]:
    """The document's URLs grouped by request count: count -> its URLs."""
    groups: dict[int, list[str]] = {}
    for url, n in document.urls.items():
        groups.setdefault(n, []).append(url)
    return groups


def doc_token_counts(document: SubdomainDocument) -> Counter:
    """Term frequencies over all of a document's URLs, request counts included.

    The URLs of one request count are lower-cased, scheme-stripped and
    split as one string joined on ``/``: that is a delimiter, so no token
    spans two URLs. Each group's token counts are multiplied by its count.
    """
    counts: Counter = Counter()
    for n, urls in _count_groups(document).items():
        tokens = Counter("/".join(map(_strip_scheme, urls)).translate(_TO_SLASH).split("/"))
        counts.update(dict(zip(tokens, map(n.__mul__, tokens.values()))))
    del counts[""]  # the empty fragments; a Counter ignores a missing key
    return counts


@dataclass
class Vocabulary:
    terms: list[str]
    df: dict[str, int]
    corpus_size: int
    index: dict = field(init=False, repr=False)  # term -> its column

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.terms)}


def build_vocabulary(doc_counts: list[dict[str, int]], k: int, rank_by: str) -> Vocabulary:
    """Keep the top-k terms ranked by document frequency (ties lexicographic),
    over one ``doc_token_counts`` table per document; ``k`` is at least 0.

    ``rank_by="tf"`` ranks by total term frequency instead; document
    frequencies are recorded either way since the weighting needs them.
    """
    if not doc_counts:
        raise ValueError("vocabulary needs at least one document")
    df: Counter = Counter()
    tf: Counter = Counter()
    for counts in doc_counts:
        df.update(counts.keys())
        if rank_by == "tf":
            tf.update(counts)
    rank = tf if rank_by == "tf" else df
    terms = list(rank)
    if 0 < k < len(terms):
        # Only terms ranked at least the k-th largest rank can be kept.
        cut = sorted(rank.values(), reverse=True)[k - 1]
        terms = list(compress(terms, map(cut.__le__, rank.values())))
    # (-rank, term) order: by term, then stably by falling rank.
    terms.sort()
    terms.sort(key=rank.__getitem__, reverse=True)
    del terms[k:]
    return Vocabulary(
        terms=terms, df={t: df[t] for t in terms}, corpus_size=len(doc_counts)
    )


def idf(term: str, vocabulary: Vocabulary, clamp_idf: bool) -> float:
    """log(|D| / (1 + df)), natural logarithm, floored at zero when
    ``clamp_idf``. It goes negative for a term in every document."""
    value = math.log(vocabulary.corpus_size / (1 + vocabulary.df[term]))
    if clamp_idf and value < 0.0:
        value = 0.0
    return value


def engineered(document: SubdomainDocument) -> list[float]:
    """[mean URL length, "&" count, "=" count, "?" count, kind code]."""
    if not document.urls:
        raise ValueError(f"document {document.host} has no URLs")
    total = length = amp = eq = q = 0
    for n, urls in _count_groups(document).items():
        joined = "".join(urls)
        total += n * len(urls)
        length += n * len(joined)
        amp += n * joined.count("&")
        eq += n * joined.count("=")
        q += n * joined.count("?")
    return [
        length / total,
        float(amp),
        float(eq),
        float(q),
        float(KIND_CODES[document.kind]),
    ]


def content_rows(
    documents: list[SubdomainDocument],
    token_counts: list[dict[str, int]],
    vocabulary: Vocabulary,
    clamp_idf: bool,
) -> tuple[list[str], np.ndarray, list[frozenset[str]]]:
    """(columns, values, terms): one [keywords | engineered] row per
    document, in ``documents`` order, and the vocabulary terms each
    document contains. ``token_counts`` holds each document's
    ``doc_token_counts``. A keyword cell is log(1 + f) * ``idf``, f the
    term's frequency in the document; 0.0 where f is 0."""
    columns = feature_names(vocabulary, [])
    values = np.zeros((len(documents), len(columns)))
    terms = []
    k = len(vocabulary.terms)
    index = vocabulary.index
    idfs = np.array([idf(t, vocabulary, clamp_idf) for t in vocabulary.terms])
    for i, (doc, tokens) in enumerate(zip(documents, token_counts)):
        present = tokens.keys() & index.keys()
        if present:
            cols = list(map(index.__getitem__, present))
            tf = [math.log(1 + tokens[t]) for t in present]
            values[i, cols] = np.array(tf) * idfs[cols]
        values[i, k:] = engineered(doc)
        terms.append(frozenset(present))
    return columns, values, terms


def feature_names(vocabulary: Vocabulary, struct_columns: list[str]) -> list[str]:
    return (
        [f"kw:{t}" for t in vocabulary.terms]
        + list(ENGINEERED_COLUMNS)
        + list(struct_columns)
    )


def save_vocabulary(vocabulary: Vocabulary) -> bytes:
    lines = [
        "widetrack-vocab\tv1",
        f"corpus_size\t{vocabulary.corpus_size}",
    ]
    lines.extend(f"{t}\t{vocabulary.df[t]}" for t in vocabulary.terms)
    return ("\n".join(lines) + "\n").encode("utf-8")
