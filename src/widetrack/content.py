"""URL tokenization, keyword weighting, and per-document content rows."""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .graph import SubdomainDocument

# A token is a maximal run between the six URL delimiters / ? & = . -
_TOKEN = re.compile(r"[^/?&=.\-]+")

KIND_CODES = {"script": 0, "media": 1, "iframe": 2, "other": 3}

ENGINEERED_COLUMNS = (
    "avg_url_len",
    "amp_count",
    "eq_count",
    "question_count",
    "kind_code",
)


class VocabularyError(KeyError):
    pass


def tokenize_url(url: str) -> list[str]:
    """Lowercase, strip the scheme prefix, split on the six URL delimiters.

    Order is preserved and duplicates are kept; empty fragments drop out.
    """
    s = url.lower()
    for prefix in ("https://", "http://"):
        if s.startswith(prefix):
            s = s[len(prefix):]
            break
    return _TOKEN.findall(s)


def doc_token_counts(document: SubdomainDocument) -> dict[str, int]:
    """Term frequencies over all of a document's URLs, multiplicity included."""
    counts: dict[str, int] = {}  # a plain dict: Counter's __missing__ is slow
    for url, mult in document.urls.items():
        for token in tokenize_url(url):
            counts[token] = counts.get(token, 0) + mult
    return counts


@dataclass
class Vocabulary:
    terms: list[str]
    df: dict[str, int]
    corpus_size: int
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {t: i for i, t in enumerate(self.terms)}

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def index(self, term: str) -> int:
        return self._index[term]


def build_vocabulary(doc_counts: list[dict[str, int]], k: int, rank_by: str) -> Vocabulary:
    """Keep the top-k terms ranked by document frequency (ties lexicographic),
    over one ``doc_token_counts`` table per document; ``k`` is at least 0.

    ``rank_by="tf"`` ranks by total term frequency instead; document
    frequencies are recorded either way since the weighting needs them.
    """
    if not doc_counts:
        raise ValueError("vocabulary needs at least one document")
    if k < 0:
        raise ValueError(f"vocabulary size must be >= 0, got {k}")
    if rank_by not in ("df", "tf"):
        raise ValueError(f"unknown ranking {rank_by!r}")
    df: Counter = Counter()
    tf: Counter = Counter()
    for counts in doc_counts:
        df.update(counts.keys())
        if rank_by == "tf":
            tf.update(counts)
    rank = tf if rank_by == "tf" else df
    terms = sorted(rank, key=lambda t: (-rank[t], t))[:k]
    return Vocabulary(
        terms=terms, df={t: df[t] for t in terms}, corpus_size=len(doc_counts)
    )


def tfidf(
    term: str, tokens: dict[str, int], vocabulary: Vocabulary, clamp_idf: bool
) -> float:
    """log(1 + f) * log(|D| / (1 + df)), natural logarithms.

    The inverse factor goes negative when a term appears in every document;
    that is kept as-is unless ``clamp_idf`` floors it at zero.
    """
    if term not in vocabulary:
        raise VocabularyError(term)
    f = tokens.get(term, 0)
    if f == 0:
        return 0.0
    idf = math.log(vocabulary.corpus_size / (1 + vocabulary.df[term]))
    if clamp_idf and idf < 0.0:
        idf = 0.0
    return math.log(1 + f) * idf


def engineered(document: SubdomainDocument) -> list[float]:
    """[mean URL length, "&" count, "=" count, "?" count, kind code]."""
    if not document.urls:
        raise ValueError(f"document {document.host} has no URLs")
    total = sum(document.urls.values())
    length = amp = eq = q = 0
    for url, mult in document.urls.items():
        length += len(url) * mult
        amp += url.count("&") * mult
        eq += url.count("=") * mult
        q += url.count("?") * mult
    return [
        length / total,
        float(amp),
        float(eq),
        float(q),
        float(KIND_CODES[document.kind]),
    ]


def content_rows(
    documents: list[SubdomainDocument],
    token_counts: dict[tuple[str, str], dict[str, int]],
    vocabulary: Vocabulary,
    clamp_idf: bool,
) -> tuple[list[tuple[str, str]], list[str], np.ndarray, list[frozenset[str]]]:
    """(keys, columns, values, terms): one [keywords | engineered] row per
    document, ordered by (host, kind), and the vocabulary terms each
    document contains. ``token_counts`` maps each document's (host, kind)
    to its ``doc_token_counts``."""
    docs = sorted(documents, key=lambda d: (d.host, d.kind))
    columns = feature_names(vocabulary, [])
    values = np.zeros((len(docs), len(columns)))
    terms = []
    k = len(vocabulary.terms)
    for i, doc in enumerate(docs):
        tokens = token_counts[(doc.host, doc.kind)]
        present = [t for t in tokens if t in vocabulary]
        for term in present:
            values[i, vocabulary.index(term)] = tfidf(term, tokens, vocabulary, clamp_idf)
        values[i, k:] = engineered(doc)
        terms.append(frozenset(present))
    return [(d.host, d.kind) for d in docs], columns, values, terms


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
