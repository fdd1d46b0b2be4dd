"""The content layer's batched passes against the per-token, per-term and
per-cell code they replaced.

``doc_token_counts`` and ``engineered`` read a document's URLs in groups
of one request count, each group split as one string; ``build_vocabulary``
cuts at the k-th largest rank before sorting; ``content_rows`` fills each
row from per-term idf and per-count log tables, where ``tfidf`` below
weighs one cell at a time; and the content and structural table writers
write zero cells as a constant. Each is held here to a reference kept
below, on adversarial input.
"""

import io
import math
import re
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from widetrack.content import (
    build_vocabulary,
    content_rows,
    doc_token_counts,
    engineered,
)
from widetrack.graph import NodeKey, SubdomainDocument
from widetrack.pipeline import (
    read_content_matrix,
    read_struct_matrix,
    write_content_matrix,
    write_struct_matrix,
)
from widetrack.structural import StructMatrix

# -------------------------------------------------------------- references

_REFERENCE_TOKEN = re.compile(r"[^/?&=.\-]+")


def reference_tokens(url):
    s = url.lower()
    for prefix in ("https://", "http://"):
        if s.startswith(prefix):
            s = s[len(prefix):]
            break
    return _REFERENCE_TOKEN.findall(s)


def reference_counts(document):
    counts = {}
    for url, mult in document.urls.items():
        for token in reference_tokens(url):
            counts[token] = counts.get(token, 0) + mult
    return counts


def reference_engineered(document):
    total = sum(document.urls.values())
    length = amp = eq = q = 0
    for url, mult in document.urls.items():
        length += len(url) * mult
        amp += url.count("&") * mult
        eq += url.count("=") * mult
        q += url.count("?") * mult
    kind = ("script", "media", "iframe", "other").index(document.kind)
    return [length / total, float(amp), float(eq), float(q), float(kind)]


def reference_terms(doc_counts, k, rank_by):
    df, tf = Counter(), Counter()
    for counts in doc_counts:
        df.update(counts.keys())
        tf.update(counts)
    rank = tf if rank_by == "tf" else df
    return sorted(rank, key=lambda t: (-rank[t], t))[:k]


def tfidf(term, tokens, vocabulary, clamp_idf):
    """One cell: log(1 + f) * log(|D| / (1 + df)), natural logarithms. The
    inverse factor goes negative for a term in every document; that is kept
    as-is unless ``clamp_idf`` floors it at zero."""
    f = tokens.get(term, 0)
    if f == 0:
        return 0.0
    idf = math.log(vocabulary.corpus_size / (1 + vocabulary.df[term]))
    if clamp_idf and idf < 0.0:
        idf = 0.0
    return math.log(1 + f) * idf


def reference_table(key_header, keys, columns, values):
    lines = ["\t".join([*key_header, *columns])]
    for key, row in zip(keys, values):
        lines.append("\t".join([*key] + [repr(v) for v in row.tolist()]))
    return ("\n".join(lines) + "\n").encode("utf-8")


# -------------------------------------------------------------- strategies

# Schemes in any case, "http://" inside a path (not stripped there), runs of
# delimiters (empty fragments), a final sigma and a dotted capital I, whose
# lower-casing depends on context or changes length.
_PIECES = (
    "http://", "https://", "HTTP://", "HtTpS://", "ftp://", "/", "//", "?", "&", "=", ".",
    "-", "..", "?&=", "a", "B", "px", "uid", "Http", "http:", "\u0391\u03a3", "\u0130",
    "\xdf", " ", "_",
)
urls = st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)
# A count of 10**9 makes any code that repeats a URL or token ``count``
# times run out of time or memory.
multiplicities = st.sampled_from([1, 1, 1, 2, 3, 10**9])


@st.composite
def documents(draw, host="px.t.net"):
    url_counts = draw(st.dictionaries(urls, multiplicities, min_size=1, max_size=6))
    kind = draw(st.sampled_from(["script", "media", "iframe", "other"]))
    return SubdomainDocument(host, kind, Counter(url_counts), {"s.com"}, NodeKey("t.net", kind))


# ------------------------------------------------------------------ tests


@settings(max_examples=300, deadline=None)
@given(documents())
def test_doc_token_counts_equal_per_url_counting(document):
    counts = doc_token_counts(document)
    assert dict(counts) == reference_counts(document)
    assert engineered(document) == reference_engineered(document)


def test_scheme_is_stripped_only_at_each_url_start():
    document = SubdomainDocument(
        "a.com", "script",
        Counter({"HTTPS://a.com/http://b": 1, "http://a.com/x": 1, "https://a.com/": 2}),
        {"s.com"}, NodeKey("a.com", "script"),
    )
    assert doc_token_counts(document) == {"a": 4, "com": 4, "http:": 1, "b": 1, "x": 1}


term_counts = st.dictionaries(
    st.sampled_from("abcdefgh"), st.integers(min_value=1, max_value=3), min_size=1
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(term_counts, min_size=1, max_size=6),
    st.integers(min_value=0, max_value=10),
    st.sampled_from(["df", "tf"]),
)
def test_build_vocabulary_equals_full_sort(doc_counts, k, rank_by):
    """k runs from 0 past the number of terms, and the small alphabet makes
    ties at the k-th rank common."""
    vocabulary = build_vocabulary(doc_counts, k, rank_by)
    assert vocabulary.terms == reference_terms(doc_counts, k, rank_by)
    df = Counter(t for counts in doc_counts for t in counts)
    assert vocabulary.df == {t: df[t] for t in vocabulary.terms}
    assert vocabulary.corpus_size == len(doc_counts)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(documents(), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=12),
    st.booleans(),
)
def test_content_rows_cells_equal_tfidf(docs, k, clamp_idf):
    """Terms in every document have a negative idf, which ``clamp_idf``
    floors at zero; every cell must be ``tfidf``'s float to the bit."""
    docs = [
        SubdomainDocument(f"h{i}.t.net", d.kind, d.urls, d.sites, d.parent)
        for i, d in enumerate(docs)
    ]
    tokens = [doc_token_counts(d) for d in docs]
    vocabulary = build_vocabulary(tokens, k, "df")
    columns, values, terms = content_rows(docs, tokens, vocabulary, clamp_idf)
    n = len(vocabulary.terms)
    assert len(columns) == n + 5 and len(values) == len(terms) == len(docs)
    for i, doc in enumerate(docs):
        cells = [tfidf(t, tokens[i], vocabulary, clamp_idf) for t in vocabulary.terms]
        assert list(map(repr, values[i, :n].tolist())) == list(map(repr, cells))
        assert values[i, n:].tolist() == engineered(doc)
        assert terms[i] == frozenset(t for t in tokens[i] if t in vocabulary.index)


_CELLS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 2.0, -3.0, 1e16, 0.1, 1 / 3, math.pi)


def _content_table(keys, columns, values):
    """The content writer and reader, as (table, values read back)."""
    out = io.BytesIO()
    write_content_matrix(keys, columns, values, out)
    table = out.getvalue()
    return table, read_content_matrix(table)[2]


def _struct_table(keys, columns, values):
    """The structural writer and reader, as (table, values read back)."""
    out = io.BytesIO()
    write_struct_matrix(StructMatrix([NodeKey(*key) for key in keys], columns, values), out)
    table = out.getvalue()
    return table, read_struct_matrix(table).values


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([(["host", "kind"], _content_table), (["domain", "kind"], _struct_table)]),
    st.data(),
)
def test_write_content_matrix_equals_repr_of_every_cell(n_rows, n_cols, table_pair, data):
    """Both feature tables go through one zero-cell writer; each must equal
    ``repr`` of every cell and read back bit for bit."""
    key_header, write_and_read = table_pair
    cells = st.lists(st.sampled_from(_CELLS), min_size=n_rows * n_cols, max_size=n_rows * n_cols)
    values = np.array(data.draw(cells), dtype=float).reshape(n_rows, n_cols)
    keys = [(f"h{i}.t.net", "script") for i in range(n_rows)]
    columns = [f"kw:c{j}" for j in range(n_cols)]
    table, read_back = write_and_read(keys, columns, values)
    assert table == reference_table(key_header, keys, columns, values)
    if n_rows:
        assert read_back.tobytes() == values.tobytes()


def test_vocabulary_from_hand_built_counts_keeps_the_tied_terms_lexicographically():
    doc_counts = [{"b": 1, "a": 1, "c": 5}, {"b": 1, "d": 1}, {"a": 1}]
    assert build_vocabulary(doc_counts, 2, "df").terms == ["a", "b"]
    assert build_vocabulary(doc_counts, 2, "tf").terms == ["c", "a"]
    assert build_vocabulary(doc_counts, 9, "df").terms == ["a", "b", "c", "d"]
