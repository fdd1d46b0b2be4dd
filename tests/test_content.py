import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from widetrack.content import (
    ENGINEERED_COLUMNS,
    Vocabulary,
    build_vocabulary,
    content_rows,
    doc_token_counts,
    engineered,
    feature_names,
    save_vocabulary,
)
from widetrack.graph import NodeKey, SubdomainDocument
from widetrack.pipeline import DataError, PipelineConfig, assemble_all_vectors
from widetrack.structural import StructMatrix


def doc(host, kind, urls, sites=("site.com",)):
    return SubdomainDocument(
        host=host,
        kind=kind,
        urls=Counter(urls),
        sites=set(sites),
        parent=NodeKey(".".join(host.split(".")[-2:]), kind),
    )


def counts(docs):
    return [doc_token_counts(d) for d in docs]


def tokens_of(url):
    """doc_token_counts of a document holding ``url`` once."""
    return doc_token_counts(doc("a.com", "script", [url]))


class TestTokenizer:
    def test_query_url(self):
        assert tokens_of("https://a.tracker.com/pixel?id=123&uid=x") == Counter(
            ["a", "tracker", "com", "pixel", "id", "123", "uid", "x"]
        )

    def test_minimal_url(self):
        assert tokens_of("http://x.com/") == Counter(["x", "com"])

    def test_dash_and_dot_both_split(self):
        assert tokens_of("https://cdn.site.net/a-b.js") == Counter(
            ["cdn", "site", "net", "a", "b", "js"]
        )

    def test_lowercases_and_keeps_duplicates_in_order(self):
        assert tokens_of("HTTP://X.com/x?x=X") == Counter(["x", "com", "x", "x", "x"])

    def test_scheme_stripped_only_as_prefix(self):
        assert tokens_of("https://a.com/https") == Counter(["a", "com", "https"])


class TestVocabulary:
    def test_single_document(self):
        v = build_vocabulary(counts([doc("a.t.net", "other", ["https://a.t.net/b"])]), k=1000, rank_by="df")
        assert v.terms == ["a", "b", "net", "t"]
        assert all(df == 1 for df in v.df.values())
        assert v.corpus_size == 1

    def test_document_frequency_ranks(self):
        docs = [
            doc("a.t.net", "other", ["https://a.t.net/uid"]),
            doc("b.s.net", "other", ["https://b.s.net/uid"]),
            doc("c.r.net", "other", ["https://c.r.net/uid?cdn=1"]),
        ]
        v = build_vocabulary(counts(docs), k=1000, rank_by="df")
        assert v.terms.index("uid") < v.terms.index("cdn")
        assert v.df["uid"] == 3 and v.df["cdn"] == 1

    def test_truncates_to_k(self):
        urls = [f"https://h.x.net/{i:04d}" for i in range(2000)]
        v = build_vocabulary(counts([doc("h.x.net", "other", [u]) for u in urls]), k=1000, rank_by="df")
        assert len(v.terms) == 1000

    def test_tie_break_is_lexicographic(self):
        v = build_vocabulary(counts([doc("b.a.net", "other", ["https://b.a.net/zz"])]), k=2, rank_by="df")
        assert v.terms == sorted(v.terms)

    def test_permutation_invariant(self):
        docs = [
            doc("a.t.net", "other", ["https://a.t.net/x?uid=1"]),
            doc("b.s.net", "other", ["https://b.s.net/y?uid=2"]),
            doc("c.r.net", "other", ["https://c.r.net/z"]),
        ]
        v1 = build_vocabulary(counts(docs), k=1000, rank_by="df")
        v2 = build_vocabulary(counts(list(reversed(docs))), k=1000, rank_by="df")
        assert v1.terms == v2.terms and v1.df == v2.df

    def test_term_frequency_ranking_flag(self):
        docs = [
            doc("a.t.net", "other", {"https://a.t.net/x/x/x/x": 1}),
            doc("b.s.net", "other", ["https://b.s.net/y?uid=1"]),
        ]
        by_df = build_vocabulary(counts(docs), k=3, rank_by="df")
        by_tf = build_vocabulary(counts(docs), k=3, rank_by="tf")
        assert "x" in by_tf.terms[:1]  # four occurrences beat df-1 ties
        assert by_df.terms != by_tf.terms

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary(counts([]), k=1000, rank_by="df")
        # the ranking and the size are the config's to check, once
        with pytest.raises(DataError, match="unknown ranking 'x'"):
            PipelineConfig(vocab_rank="x").validate()

    def test_negative_size_rejected_and_zero_keeps_none(self):
        corpus = counts([doc("a.t.net", "other", ["https://a.t.net/b"])])
        with pytest.raises(DataError, match="vocabulary size"):
            PipelineConfig(vocab_size=-1).validate()
        assert build_vocabulary(corpus, k=0, rank_by="df").terms == []


class TestTfidf:
    """Keyword cells of ``content_rows``: log(1 + f) * log(|D| / (1 + df))."""

    def cell(self, f, corpus_size, df, clamp_idf=False):
        """The cell of term "t" in a document that holds it f times."""
        v = Vocabulary(terms=["t"], df={"t": df}, corpus_size=corpus_size)
        d = doc("a.t.net", "script", ["https://a.t.net/x"])
        _, values, _ = content_rows([d], [{"t": f} if f else {}], v, clamp_idf)
        return values[0, 0]

    def test_absent_term_scores_zero(self):
        assert self.cell(0, 10, 4) == 0.0

    def test_formula_value(self):
        # f=1, |D|=10, df=4 -> ln(2) * ln(10/5)
        expected = math.log(2) * math.log(10 / 5)
        assert self.cell(1, 10, 4) == pytest.approx(expected, rel=1e-12)
        assert round(expected, 4) == 0.4805

    def test_term_in_every_document_goes_negative(self):
        assert self.cell(3, 8, 8) < 0.0

    def test_clamp_idf_floors_at_zero(self):
        assert self.cell(3, 8, 8, clamp_idf=True) == 0.0

    def test_cell_grows_with_frequency(self):
        cells = [self.cell(f, 10, 4) for f in range(12)]
        assert all(a < b for a, b in zip(cells, cells[1:]))

    @given(
        f=st.integers(min_value=0, max_value=50),
        df=st.integers(min_value=1, max_value=40),
        extra=st.integers(min_value=0, max_value=40),
    )
    def test_zero_iff_absent_or_df_boundary(self, f, df, extra):
        corpus = df + extra
        score = self.cell(f, corpus, df)
        assert (score == 0.0) == (f == 0 or corpus == 1 + df)


class TestEngineered:
    def test_hand_counted_fixture(self):
        d = doc("a.com", "script", ["a.com/p?x=1&y=2"])
        assert engineered(d) == [15.0, 1.0, 2.0, 1.0, 0.0]

    def test_no_query_counts_zero(self):
        d = doc("a.com", "media", ["https://a.com/img.png"])
        assert engineered(d)[1:4] == [0.0, 0.0, 0.0]

    def test_mean_length(self):
        d = doc("a.com", "other", ["0123456789", "01234567890123456789"])
        assert engineered(d)[0] == 15.0

    def test_multiplicity_weights_the_mean(self):
        d = doc("a.com", "other", Counter({"0123456789": 3, "01234567890123456789": 1}))
        assert engineered(d)[0] == 12.5

    def test_kind_codes_distinct(self):
        codes = {
            engineered(doc("a.com", kind, ["https://a.com/"]))[4]
            for kind in ("script", "media", "iframe", "other")
        }
        assert codes == {0.0, 1.0, 2.0, 3.0}

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            engineered(doc("a.com", "other", []))


def assemble_vector(document, vocabulary, struct_row):
    """One document's [keywords | engineered | structural] vector, built by
    the same content-row and join functions the pipeline uses."""
    _, values, _ = content_rows(
        [document], [doc_token_counts(document)], vocabulary, clamp_idf=False
    )
    struct = StructMatrix(
        keys=[document.parent],
        columns=[f"s{i}" for i in range(len(struct_row))],
        values=np.array([struct_row], dtype=float),
    )
    return assemble_all_vectors([document.parent], values, struct)[0]


class TestAssemble:
    def test_matches_independent_recomputation(self):
        d = doc("px.t.net", "other", ["https://px.t.net/c?uid=9&uid=8"])
        docs = [d, doc("b.s.net", "script", ["https://b.s.net/lib.js"])]
        v = build_vocabulary(counts(docs), k=6, rank_by="df")
        struct_row = np.array([3.0, 1.0, 2.0])
        vec = assemble_vector(d, v, struct_row)
        assert len(vec) == 6 + 5 + 3

        tokens = doc_token_counts(d)
        for i, term in enumerate(v.terms):
            f = tokens.get(term, 0)
            expected = math.log(1 + f) * math.log(v.corpus_size / (1 + v.df[term]))
            assert vec[i] == pytest.approx(expected, abs=1e-15)
        assert vec[6:11] == pytest.approx(engineered(d))
        assert vec[11:].tolist() == [3.0, 1.0, 2.0]

    def test_absent_vocabulary_terms_exactly_zero(self):
        d = doc("px.t.net", "other", ["https://px.t.net/c"])
        v = Vocabulary(terms=["zzz", "qqq"], df={"zzz": 1, "qqq": 1}, corpus_size=4)
        vec = assemble_vector(d, v, np.zeros(2))
        assert vec[:2].tolist() == [0.0, 0.0]

    def test_same_parent_shares_structural_block(self):
        d1 = doc("px.t.net", "other", ["https://px.t.net/a?uid=1"])
        d2 = doc("sync.t.net", "other", ["https://sync.t.net/b"])
        v = build_vocabulary(counts([d1, d2]), k=8, rank_by="df")
        row = np.array([7.0, 8.0])
        v1 = assemble_vector(d1, v, row)
        v2 = assemble_vector(d2, v, row)
        assert v1[-2:].tolist() == v2[-2:].tolist()
        assert not np.array_equal(v1[:-2], v2[:-2])

    def test_pure_function(self):
        d = doc("px.t.net", "other", ["https://px.t.net/c?uid=9"])
        v = build_vocabulary(counts([d]), k=4, rank_by="df")
        row = np.array([1.0])
        assert np.array_equal(assemble_vector(d, v, row), assemble_vector(d, v, row))


def test_feature_names_layout():
    v = Vocabulary(terms=["uid", "ref"], df={"uid": 2, "ref": 1}, corpus_size=3)
    names = feature_names(v, ["degree"])
    assert names == ["kw:uid", "kw:ref", *ENGINEERED_COLUMNS, "degree"]


def test_vocabulary_file_layout():
    v = build_vocabulary(
        counts([doc("a.t.net", "other", ["https://a.t.net/x?uid=1&ref=2"])]), k=5, rank_by="df"
    )
    lines = save_vocabulary(v).decode("utf-8").splitlines()
    assert lines[:2] == ["widetrack-vocab\tv1", "corpus_size\t1"]
    assert lines[2:] == [f"{t}\t{v.df[t]}" for t in v.terms]
