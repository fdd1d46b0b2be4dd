import gc
import io
import re
from collections import Counter

import numpy as np
import pytest

from widetrack.filters import ADTRACKER, BENIGN, Label, parse_rules
from widetrack.graph import (
    EdgeData,
    GraphIndex,
    NodeKey,
    SubdomainDocument,
    WideGraph,
)
from widetrack.pipeline import (
    DataError,
    PipelineConfig,
    aligned,
    analysis_tables,
    check_override_hosts,
    compute_metrics,
    emit_candidate_rules,
    evaluate,
    filter_eligible,
    load_config,
    read_content_matrix,
    read_labels_file,
    read_overrides,
    read_scores_file,
    read_struct_matrix,
    score_rows,
    split_keys,
    write_content_matrix,
    write_labels_file,
    write_scores_file,
)
from widetrack.synth import EcosystemConfig


def make_doc(host, kind="script", n_urls=1, sites=("s0.com",)):
    urls = Counter({f"https://{host}/u{i}?uid={i}": 1 for i in range(n_urls)})
    return SubdomainDocument(
        host=host,
        kind=kind,
        urls=urls,
        sites=set(sites),
        parent=NodeKey(".".join(host.split(".")[-2:]), kind),
    )


def graph_with_in_degrees(degree_by_domain):
    """One script node per domain with exactly the requested in-degree."""
    g = WideGraph()
    max_deg = max(degree_by_domain.values())
    for i in range(max_deg):
        root = f"s{i}.com"
        g.roots.add(root)
        fp = NodeKey(root, "firstparty")
        g.nodes[fp] = fp
    for domain, deg in degree_by_domain.items():
        key = NodeKey(domain, "script")
        g.nodes[key] = key
        host = f"px.{domain}"
        g.docs[host, "script"] = SubdomainDocument(
            host, "script", Counter({f"https://{host}/x": 1}),
            {f"s{i}.com" for i in range(deg)}, key,
        )
        for i in range(deg):
            fp = NodeKey(f"s{i}.com", "firstparty")
            g.edges[(fp, key, "script")] = EdgeData(1, {f"s{i}.com"})
    return g


def test_override_host_needs_a_graph_document_not_an_eligible_one():
    g = graph_with_in_degrees({"low.net": 2, "high.net": 3})
    kept, _ = filter_eligible(GraphIndex(g), PipelineConfig().min_in_degree)
    assert [d.host for d in kept] == ["px.high.net"]
    check_override_hosts({"px.low.net": ADTRACKER, "px.high.net": BENIGN}, "o.tsv", g)
    check_override_hosts(None, None, g)
    with pytest.raises(DataError, match="^o.tsv: override host low.net is not the host"):
        check_override_hosts({"px.high.net": BENIGN, "low.net": ADTRACKER}, "o.tsv", g)


class TestFilterEligible:
    def test_boundary_at_three(self):
        g = graph_with_in_degrees({"low.net": 2, "edge.net": 3, "high.net": 7})
        kept, report = filter_eligible(GraphIndex(g), PipelineConfig().min_in_degree)
        hosts = {d.host for d in kept}
        assert hosts == {"px.edge.net", "px.high.net"}
        assert report == {"total": 3, "kept": 2, "removed": 1}

    def test_total_is_kept_plus_removed(self):
        g = graph_with_in_degrees({f"d{i}.net": i + 1 for i in range(6)})
        kept, report = filter_eligible(GraphIndex(g), PipelineConfig().min_in_degree)
        assert report["total"] == report["kept"] + report["removed"]

    def test_threshold_configurable(self):
        g = graph_with_in_degrees({"low.net": 2, "edge.net": 3})
        kept, _ = filter_eligible(GraphIndex(g), min_in_degree=1)
        assert len(kept) == 2


class TestSplit:
    def keys(self, n):
        return [(f"px.d{i:02d}.net", "script") for i in range(n)]

    def test_ten_docs_default_fraction(self):
        train, test = split_keys(self.keys(10), PipelineConfig())
        assert (len(train), len(test)) == (8, 2)

    def test_ceil_rounding(self):
        train, test = split_keys(self.keys(5), PipelineConfig(train_frac=0.5))
        assert (len(train), len(test)) == (3, 2)

    def test_same_seed_same_split(self):
        keys = self.keys(20)
        reordered = list(reversed(keys))
        s1 = split_keys(keys, PipelineConfig(split_seed=77))
        s2 = split_keys(reordered, PipelineConfig(split_seed=77))
        for rows1, rows2 in zip(s1, s2):
            assert [keys[i] for i in rows1] == [reordered[i] for i in rows2]

    def test_disjoint_and_exhaustive(self):
        train, test = split_keys(self.keys(13), PipelineConfig(train_frac=0.7, split_seed=5))
        assert not set(train) & set(test)
        assert sorted(train + test) == list(range(13))

    def test_large_corpus_rounding(self):
        keys = [(f"h{i:05d}.net", "script") for i in range(18979)]
        train, test = split_keys(keys, PipelineConfig(train_frac=0.8, split_seed=1))
        assert (len(train), len(test)) == (15184, 3795)

    def test_stratified_keeps_both_classes_in_train(self):
        labels = [
            Label(ADTRACKER if i < 2 else BENIGN) for i in range(10)
        ]
        train, test = split_keys(self.keys(10), PipelineConfig(stratified=True), labels)
        assert {labels[i].label for i in train} == {ADTRACKER, BENIGN}

    def test_bad_inputs_rejected(self):
        with pytest.raises(DataError):
            split_keys(self.keys(1), PipelineConfig())
        with pytest.raises(DataError, match="stratified split needs labels"):
            split_keys(self.keys(4), PipelineConfig(stratified=True))
        # the config checks the fraction once, before any stage
        for frac in (1.0, 0.0):
            with pytest.raises(DataError, match=r"train fraction must be in \(0, 1\)"):
                PipelineConfig(train_frac=frac).validate()


class TestMetrics:
    def test_perfect_predictor(self):
        rows = [(ADTRACKER, ADTRACKER, 1.0)] * 4 + [(BENIGN, BENIGN, 1.0)] * 6
        rep = compute_metrics(rows, "unbiased", corrected=False)
        assert rep.accuracy == 1.0
        assert rep.precision == {ADTRACKER: 1.0, BENIGN: 1.0}
        assert rep.recall == {ADTRACKER: 1.0, BENIGN: 1.0}
        assert rep.macro_precision == 1.0

    def test_weighted_accuracy_hand_computed(self):
        # weight-9 doc correct, weight-1 doc wrong
        rows = [(ADTRACKER, ADTRACKER, 9.0), (BENIGN, ADTRACKER, 1.0)]
        rep = compute_metrics(rows, "biased", corrected=False)
        assert rep.accuracy == pytest.approx(0.9)
        uniform = [(t, p, 1.0) for t, p, _ in rows]
        assert compute_metrics(uniform, "unbiased", False).accuracy == pytest.approx(0.5)

    def test_confusion_sums_to_weighted_total(self):
        rows = [
            (ADTRACKER, ADTRACKER, 2.0),
            (ADTRACKER, BENIGN, 3.0),
            (BENIGN, ADTRACKER, 1.0),
            (BENIGN, BENIGN, 4.0),
        ]
        rep = compute_metrics(rows, "biased", corrected=False)
        assert rep.total_weight == 10.0
        assert sum(sum(r.values()) for r in rep.confusion.values()) == 10.0
        assert rep.accuracy == pytest.approx(0.6)
        assert rep.macro_precision == pytest.approx(
            (rep.precision[ADTRACKER] + rep.precision[BENIGN]) / 2
        )

    def test_report_text_renders(self):
        rep = compute_metrics([(ADTRACKER, ADTRACKER, 1.0)], "unbiased", False)
        text = rep.to_text()
        assert "unbiased" in text and "accuracy" in text


class TestEvaluatePredictions:
    def fixture(self):
        docs = [
            make_doc("px.t.net", sites=(f"s{i}.com" for i in range(9))),
            make_doc("cdn.good.org", sites=("s0.com",)),
        ]
        labels = [Label(ADTRACKER), Label(BENIGN)]
        return docs, labels

    def test_biased_vs_unbiased_weighting(self):
        docs, labels = self.fixture()
        predictions = [1, 1]  # px.t.net correct, weight 9; cdn.good.org wrong, weight 1
        biased = evaluate(docs, labels, predictions, [0, 1], "biased", "sites")
        unbiased = evaluate(docs, labels, predictions, [0, 1], "unbiased", "sites")
        assert biased.accuracy == pytest.approx(0.9)
        assert unbiased.accuracy == pytest.approx(0.5)
        # only the rows named are scored
        held_out = evaluate(docs, labels, predictions, [1], "biased", "sites")
        assert (held_out.accuracy, held_out.total_weight) == (0.0, 1.0)

    def test_equal_weights_make_modes_agree(self):
        docs, labels = self.fixture()
        docs[0].sites = {"s0.com"}
        predictions = [1, 0]
        biased = evaluate(docs, labels, predictions, [0, 1], "biased", "sites")
        unbiased = evaluate(docs, labels, predictions, [0, 1], "unbiased", "sites")
        assert biased.to_dict() | {"mode": ""} == unbiased.to_dict() | {"mode": ""}

    def test_overrides_correct_false_positives(self):
        docs, labels = self.fixture()
        predictions = [1, 1]  # cdn.good.org: model right, list wrong
        plain = evaluate(docs, labels, predictions, [0, 1], "unbiased", "sites")
        corrected = evaluate(
            docs, labels, predictions, [0, 1], "unbiased", "sites", {"cdn.good.org": ADTRACKER}
        )
        assert corrected.corrected
        assert corrected.accuracy >= plain.accuracy
        assert corrected.accuracy == 1.0

    def test_missing_label_and_vector_named(self):
        """A file's rows join onto the documents' rows by (host, kind); a
        document the file lacks is named."""
        docs, labels = self.fixture()
        keys = [(d.host, d.kind) for d in docs]
        table = dict(zip(keys, labels))
        assert aligned(keys[::-1], table, "label") == labels[::-1]
        with pytest.raises(DataError, match=r"^document px.t.net \(script\) has no prediction$"):
            aligned(keys, {}, "prediction")
        del table[("px.t.net", "script")]
        with pytest.raises(DataError, match=r"^document px.t.net \(script\) has no label$"):
            aligned(keys, table, "label")


class TestScoreRows:
    def test_training_rows_out_of_bag_and_the_rest_full(self):
        from widetrack import forest

        # X's first 20 rows are the training rows, as run-all lays X out.
        rng = np.random.default_rng(3)
        X = rng.random((30, 4))
        y = (X[:, 0] + 0.3 * rng.random(30) > 0.6).astype(np.int64)
        model = forest.train(X[:20], y[:20], forest.ForestParams(n_trees=9, seed=1))
        oob_preds, oob_scores = forest.oob_predict(model, X[:20])
        full_preds, full_scores = forest.predict(model, X)
        expected = list(zip(full_preds.tolist(), full_scores.tolist(), ["full"] * 30))
        assert score_rows(model, X) == expected
        for i in range(20):
            expected[i] = (int(oob_preds[i]), float(oob_scores[i]), "oob")
        scored = score_rows(model, X, 20)
        assert scored == expected
        assert score_rows(model, X[:20], 20) == expected[:20]
        # the full forest echoes training labels the out-of-bag votes do not
        assert any(scored[i][1] != full_scores[i] for i in range(20))


class TestEmitCandidateRules:
    def graph_for(self, docs):
        g = WideGraph()
        g.roots.add("s0.com")
        fp = NodeKey("s0.com", "firstparty")
        g.nodes[fp] = fp
        for doc in docs:
            g.nodes[doc.parent] = doc.parent
            g.docs[doc.host, doc.kind] = doc
            g.edges[(fp, doc.parent, doc.kind)] = EdgeData(1, {"s0.com"})
        return g

    def test_already_blocked_host_not_emitted(self):
        doc = make_doc("px.known.net")
        g = self.graph_for([doc])
        rules = parse_rules("||px.known.net^")
        text = emit_candidate_rules(GraphIndex(g), [doc], [(1, 0.99)], rules)
        assert "||px.known.net^" not in text.splitlines()

    def test_unblocked_predicted_tracker_emitted(self):
        doc = make_doc("data.sparkflow.net")
        g = self.graph_for([doc])
        rules = parse_rules("||px.other.net^")
        lines = emit_candidate_rules(GraphIndex(g), [doc], [(1, 0.87)], rules).splitlines()
        assert "||data.sparkflow.net^" in lines
        comment = lines[lines.index("||data.sparkflow.net^") - 1]
        assert "score=0.8700" in comment and "direct_coverage=" in comment

    def test_benign_predictions_not_emitted(self):
        doc = make_doc("cdn.good.org")
        g = self.graph_for([doc])
        text = emit_candidate_rules(GraphIndex(g), [doc], [(0, 0.2)], parse_rules(""))
        assert "cdn.good.org" not in text

    def test_empty_predictions_still_header(self):
        g = self.graph_for([])
        text = emit_candidate_rules(GraphIndex(g), [], [], parse_rules(""))
        assert text.startswith("!")
        assert "0 candidate(s)" in text

    def test_sorted_by_score_descending(self):
        d1, d2 = make_doc("a.one.net"), make_doc("b.two.net")
        g = self.graph_for([d1, d2])
        text = emit_candidate_rules(GraphIndex(g), [d1, d2], [(1, 0.6), (1, 0.9)], parse_rules(""))
        rules = [l for l in text.splitlines() if l.startswith("||")]
        assert rules == ["||b.two.net^", "||a.one.net^"]


class TestEmitWithRunAllLabels:
    def test_list_labelled_trackers_are_not_matched_again(self, tmp_path, monkeypatch):
        from widetrack import pipeline
        from widetrack.synth import EcosystemConfig, generate

        corpus = generate(EcosystemConfig(n_sites=30, n_trackers=15, n_benign=10, seed=7))
        paths = corpus.write(tmp_path)
        trackers = sorted(h for (h, _), lab in corpus.truth_labels.items() if lab == ADTRACKER)
        withheld = set(trackers[::5])
        rules = tmp_path / "withheld-rules.txt"
        rules.write_text("".join(r + "\n" for r in corpus.truth_rules if r[2:-1] not in withheld))
        emit, block_matched = pipeline.emit_candidate_rules, pipeline.document_block_matched
        seen = []
        monkeypatch.setattr(
            pipeline, "emit_candidate_rules", lambda *args: seen.append(args) or emit(*args)
        )
        pipeline.run_all(
            PipelineConfig(
                har_dir=paths["har_dir"], rules_files=[rules], out_dir=tmp_path / "out",
                n_trees=20,
            )
        )
        (index, docs, scored, ruleset, labels), = seen
        matched = []
        monkeypatch.setattr(
            pipeline, "document_block_matched",
            lambda r, d: matched.append((d.host, d.kind)) or block_matched(r, d),
        )
        text = emit(index, docs, scored, ruleset, labels)
        assert text == (tmp_path / "out" / "candidate-rules.txt").read_text()
        listed = {(d.host, d.kind) for d, lab in zip(docs, labels) if lab.label == ADTRACKER}
        predicted = {(d.host, d.kind) for d, (pred, _, _) in zip(docs, scored) if pred == 1}
        assert predicted & listed and predicted - listed
        assert sorted(matched) == sorted(predicted - listed)
        matched.clear()
        assert emit(index, docs, scored, ruleset) == text
        assert sorted(matched) == sorted(predicted)
        assert "||" in text


class TestFileFormats:
    def test_labels_round_trip(self):
        labels = {
            ("px.t.net", "script"): Label(ADTRACKER),
            ("cdn.good.org", "media"): Label(BENIGN),
        }
        data = write_labels_file(list(labels), list(labels.values()))
        assert data.splitlines()[1:] == [
            b"px.t.net\tscript\tadtracker\tfilterlist", b"cdn.good.org\tmedia\tbenign\tfilterlist"
        ]
        assert read_labels_file(data) == labels

    @pytest.mark.parametrize("source", ["override", "list"])
    def test_labels_source_is_filterlist(self, source):
        """Every label is the lists' verdict; no writer gives another source."""
        data = f"host\tkind\tlabel\tsource\npx.t.net\tscript\tbenign\t{source}\n".encode()
        with pytest.raises(
            DataError, match=f"^labels file: line 2: unknown label source '{source}' for px.t.net$"
        ):
            read_labels_file(data)

    def test_table_lines_end_at_newline_only(self):
        """A cell holding a form feed or U+2028 stays in its row, which is
        named by its own line, and CRLF tables read as LF ones."""
        header = "host\tkind\tlabel\tsource"
        for char in ("\x0c", "\u2028", "\x1c"):
            data = f"{header}\npx.t.net\tscript\tbenign\tfilter{char}list\n".encode()
            with pytest.raises(DataError) as err:
                read_labels_file(data)
            cell = f"filter{char}list"
            assert str(err.value) == (
                f"labels file: line 2: unknown label source {cell!r} for px.t.net"
            )
        lf = f"{header}\npx.t.net\tscript\tbenign\tfilterlist\n"
        assert read_labels_file(lf.replace("\n", "\r\n").encode()) == read_labels_file(lf.encode())
        content = "host\tkind\ta\r\npx.t.net\tscript\t1.5\r\n"
        keys, columns, values = read_content_matrix(content.encode())
        assert (keys, columns, values.tolist()) == ([("px.t.net", "script")], ["a"], [[1.5]])

    def test_labels_reject_garbage(self):
        with pytest.raises(DataError):
            read_labels_file(b"whatever\n")

    def test_scores_round_trip(self):
        keys = [("px.t.net", "script"), ("cdn.x.org", "media")]
        scores = read_scores_file(write_scores_file(keys, [(1, 0.75, "full"), (0, 0.1, "oob")]))
        assert scores == {("px.t.net", "script"): (1, 0.75), ("cdn.x.org", "media"): (0, 0.1)}

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cells_name_their_line(self, cell):
        content = f"host\tkind\ta\tb\npx.t.net\tscript\t1.0\t2.0\nq.t.net\tscript\t0.5\t{cell}\n"
        with pytest.raises(
            DataError, match="^content matrix: line 3: bad content matrix value$"
        ):
            read_content_matrix(content.encode())
        struct = f"domain\tkind\ta\nt.net\tscript\t{cell}\n"
        with pytest.raises(
            DataError, match="^structural matrix: line 2: bad structural matrix value$"
        ):
            read_struct_matrix(struct.encode())
        scores = f"host\tkind\tprediction\tscore\tbasis\npx.t.net\tscript\tadtracker\t{cell}\tfull\n"
        with pytest.raises(
            DataError, match=f"^scores file: line 2: bad score '{cell}' for px.t.net$"
        ):
            read_scores_file(scores.encode())

    @pytest.mark.parametrize(
        "read, header, row",
        [
            (read_labels_file, "host\tkind\tlabel\tsource", "px.t.net\tscript\tbenign\tfilterlist"),
            (read_scores_file, "host\tkind\tprediction\tscore\tbasis",
             "px.t.net\tscript\tbenign\t0.5\tfull"),
            (read_content_matrix, "host\tkind\ta", "px.t.net\tscript\t1.0"),
            (read_struct_matrix, "domain\tkind\ta", "px.t.net\tscript\t1.0"),
        ],
        ids=["labels", "scores", "content", "structural"],
    )
    def test_repeated_key_names_both_lines(self, read, header, row):
        """A second row with an earlier row's first two cells would silently
        replace it; the same host under another kind is a different key."""
        other_kind = row.replace("script", "media")
        read(f"{header}\n{row}\n{other_kind}\n".encode())
        what = {
            read_labels_file: "labels file",
            read_scores_file: "scores file",
            read_content_matrix: "content matrix",
            read_struct_matrix: "structural matrix",
        }[read]
        message = f"^{what}: line 5: {what} row repeats the key of line 2$"
        with pytest.raises(DataError, match=message):
            read(f"{header}\n{row}\n{other_kind}\n\n{row.replace('1.0', '5.0')}\n".encode())

    def test_content_matrix_round_trip(self):
        from widetrack.content import build_vocabulary, content_rows, doc_token_counts

        docs = [make_doc("cdn.good.org", kind="media"), make_doc("px.t.net", n_urls=3)]
        counts = [doc_token_counts(d) for d in docs]
        vocab = build_vocabulary(counts, k=10, rank_by="df")
        columns, values, _ = content_rows(docs, counts, vocab, clamp_idf=False)
        table = io.BytesIO()
        write_content_matrix([(d.host, d.kind) for d in docs], columns, values, table)
        keys, columns, values = read_content_matrix(table.getvalue())
        assert keys == [("cdn.good.org", "media"), ("px.t.net", "script")]
        assert len(columns) == 10 + 5
        assert values.shape == (2, 15)

    def test_content_matrix_read_inverts_write_exactly(self):
        from widetrack.content import build_vocabulary, content_rows, doc_token_counts

        docs = [make_doc("px.t.net", n_urls=3), make_doc("cdn.good.org", kind="media")]
        counts = [doc_token_counts(d) for d in docs]
        vocab = build_vocabulary(counts, k=10, rank_by="df")
        columns, values, _ = content_rows(docs, counts, vocab, clamp_idf=False)
        keys = [(d.host, d.kind) for d in docs]
        table = io.BytesIO()
        write_content_matrix(keys, columns, values, table)
        read = read_content_matrix(table.getvalue())
        assert read[0] == keys and read[1] == columns
        assert np.array_equal(read[2], values)


class TestAnalysisTables:
    def test_shapes_and_direction(self):
        from widetrack.content import build_vocabulary, content_rows, doc_token_counts

        g = graph_with_in_degrees({"t.net": 6, "ads.net": 4, "good.org": 3})
        docs = g.documents()
        label = {
            "px.t.net": Label(ADTRACKER),
            "px.ads.net": Label(ADTRACKER),
            "px.good.org": Label(BENIGN),
        }
        counts = [doc_token_counts(d) for d in docs]
        vocab = build_vocabulary(counts, k=10, rank_by="df")
        _, _, doc_terms = content_rows(docs, counts, vocab, clamp_idf=False)
        tables = analysis_tables(
            GraphIndex(g), docs, [label[d.host] for d in docs], vocab, doc_terms
        )
        assert sum(b["adtracker"] + b["benign"] for b in tables["degree_buckets"]) == 3
        assert set(tables["direct_coverage_ccdf"]) == {ADTRACKER, BENIGN}
        for points in tables["direct_coverage_ccdf"].values():
            assert all(0.0 <= p["ccdf"] <= 1.0 for p in points)
        # "t" is in px.t.net's URL alone: one of the two AdTrackers, no benign one
        assert [row["term"] for row in tables["top_keywords"]] == vocab.terms
        rates = {row["term"]: row for row in tables["top_keywords"]}
        assert rates["t"] == {"term": "t", ADTRACKER: 0.5, BENIGN: 0.0}


class TestRunAllWithOverrides:
    def test_corrected_reports_emitted(self, tmp_path):
        from widetrack.pipeline import run_all
        from widetrack.synth import EcosystemConfig, generate

        corpus = generate(
            EcosystemConfig(
                n_sites=20, n_trackers=6, n_benign=5,
                tracker_embed_prob=0.5, benign_embed_prob=0.2, bounce_prob=0.3, seed=23,
            )
        )
        paths = corpus.write(tmp_path)
        # flag one benign host as a tracker the lists missed
        benign_host = sorted(
            host for (host, _), lab in corpus.truth_labels.items() if lab == BENIGN
        )[0]
        overrides = tmp_path / "overrides.tsv"
        overrides.write_text(f"{benign_host}\tadtracker\n")
        cfg = PipelineConfig(
            har_dir=paths["har_dir"],
            rules_files=[paths["rules"]],
            out_dir=tmp_path / "out",
            overrides_file=overrides,
            n_trees=40,
            vocab_size=300,
        )
        summary = run_all(cfg)
        assert "corrected_unbiased" in summary["reports"]
        assert summary["reports"]["corrected_unbiased"]["corrected"] is True
        assert summary["reports"]["unbiased"]["corrected"] is False
        assert (tmp_path / "out" / "report.json").exists()


def test_overrides_lines_end_at_newline_only(tmp_path):
    """A comment holding U+2028 or a form feed stays one comment line, and
    CRLF line ends read as LF ones."""
    path = tmp_path / "overrides.tsv"
    path.write_text("# a\u2028b\r\n! c\x0cd\r\npx.t.net\tadtracker\r\n", newline="")
    assert read_overrides(path) == {"px.t.net": "adtracker"}


def test_parse_overrides(tmp_path):
    path = tmp_path / "overrides.tsv"
    path.write_text("# note\npx.t.net\tadtracker\n! note\ncdn.good.org\tbenign\n")
    assert read_overrides(path) == {"px.t.net": "adtracker", "cdn.good.org": "benign"}
    assert read_overrides(None) is None
    for text, message in [
        ("px.t.net\tmaybe\n", "line 1: bad override 'px.t.net\\tmaybe'"),
        ("px.t.net adtracker\n", "line 1: bad override 'px.t.net adtracker'"),
        # A later line would silently replace the earlier label.
        ("px.t.net\tadtracker\n# note\npx.t.net\tbenign\n",
         "line 3: override for px.t.net repeats line 1"),
        # Every document host is lower-case, so this line could never apply.
        ("px.t.net\tadtracker\nPX.T.NET\tbenign\n",
         "line 2: override host PX.T.NET is not lower-case"),
    ]:
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_overrides(path)


class TestEachFactOnce:
    def test_run_all_splits_each_host_once_per_capture(self, tmp_path, monkeypatch):
        """urlsplit reads each origin once per run, whatever capture it is in."""
        import json

        from widetrack import graph, ingest
        from widetrack.pipeline import run_all
        from widetrack.synth import EcosystemConfig, generate

        paths = generate(EcosystemConfig(n_sites=12, n_trackers=5, n_benign=4, seed=3)).write(
            tmp_path
        )
        # Each capture also loads two of its page's services by an origin
        # plus only a query or only a fragment: "https://host?q", "https://host#f".
        for har in paths["har_dir"].glob("*.har"):
            data = json.loads(har.read_bytes())
            entries = data["log"]["entries"]
            for entry, tail in zip(entries[3:5], ("?q", "#f")):
                url = entry["request"]["url"]
                request = {"method": "GET", "url": url[: url.index("/", 8)] + tail}
                entries.append({**entry, "request": request})
            har.write_text(json.dumps(data))
        ingest._origin_host.cache_clear()
        calls = Counter()
        # Graph reads hosts only through ingest.url_host, and only when
        # loading a graph file; the matcher reads each document's host.
        for module, name in ((ingest, "url_host"), (ingest, "urlsplit"), (graph, "url_host")):
            original = getattr(module, name)

            def counted(url, *args, _original=original, _name=f"{module.__name__}.{name}"):
                calls[_name] += 1
                return _original(url, *args)

            monkeypatch.setattr(module, name, counted)
        summary = run_all(
            PipelineConfig(
                har_dir=paths["har_dir"], rules_files=[paths["rules"]],
                out_dir=tmp_path / "out", n_trees=10, min_in_degree=1,
            )
        )
        captures = [
            [e["request"]["url"] for e in json.loads(har.read_bytes())["log"]["entries"]]
            for har in paths["har_dir"].glob("*.har")
        ]
        urls = [url for capture in captures for url in capture]

        def origin(url):
            return url[: min(i for i in map(url.find, "/?#", [8] * 3) if i >= 0)]

        origins = set(map(origin, urls))
        assert summary["ingest_skips"] == {}
        assert any(url.endswith("?q") for url in urls) and any(url.endswith("#f") for url in urls)
        # Every URL is an "http(s)://host" origin followed by a path, a query
        # or a fragment, so urlsplit reads each origin once for the whole run,
        # and some origins recur in more than one capture.
        assert calls == Counter(
            {"widetrack.ingest.url_host": len(urls), "widetrack.ingest.urlsplit": len(origins)}
        )
        assert len(origins) < sum(len(set(map(origin, c))) for c in captures)

    def test_run_all_contracts_each_capture_before_parsing_the_next(
        self, tmp_path, monkeypatch
    ):
        from widetrack import graph, pipeline
        from widetrack.synth import EcosystemConfig, generate

        paths = generate(EcosystemConfig(n_sites=12, n_trackers=5, n_benign=4, seed=3)).write(
            tmp_path
        )
        calls = []
        parse, contract = pipeline.parse_har, graph.contract_tree
        monkeypatch.setattr(
            pipeline, "parse_har", lambda data: calls.append("parse") or parse(data)
        )
        monkeypatch.setattr(
            graph, "contract_tree", lambda *args: calls.append("contract") or contract(*args)
        )
        summary = pipeline.run_all(
            PipelineConfig(
                har_dir=paths["har_dir"], rules_files=[paths["rules"]],
                out_dir=tmp_path / "out", n_trees=10, min_in_degree=1,
            )
        )
        # At most one tree is alive at a time.
        assert summary["sites"] == 12
        assert calls == ["parse", "contract"] * 12

    def test_content_features_tokenizes_each_document_once(self, monkeypatch):
        from widetrack import content
        from widetrack.pipeline import content_features

        docs = [make_doc(f"px{i}.t{i}.net", n_urls=2 + i % 3) for i in range(8)]
        train, _ = split_keys([(d.host, d.kind) for d in docs], PipelineConfig())
        seen = []
        tokenize = content.doc_token_counts
        monkeypatch.setattr(
            content, "doc_token_counts", lambda d: seen.append(d.host) or tokenize(d)
        )
        vocabulary, (_, values, _) = content_features(docs, train, PipelineConfig())
        assert sorted(seen) == sorted(d.host for d in docs)
        assert vocabulary.corpus_size == len(train) < len(docs)
        assert len(values) == len(docs)


class TestPipelineConfig:
    def test_from_file_with_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\nhar_dir = /tmp/har\nrules_files = a.txt b.txt\nn_trees = 50\n"
            "train_frac = 0.75\nstratified = true\n"
        )
        cfg = load_config(PipelineConfig, path)
        assert str(cfg.har_dir) == "/tmp/har"
        assert [str(p) for p in cfg.rules_files] == ["a.txt", "b.txt"]
        assert cfg.n_trees == 50
        assert cfg.train_frac == 0.75
        assert cfg.stratified is True
        assert cfg.vocab_size == 1000  # untouched default
        assert cfg.mtry is None

    @pytest.mark.parametrize("char", ["\x0c", "\u2028", "\x0b"])
    def test_lines_end_at_newline_only(self, tmp_path, char):
        """A comment holding a form feed or U+2028 is one line, and the
        lines after it keep their numbers."""
        path = tmp_path / "run.cfg"
        path.write_text(f"# one{char}more\nn_trees = 5\nno_such_knob = 1\n")
        with pytest.raises(DataError) as err:
            load_config(PipelineConfig, path)
        assert str(err.value) == f"{path}: line 3: unknown config key 'no_such_knob'"

    def test_crlf_config_reads(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# forest\r\nn_trees = 5\r\nstratified = yes\r\n", newline="")
        cfg = load_config(PipelineConfig, path)
        assert (cfg.n_trees, cfg.stratified) == (5, True)
        path.write_text("# forest\r\nn_trees = ten\r\n", newline="")
        with pytest.raises(DataError) as err:
            load_config(PipelineConfig, path)
        assert str(err.value) == f"{path}: line 2: bad value for n_trees: 'ten'"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("no_such_knob = 1\n")
        with pytest.raises(DataError):
            load_config(PipelineConfig, path)

    def test_unknown_key_names_its_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# forest\nn_trees = 5\nno_such_knob = 1\n")
        with pytest.raises(DataError) as err:
            load_config(PipelineConfig, path)
        assert str(err.value) == f"{path}: line 3: unknown config key 'no_such_knob'"

    @pytest.mark.parametrize(
        "cls, key", [(PipelineConfig, "n_trees"), (EcosystemConfig, "n_sites")]
    )
    def test_repeated_key_names_both_lines(self, tmp_path, cls, key):
        """A later line would silently replace the earlier one; run and
        synth configs share the loader."""
        path = tmp_path / "run.cfg"
        path.write_text(f"# sizes\n{key} = 30\n\n{key} = 5\n")
        with pytest.raises(DataError) as err:
            load_config(cls, path)
        assert str(err.value) == f"{path}: line 4: config key {key} repeats line 2"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(DataError):
            load_config(PipelineConfig, path)

    def test_value_that_does_not_convert_names_key_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# forest\nforest_seed = 3\nn_trees = ten\n")
        with pytest.raises(DataError) as err:
            load_config(PipelineConfig, path)
        assert str(err.value) == f"{path}: line 3: bad value for n_trees: 'ten'"

    @pytest.mark.parametrize(
        "word, value",
        [(w, True) for w in ("true", "YES", "On", "1")]
        + [(w, False) for w in ("false", "No", "OFF", "0")],
    )
    def test_boolean_spellings(self, tmp_path, word, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"stratified = {word}\n")
        assert load_config(PipelineConfig, path).stratified is value

    @pytest.mark.parametrize("word", ["ture", "", "2", "y"])
    def test_misspelled_boolean_rejected(self, tmp_path, word):
        path = tmp_path / "run.cfg"
        path.write_text(f"stratified = {word}\n")
        message = f"^{re.escape(str(path))}: line 1: bad value for stratified: "
        with pytest.raises(DataError, match=message):
            load_config(PipelineConfig, path)


def small_run_config(tmp_path) -> PipelineConfig:
    """A run-all config over a small synthetic corpus written under tmp_path."""
    from widetrack.synth import generate

    paths = generate(EcosystemConfig(n_sites=12, n_trackers=5, n_benign=4, seed=3)).write(
        tmp_path
    )
    return PipelineConfig(
        har_dir=paths["har_dir"], rules_files=[paths["rules"]],
        out_dir=tmp_path / "out", n_trees=10, min_in_degree=1,
    )


class TestFeatureMatrixInPlace:
    def test_the_forest_reads_one_feature_matrix_in_place(self, tmp_path, monkeypatch):
        """run-all builds X once, training rows first, and hands forest.train,
        oob_predict and predict row ranges of it, not copies."""
        from widetrack import forest, pipeline
        from widetrack.pipeline import run_all

        built, handed = [], {}
        assemble = pipeline.assemble_all_vectors

        def assembled(*args):
            built.append(assemble(*args))
            return built[-1]

        monkeypatch.setattr(pipeline, "assemble_all_vectors", assembled)
        for name, at in (("train", 0), ("oob_predict", 1), ("predict", 1)):

            def recorded(*args, _name=name, _at=at, _original=getattr(forest, name)):
                handed.setdefault(_name, []).append(args[_at])
                return _original(*args)

            monkeypatch.setattr(forest, name, recorded)
        summary = run_all(small_run_config(tmp_path))
        [X] = built
        n_train = summary["split"]["train"]
        # score_rows calls predict on the test rows last, after any fallback
        matrices = [handed["train"][0], handed["oob_predict"][0], handed["predict"][-1]]
        assert [len(m) for m in matrices] == [n_train, n_train, len(X) - n_train]
        assert all(np.shares_memory(m, X) for m in matrices)


class TestCollectorPause:
    """build_widegraph and run_all pause the cyclic collector while they
    run, and put back the caller's setting."""

    @pytest.fixture
    def har_dir(self, tmp_path):
        from widetrack.synth import generate

        corpus = generate(EcosystemConfig(n_sites=12, n_trackers=5, n_benign=4, seed=3))
        return corpus.write(tmp_path)["har_dir"]

    @staticmethod
    def build(har_dir):
        from widetrack.graph import build_widegraph
        from widetrack.pipeline import IngestTally, ingest_har_dir

        return build_widegraph(ingest_har_dir(har_dir, io.BytesIO(), IngestTally()))

    def test_ingest_contraction_and_save_leave_no_cyclic_garbage(self, har_dir):
        from widetrack.graph import save_graph

        gc.collect()
        gc.disable()
        try:
            save_graph(self.build(har_dir), io.BytesIO())
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_collector_is_off_during_the_build_and_back_on_after(self, har_dir, monkeypatch):
        from widetrack import pipeline

        seen = []
        build_tree = pipeline.build_tree
        monkeypatch.setattr(
            pipeline, "build_tree", lambda record: seen.append(gc.isenabled()) or build_tree(record)
        )
        assert gc.isenabled()
        self.build(har_dir)
        assert seen == [False] * 12
        assert gc.isenabled()

    def test_collector_is_back_on_after_a_bad_capture(self, har_dir):
        (har_dir / "zz.har").write_bytes(b'{"log": {"entries": []}}')
        with pytest.raises(DataError, match="zz.har"):
            self.build(har_dir)
        assert gc.isenabled()

    def test_collector_stays_off_when_the_caller_turned_it_off(self, har_dir):
        gc.disable()
        try:
            self.build(har_dir)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_is_off_through_run_all_and_back_on_after(self, tmp_path, monkeypatch):
        from widetrack import forest, pipeline
        from widetrack.pipeline import run_all

        seen = []
        label, train = pipeline.label_document, forest.train
        monkeypatch.setattr(
            pipeline, "label_document", lambda *args: seen.append(gc.isenabled()) or label(*args)
        )
        monkeypatch.setattr(
            forest, "train", lambda *args: seen.append(gc.isenabled()) or train(*args)
        )
        assert gc.isenabled()
        run_all(small_run_config(tmp_path))
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_collector_is_back_on_after_run_all_raises(self, tmp_path, monkeypatch):
        from widetrack import pipeline
        from widetrack.pipeline import run_all

        def fail(*args):
            raise DataError("training failed")

        monkeypatch.setattr(pipeline, "train_forest", fail)
        with pytest.raises(DataError, match="training failed"):
            run_all(small_run_config(tmp_path))
        assert gc.isenabled()

    def test_collector_stays_off_after_run_all_when_the_caller_turned_it_off(self, tmp_path):
        from widetrack.pipeline import run_all

        gc.disable()
        try:
            run_all(small_run_config(tmp_path))
            assert not gc.isenabled()
        finally:
            gc.enable()
