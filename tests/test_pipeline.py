from collections import Counter

import numpy as np
import pytest

from widetrack.filters import ADTRACKER, BENIGN, Label, parse_rules
from widetrack.graph import (
    EdgeData,
    GraphIndex,
    Node,
    NodeKey,
    SubdomainDocument,
    WideGraph,
)
from widetrack.pipeline import (
    DataError,
    PipelineConfig,
    analysis_tables,
    compute_metrics,
    emit_candidate_rules,
    evaluate,
    filter_eligible,
    load_config,
    read_content_matrix,
    read_labels_file,
    read_scores_file,
    read_struct_matrix,
    split_documents,
    split_keys,
    write_content_matrix,
    write_labels_file,
    write_scores_file,
)


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
        g.nodes[fp] = Node(fp)
    for domain, deg in degree_by_domain.items():
        key = NodeKey(domain, "script")
        node = Node(key)
        host = f"px.{domain}"
        node.documents[host] = SubdomainDocument(
            host, "script", Counter({f"https://{host}/x": 1}),
            {f"s{i}.com" for i in range(deg)}, key,
        )
        g.nodes[key] = node
        for i in range(deg):
            fp = NodeKey(f"s{i}.com", "firstparty")
            g.edges[(fp, key, "script")] = EdgeData(1, {f"s{i}.com"})
    return g


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
    def docs(self, n):
        return [make_doc(f"px.d{i:02d}.net") for i in range(n)]

    def test_ten_docs_default_fraction(self):
        train, test = split_documents(self.docs(10), PipelineConfig())
        assert (len(train), len(test)) == (8, 2)

    def test_ceil_rounding(self):
        train, test = split_documents(self.docs(5), PipelineConfig(train_frac=0.5))
        assert (len(train), len(test)) == (3, 2)

    def test_same_seed_same_split(self):
        docs = self.docs(20)
        s1 = split_documents(docs, PipelineConfig(split_seed=77))
        s2 = split_documents(list(reversed(docs)), PipelineConfig(split_seed=77))
        assert [d.host for d in s1[0]] == [d.host for d in s2[0]]

    def test_disjoint_and_exhaustive(self):
        docs = self.docs(13)
        train, test = split_documents(docs, PipelineConfig(train_frac=0.7, split_seed=5))
        train_keys = {(d.host, d.kind) for d in train}
        test_keys = {(d.host, d.kind) for d in test}
        assert not train_keys & test_keys
        assert train_keys | test_keys == {(d.host, d.kind) for d in docs}

    def test_large_corpus_rounding(self):
        keys = [(f"h{i:05d}.net", "script") for i in range(18979)]
        train, test = split_keys(keys, PipelineConfig(train_frac=0.8, split_seed=1))
        assert (len(train), len(test)) == (15184, 3795)

    def test_stratified_keeps_both_classes_in_train(self):
        docs = self.docs(10)
        labels = {
            (d.host, d.kind): Label(ADTRACKER if i < 2 else BENIGN, "filterlist")
            for i, d in enumerate(docs)
        }
        train, test = split_documents(docs, PipelineConfig(stratified=True), labels)
        train_classes = {labels[(d.host, d.kind)].label for d in train}
        assert train_classes == {ADTRACKER, BENIGN}

    def test_bad_inputs_rejected(self):
        with pytest.raises(DataError):
            split_documents(self.docs(1), PipelineConfig())
        with pytest.raises(DataError):
            split_documents(self.docs(5), PipelineConfig(train_frac=1.0))
        with pytest.raises(DataError):
            split_documents(self.docs(5), PipelineConfig(train_frac=0.0))


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
        labels = {
            ("px.t.net", "script"): Label(ADTRACKER, "filterlist"),
            ("cdn.good.org", "script"): Label(BENIGN, "filterlist"),
        }
        return docs, labels

    def test_biased_vs_unbiased_weighting(self):
        docs, labels = self.fixture()
        predictions = {
            ("px.t.net", "script"): (1, 0.9),  # correct, weight 9
            ("cdn.good.org", "script"): (1, 0.8),  # wrong, weight 1
        }
        biased = evaluate(predictions, docs, labels, "biased", "sites")
        unbiased = evaluate(predictions, docs, labels, "unbiased", "sites")
        assert biased.accuracy == pytest.approx(0.9)
        assert unbiased.accuracy == pytest.approx(0.5)

    def test_equal_weights_make_modes_agree(self):
        docs, labels = self.fixture()
        docs[0].sites = {"s0.com"}
        predictions = {
            ("px.t.net", "script"): (1, 0.9),
            ("cdn.good.org", "script"): (0, 0.1),
        }
        biased = evaluate(predictions, docs, labels, "biased", "sites")
        unbiased = evaluate(predictions, docs, labels, "unbiased", "sites")
        assert biased.to_dict() | {"mode": ""} == unbiased.to_dict() | {"mode": ""}

    def test_overrides_correct_false_positives(self):
        docs, labels = self.fixture()
        predictions = {
            ("px.t.net", "script"): (1, 0.9),
            ("cdn.good.org", "script"): (1, 0.8),  # model right, list wrong
        }
        plain = evaluate(predictions, docs, labels, "unbiased", "sites")
        corrected = evaluate(
            predictions, docs, labels, "unbiased", "sites", {"cdn.good.org": ADTRACKER}
        )
        assert corrected.corrected
        assert corrected.accuracy >= plain.accuracy
        assert corrected.accuracy == 1.0

    def test_missing_label_and_vector_named(self):
        docs, labels = self.fixture()
        with pytest.raises(DataError, match="px.t.net"):
            evaluate({}, docs, labels, "unbiased", "sites")
        del labels[("px.t.net", "script")]
        with pytest.raises(DataError, match="px.t.net"):
            evaluate({}, docs, labels, "unbiased", "sites")

    def test_unknown_mode_rejected(self):
        docs, labels = self.fixture()
        with pytest.raises(DataError):
            evaluate({}, docs, labels, "sideways", "sites")


class TestEmitCandidateRules:
    def graph_for(self, docs):
        g = WideGraph()
        g.roots.add("s0.com")
        fp = NodeKey("s0.com", "firstparty")
        g.nodes[fp] = Node(fp)
        for doc in docs:
            g.nodes.setdefault(doc.parent, Node(doc.parent)).documents[doc.host] = doc
            g.edges[(fp, doc.parent, doc.kind)] = EdgeData(1, {"s0.com"})
        return g

    def test_already_blocked_host_not_emitted(self):
        doc = make_doc("px.known.net")
        g = self.graph_for([doc])
        rules = parse_rules("||px.known.net^")
        text = emit_candidate_rules(GraphIndex(g), [(doc, 1, 0.99)], rules)
        assert "||px.known.net^" not in text.splitlines()

    def test_unblocked_predicted_tracker_emitted(self):
        doc = make_doc("data.sparkflow.net")
        g = self.graph_for([doc])
        rules = parse_rules("||px.other.net^")
        lines = emit_candidate_rules(GraphIndex(g), [(doc, 1, 0.87)], rules).splitlines()
        assert "||data.sparkflow.net^" in lines
        comment = lines[lines.index("||data.sparkflow.net^") - 1]
        assert "score=0.8700" in comment and "direct_coverage=" in comment

    def test_benign_predictions_not_emitted(self):
        doc = make_doc("cdn.good.org")
        g = self.graph_for([doc])
        text = emit_candidate_rules(GraphIndex(g), [(doc, 0, 0.2)], parse_rules(""))
        assert "cdn.good.org" not in text

    def test_empty_predictions_still_header(self):
        g = self.graph_for([])
        text = emit_candidate_rules(GraphIndex(g), [], parse_rules(""))
        assert text.startswith("!")
        assert "0 candidate(s)" in text

    def test_sorted_by_score_descending(self):
        d1, d2 = make_doc("a.one.net"), make_doc("b.two.net")
        g = self.graph_for([d1, d2])
        text = emit_candidate_rules(GraphIndex(g), [(d1, 1, 0.6), (d2, 1, 0.9)], parse_rules(""))
        rules = [l for l in text.splitlines() if l.startswith("||")]
        assert rules == ["||b.two.net^", "||a.one.net^"]


class TestFileFormats:
    def test_labels_round_trip(self):
        labels = {
            ("px.t.net", "script"): Label(ADTRACKER, "filterlist"),
            ("cdn.good.org", "media"): Label(BENIGN, "override"),
        }
        assert read_labels_file(write_labels_file(labels)) == labels

    def test_labels_reject_garbage(self):
        with pytest.raises(DataError):
            read_labels_file(b"whatever\n")

    def test_scores_round_trip(self):
        rows = [("px.t.net", "script", 1, 0.75, "full"), ("cdn.x.org", "media", 0, 0.1, "oob")]
        scores = read_scores_file(write_scores_file(rows))
        assert scores == {("px.t.net", "script"): (1, 0.75), ("cdn.x.org", "media"): (0, 0.1)}

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cells_name_their_line(self, cell):
        content = f"host\tkind\ta\tb\npx.t.net\tscript\t1.0\t2.0\nq.t.net\tscript\t0.5\t{cell}\n"
        with pytest.raises(DataError, match="^bad content matrix value on line 3$"):
            read_content_matrix(content.encode())
        struct = f"domain\tkind\ta\nt.net\tscript\t{cell}\n"
        with pytest.raises(DataError, match="^bad structural matrix value on line 2$"):
            read_struct_matrix(struct.encode())
        scores = f"host\tkind\tprediction\tscore\tbasis\npx.t.net\tscript\tadtracker\t{cell}\tfull\n"
        with pytest.raises(DataError, match=f"^bad score '{cell}' for px.t.net on line 2$"):
            read_scores_file(scores.encode())

    def test_content_matrix_round_trip(self):
        from widetrack.content import build_vocabulary, content_rows

        docs = [make_doc("px.t.net", n_urls=3), make_doc("cdn.good.org", kind="media")]
        vocab = build_vocabulary(docs, k=10, rank_by="df")
        keys, columns, values, _ = content_rows(docs, vocab, clamp_idf=False)
        keys, columns, values = read_content_matrix(
            write_content_matrix(keys, columns, values)
        )
        assert keys == [("cdn.good.org", "media"), ("px.t.net", "script")]
        assert len(columns) == 10 + 5
        assert values.shape == (2, 15)

    def test_content_matrix_read_inverts_write_exactly(self):
        from widetrack.content import build_vocabulary, content_rows

        docs = [make_doc("px.t.net", n_urls=3), make_doc("cdn.good.org", kind="media")]
        keys, columns, values, _ = content_rows(docs, build_vocabulary(docs, k=10, rank_by="df"), clamp_idf=False)
        read = read_content_matrix(write_content_matrix(keys, columns, values))
        assert read[0] == keys and read[1] == columns
        assert np.array_equal(read[2], values)


class TestAnalysisTables:
    def test_shapes_and_direction(self):
        g = graph_with_in_degrees({"t.net": 6, "good.org": 3})
        docs = g.documents()
        labels = {
            ("px.t.net", "script"): Label(ADTRACKER, "filterlist"),
            ("px.good.org", "script"): Label(BENIGN, "filterlist"),
        }
        tables = analysis_tables(GraphIndex(g), docs, labels)
        assert sum(b["adtracker"] + b["benign"] for b in tables["degree_buckets"]) == 2
        assert set(tables["direct_coverage_ccdf"]) == {ADTRACKER, BENIGN}
        for points in tables["direct_coverage_ccdf"].values():
            assert all(0.0 <= p["ccdf"] <= 1.0 for p in points)


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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("no_such_knob = 1\n")
        with pytest.raises(DataError):
            load_config(PipelineConfig, path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(DataError):
            load_config(PipelineConfig, path)
