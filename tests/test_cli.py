import json

import pytest

from widetrack.cli import main
from widetrack.synth import EcosystemConfig, generate


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    corpus = generate(
        EcosystemConfig(
            n_sites=15, n_trackers=5, n_benign=4,
            tracker_embed_prob=0.5, benign_embed_prob=0.15, bounce_prob=0.4, seed=17,
        )
    )
    corpus.write(out)
    return out


def test_full_command_chain(corpus_dir, tmp_path, capsys):
    har_dir = str(corpus_dir / "har")
    rules = str(corpus_dir / "truth-rules.txt")
    trees = str(tmp_path / "trees.jsonl")
    graph = str(tmp_path / "graph.jsonl")
    struct = str(tmp_path / "structural.tsv")
    content = str(tmp_path / "content.tsv")
    vocab = str(tmp_path / "vocab.tsv")
    labels = str(tmp_path / "labels.tsv")
    model = str(tmp_path / "model.txt")
    scores = str(tmp_path / "scores.tsv")
    report = str(tmp_path / "report.json")
    candidates = str(tmp_path / "candidates.txt")

    assert main(["ingest", "--har-dir", har_dir, "--out", trees]) == 0
    assert main(["graph", "build", "--trees", trees, "--out", graph]) == 0
    assert main(["graph", "stats", "--graph", graph]) == 0
    assert "top coverage" in capsys.readouterr().out
    assert (
        main(["features", "structural", "--graph", graph, "--depth", "1", "--out", struct])
        == 0
    )
    assert (
        main(
            [
                "features", "content", "--graph", graph, "--vocab-size", "200",
                "--out", content, "--vocab-out", vocab,
            ]
        )
        == 0
    )
    assert main(["label", "--graph", graph, "--rules", rules, "--out", labels]) == 0
    assert (
        main(
            [
                "train", "--features", content, struct, "--labels", labels,
                "--trees", "30", "--seed", "5", "--train-frac", "0.8", "--out", model,
            ]
        )
        == 0
    )
    assert main(["predict", "--model", model, "--features", content, struct, "--out", scores]) == 0
    assert (
        main(
            [
                "evaluate", "--graph", graph, "--scores", scores, "--labels", labels,
                "--mode", "both", "--out", report,
            ]
        )
        == 0
    )
    payload = json.loads(open(report).read())
    assert "biased" in payload and "unbiased" in payload
    assert (
        main(["emit-rules", "--graph", graph, "--scores", scores, "--rules", rules, "--out", candidates])
        == 0
    )
    assert open(candidates).read().startswith("!")


def test_label_with_overrides(corpus_dir, tmp_path):
    from widetrack.pipeline import read_labels_file

    trees = str(tmp_path / "trees.jsonl")
    graph = str(tmp_path / "graph.jsonl")
    labels = tmp_path / "labels.tsv"
    overrides = tmp_path / "overrides.tsv"
    main(["ingest", "--har-dir", str(corpus_dir / "har"), "--out", trees])
    main(["graph", "build", "--trees", trees, "--out", graph])
    some_host = sorted(
        line.split("\t")[0]
        for line in (corpus_dir / "truth-labels.tsv").read_text().splitlines()
    )[0]
    overrides.write_text(f"{some_host}\tbenign\n")
    assert (
        main(
            [
                "label", "--graph", graph, "--rules", str(corpus_dir / "truth-rules.txt"),
                "--overrides", str(overrides), "--out", str(labels),
            ]
        )
        == 0
    )
    parsed = read_labels_file(labels.read_bytes())
    keyed = {host: lab for (host, _), lab in parsed.items()}
    assert keyed[some_host].source == "override"
    assert keyed[some_host].label == "benign"


def test_synth_command(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_sites = 4\nn_trackers = 2\nn_benign = 2\nseed = 9\n")
    out = tmp_path / "corpus"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert len(list((out / "har").glob("*.har"))) == 4
    assert (out / "truth-rules.txt").exists()


def test_synth_unknown_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_site = 4\n")
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "c")]) == 2
    assert "n_site" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_ingest_list_initiator(tmp_path):
    har_dir = tmp_path / "har"
    har_dir.mkdir()
    entries = [
        {"startedDateTime": "1", "request": {"url": "https://www.site.com/"}},
        {"startedDateTime": "2", "request": {"url": "https://px.t.net/p"}, "_initiator": ["x"]},
    ]
    (har_dir / "a.har").write_text(json.dumps({"log": {"entries": entries}}))
    assert main(["ingest", "--har-dir", str(har_dir), "--out", str(tmp_path / "t")]) == 0


def test_staged_commands_reproduce_run_all(corpus_dir, tmp_path):
    """The staged CLI and run-all share one content table and one evaluation
    path, so on the default config they write the same bytes and metrics."""
    cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg.write_text(
        f"har_dir = {corpus_dir / 'har'}\n"
        f"rules_files = {corpus_dir / 'truth-rules.txt'}\n"
        f"out_dir = {out_dir}\n"
    )
    assert main(["run-all", "--config", str(cfg)]) == 0
    graph = str(out_dir / "graph.jsonl")
    content = tmp_path / "content.tsv"
    struct = tmp_path / "structural.tsv"
    report = tmp_path / "report.json"
    assert main(["features", "content", "--graph", graph, "--out", str(content)]) == 0
    assert main(["features", "structural", "--graph", graph, "--out", str(struct)]) == 0
    assert content.read_bytes() == (out_dir / "content.tsv").read_bytes()
    assert struct.read_bytes() == (out_dir / "structural.tsv").read_bytes()
    assert (
        main(
            [
                "evaluate", "--graph", graph, "--scores", str(out_dir / "scores.tsv"),
                "--labels", str(out_dir / "labels.tsv"), "--mode", "both",
                "--out", str(report),
            ]
        )
        == 0
    )
    staged = json.loads(report.read_text())
    reports = json.loads((out_dir / "report.json").read_text())["reports"]
    assert staged == {mode: reports[mode] for mode in ("biased", "unbiased")}


def test_run_all_command(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg.write_text(
        f"har_dir = {corpus_dir / 'har'}\n"
        f"rules_files = {corpus_dir / 'truth-rules.txt'}\n"
        f"out_dir = {out_dir}\n"
        "n_trees = 30\nvocab_size = 200\nrefex_depth = 1\n"
    )
    assert main(["run-all", "--config", str(cfg)]) == 0
    assert "unbiased: accuracy" in capsys.readouterr().out
    for name in (
        "trees.jsonl", "graph.jsonl", "structural.tsv", "content.tsv",
        "vocabulary.tsv", "labels.tsv", "model.txt", "scores.tsv",
        "report.json", "report.txt", "candidate-rules.txt",
    ):
        assert (out_dir / name).exists(), name


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["ingest", "--out", "x"])  # missing --har-dir
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1


def test_data_error_exits_two(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["ingest", "--har-dir", str(empty), "--out", str(tmp_path / "t")]) == 2
    missing = str(tmp_path / "missing.jsonl")
    assert main(["graph", "build", "--trees", missing, "--out", str(tmp_path / "g")]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a graph\n")
    assert main(["graph", "stats", "--graph", str(bad)]) == 2
    no_root = tmp_path / "no_root.jsonl"
    no_root.write_text(
        '{"format": "widetrack-trees", "version": 1}\n'
        '{"root_url": "https://a.com/", "nodes": [], "edges": []}\n'
    )
    assert main(["graph", "build", "--trees", str(no_root), "--out", str(tmp_path / "g")]) == 2
