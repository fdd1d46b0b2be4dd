import json

import pytest

from widetrack.cli import main
from widetrack.forest import ForestParams, save_model, train
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
    cfg = tmp_path / "stages.cfg"
    cfg.write_text(
        "refex_depth = 1\nvocab_size = 200\nn_trees = 30\nforest_seed = 5\ntrain_frac = 0.8\n"
    )
    config = ["--config", str(cfg)]

    assert main(["ingest", "--har-dir", har_dir, "--out", trees]) == 0
    assert main(["graph", "build", "--trees", trees, "--out", graph]) == 0
    assert main(["graph", "stats", "--graph", graph]) == 0
    assert "top coverage" in capsys.readouterr().out
    assert main(["features", "structural", "--graph", graph, "--out", struct, *config]) == 0
    assert (
        main(
            [
                "features", "content", "--graph", graph,
                "--out", content, "--vocab-out", vocab, *config,
            ]
        )
        == 0
    )
    assert main(["label", "--graph", graph, "--rules", rules, "--out", labels]) == 0
    assert (
        main(
            [
                "train", "--features", content, struct, "--labels", labels,
                "--out", model, *config,
            ]
        )
        == 0
    )
    assert main(["predict", "--model", model, "--features", content, struct, "--out", scores]) == 0
    assert (
        main(
            [
                "evaluate", "--graph", graph, "--scores", scores, "--labels", labels,
                "--out", report, *config,
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


# Every artifact the staged chain writes as run-all does. scores.tsv and
# candidate-rules.txt are not among them: predict scores every row with the
# full forest, while run-all scores its training rows out-of-bag.
STAGED_ARTIFACTS = (
    "trees.jsonl", "graph.jsonl", "structural.tsv", "content.tsv",
    "vocabulary.tsv", "labels.tsv", "model.txt",
)


def staged_and_run_all(corpus_dir, tmp_path, knobs):
    """Run run-all and the staged chain from one config file; returns the
    two output directories and the staged evaluate reports."""
    cfg = tmp_path / "run.cfg"
    run_dir = tmp_path / "run"
    staged = tmp_path / "staged"
    staged.mkdir()
    cfg.write_text(
        f"har_dir = {corpus_dir / 'har'}\n"
        f"rules_files = {corpus_dir / 'truth-rules.txt'}\n"
        f"out_dir = {run_dir}\n" + knobs
    )
    assert main(["run-all", "--config", str(cfg)]) == 0
    config = ["--config", str(cfg)]
    path = {name: str(staged / name) for name in STAGED_ARTIFACTS}
    graph, labels = path["graph.jsonl"], path["labels.tsv"]
    report = staged / "report.json"
    stages = [
        ["ingest", "--har-dir", str(corpus_dir / "har"), "--out", path["trees.jsonl"]],
        ["graph", "build", "--trees", path["trees.jsonl"], "--out", graph],
        ["features", "structural", "--graph", graph, "--out", path["structural.tsv"], *config],
        [
            "label", "--graph", graph, "--rules", str(corpus_dir / "truth-rules.txt"),
            "--out", labels, *config,
        ],
        [
            "features", "content", "--graph", graph, "--labels", labels,
            "--out", path["content.tsv"], "--vocab-out", path["vocabulary.tsv"], *config,
        ],
        [
            "train", "--features", path["content.tsv"], path["structural.tsv"],
            "--labels", labels, "--out", path["model.txt"], *config,
        ],
        [
            "evaluate", "--graph", graph, "--scores", str(run_dir / "scores.tsv"),
            "--labels", labels, "--out", str(report), *config,
        ],
    ]
    for argv in stages:
        assert main(argv) == 0, argv
    return run_dir, staged, json.loads(report.read_text())


def assert_staged_matches(run_dir, staged, reports):
    for name in STAGED_ARTIFACTS:
        assert (staged / name).read_bytes() == (run_dir / name).read_bytes(), name
    assert reports == json.loads((run_dir / "report.json").read_text())["reports"]


def test_staged_commands_reproduce_run_all(corpus_dir, tmp_path):
    """One non-default config file drives run-all and the staged chain; the
    stages call run-all's own stage functions, so they write the same bytes
    and the same four reports."""
    overrides = tmp_path / "overrides.tsv"
    hosts = sorted(
        line.split("\t")[0]
        for line in (corpus_dir / "truth-labels.tsv").read_text().splitlines()
    )
    overrides.write_text(f"{hosts[0]}\tbenign\n{hosts[-1]}\tadtracker\n")
    run_dir, staged, reports = staged_and_run_all(
        corpus_dir,
        tmp_path,
        "refex_depth = 1\nvocab_size = 200\nvocab_rank = tf\nclamp_idf = true\n"
        "n_trees = 30\nforest_seed = 5\ntrain_frac = 0.75\nweight_by = urls\n"
        f"overrides_file = {overrides}\n",
    )
    assert set(reports) == {"unbiased", "biased", "corrected_unbiased", "corrected_biased"}
    assert_staged_matches(run_dir, staged, reports)


def test_staged_commands_reproduce_run_all_on_default_config(corpus_dir, tmp_path):
    run_dir, staged, reports = staged_and_run_all(corpus_dir, tmp_path, "")
    assert set(reports) == {"unbiased", "biased"}
    assert_staged_matches(run_dir, staged, reports)


def test_staged_commands_reproduce_stratified_run_all(corpus_dir, tmp_path):
    run_dir, staged, reports = staged_and_run_all(
        corpus_dir, tmp_path, "stratified = true\nn_trees = 30\n"
    )
    assert_staged_matches(run_dir, staged, reports)


def test_stratified_content_needs_labels(corpus_dir, tmp_path, capsys):
    trees, graph = str(tmp_path / "trees.jsonl"), str(tmp_path / "graph.jsonl")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stratified = true\n")
    assert main(["ingest", "--har-dir", str(corpus_dir / "har"), "--out", trees]) == 0
    assert main(["graph", "build", "--trees", trees, "--out", graph]) == 0
    argv = [
        "features", "content", "--graph", graph, "--out", str(tmp_path / "c.tsv"),
        "--config", str(cfg),
    ]
    assert main(argv) == 2
    assert "stratified split needs labels" in capsys.readouterr().err


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


def test_data_error_exits_two(corpus_dir, tmp_path, capsys):
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
    capsys.readouterr()

    header = '{"format": "widegraph", "version": 1}\n'
    node = '{"d": "t.net", "k": "script", "t": "node"}\n'
    doc = '{"h": "px.t.net", "k": "%s", "p": ["t.net", "script"], "sites": [], "t": "doc", "urls": []}\n'
    graph = tmp_path / "graph.jsonl"
    graph.write_text(header)
    rules = tmp_path / "rules.txt"
    rules.write_text("||t.net^\n")
    scores_header = "host\tkind\tprediction\tscore\tbasis\n"
    labels_header = "host\tkind\tlabel\tsource\n"
    out = str(tmp_path / "out")
    content_cmd = ["features", "content", "--graph", str(graph), "--out", out, "--labels"]
    emit_cmd = [
        "emit-rules", "--graph", str(graph), "--rules", str(rules), "--out", out, "--scores",
    ]
    train_cmd = ["train", "--labels", str(tmp_path / "labels.tsv"), "--out", out, "--features"]
    model_file = tmp_path / "one-feature-model.txt"
    model_file.write_bytes(save_model(train([[0.0], [1.0]], [0, 1], ForestParams(n_trees=1))))
    cases = [
        # (file name, file text, command the file's path is appended to, line named)
        ("kind.jsonl", header + node + doc % "stylesheet",
         ["features", "content", "--out", out, "--graph"], 3),
        ("record.jsonl", header + node + '{"t": "node", "d": "x.net"}\n',
         ["graph", "stats", "--graph"], 3),
        ("labels3.tsv", labels_header + "px.t.net\tscript\tadtracker\n", content_cmd, 2),
        ("labelx.tsv", labels_header + "px.t.net\tscript\tmaybe\tfilterlist\n", content_cmd, 2),
        ("scores4.tsv", scores_header + "px.t.net\tscript\tadtracker\t0.5\n", emit_cmd, 2),
        ("scorex.tsv",
         scores_header + "a.t.net\tscript\tbenign\t0.1\tfull\npx.t.net\tscript\tmaybe\t0.5\tfull\n",
         emit_cmd, 3),
        ("scoref.tsv", scores_header + "px.t.net\tscript\tadtracker\thigh\tfull\n", emit_cmd, 2),
        ("scoren.tsv", scores_header + "px.t.net\tscript\tadtracker\tnan\tfull\n", emit_cmd, 2),
        ("content.tsv", "host\tkind\ta\tb\npx.t.net\tscript\t1.0\n", train_cmd, 2),
        ("contentf.tsv", "host\tkind\ta\npx.t.net\tscript\t1.0\nq.t.net\tscript\tx\n",
         train_cmd, 3),
        ("structural.tsv", "domain\tkind\ta\tb\nt.net\tscript\t1.0\t2.0\nu.net\tscript\t1.0\n",
         train_cmd, 3),
        ("structuralf.tsv", "domain\tkind\ta\nt.net\tscript\tx\n", train_cmd, 2),
        ("contentn.tsv", "host\tkind\ta\npx.t.net\tscript\t1.0\nq.t.net\tscript\tinf\n",
         train_cmd, 3),
        ("contentp.tsv", "host\tkind\ta\npx.t.net\tscript\tnan\n",
         ["predict", "--model", str(model_file), "--out", out, "--features"], 2),
        ("model.txt",
         "widetrack-forest\tv1\nclasses\tbenign\tadtracker\nfeature_count\t2\n"
         "params\tn_trees=2\tmtry=None\tmax_d\n",
         ["predict", "--features", str(graph), "--out", out, "--model"], 4),
    ]
    for name, text, argv, lineno in cases:
        path = tmp_path / name
        path.write_text(text)
        assert main([*argv, str(path)]) == 2, name
        err = capsys.readouterr().err
        assert f"line {lineno}" in err and len(err.splitlines()) == 1, (name, err)

    # A rules, overrides or config file holding a byte that is not UTF-8
    # names itself and the byte's line.
    bad_rules = tmp_path / "bad-rules.txt"
    bad_rules.write_bytes(b"||t.net^\n||\xff.net^\n")
    bad_overrides = tmp_path / "bad-overrides.tsv"
    bad_overrides.write_bytes(b"px.t.net\tbenign\n\xff.net\tbenign\n")
    cfg = tmp_path / "bad-bytes.cfg"
    base = f"har_dir = {corpus_dir / 'har'}\nout_dir = {tmp_path / 'bad-bytes-out'}\n"
    for extra, named, lineno in [
        (f"rules_files = {bad_rules}\n".encode(), bad_rules, 2),
        (f"rules_files = {rules}\noverrides_file = {bad_overrides}\n".encode(), bad_overrides, 2),
        (f"rules_files = {rules}\n".encode() + b"# \xff\n", cfg, 4),
    ]:
        cfg.write_bytes(base.encode() + extra)
        assert main(["run-all", "--config", str(cfg)]) == 2, named
        err = capsys.readouterr().err
        assert f"{named}: line {lineno}: " in err and len(err.splitlines()) == 1, err
