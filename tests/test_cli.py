import json
from pathlib import Path

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
    payload = json.loads(Path(report).read_text())
    assert "biased" in payload and "unbiased" in payload
    assert (
        main(["emit-rules", "--graph", graph, "--scores", scores, "--rules", rules, "--out", candidates])
        == 0
    )
    assert Path(candidates).read_text().startswith("!")


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


@pytest.mark.parametrize(
    "line, message",
    [
        ("stratified = ture", "error: {cfg}: line 3: bad value for stratified: 'ture'\n"),
        ("n_trees = ten", "error: {cfg}: line 3: bad value for n_trees: 'ten'\n"),
        # a knob that no longer exists is not silently accepted
        ("directed_neighbors = true",
         "error: {cfg}: line 3: unknown config key 'directed_neighbors'\n"),
        # a pasted-in block does not silently override an earlier setting
        ("out_dir = elsewhere",
         "error: {cfg}: line 3: config key out_dir repeats line 2\n"),
    ],
    ids=["misspelled_bool", "bad_int", "removed_knob", "repeated_key"],
)
def test_bad_config_value_exits_two(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg.write_text(f"har_dir = {tmp_path / 'har'}\nout_dir = {out_dir}\n{line}\n")
    assert main(["run-all", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == message.format(cfg=cfg)
    assert not out_dir.exists()


def test_ingest_list_initiator(tmp_path):
    har_dir = tmp_path / "har"
    har_dir.mkdir()
    entries = [
        {"startedDateTime": "1", "request": {"url": "https://www.site.com/"}},
        {"startedDateTime": "2", "request": {"url": "https://px.t.net/p"}, "_initiator": ["x"]},
    ]
    (har_dir / "a.har").write_text(json.dumps({"log": {"entries": entries}}))
    assert main(["ingest", "--har-dir", str(har_dir), "--out", str(tmp_path / "t")]) == 0


@pytest.mark.parametrize(
    "bad, detail",
    [
        (lambda data: data[: len(data) // 2], "(byte "),  # truncated
        (lambda data: b'{"log": {"entries": []}}', "no usable entries in capture"),
    ],
)
def test_bad_capture_names_its_file_and_leaves_no_trees_file(
    corpus_dir, tmp_path, capsys, bad, detail
):
    good, other = sorted((corpus_dir / "har").glob("*.har"))[:2]
    har_dir = tmp_path / "har"
    har_dir.mkdir()
    (har_dir / good.name).write_bytes(good.read_bytes())
    (har_dir / "zz.har").write_bytes(bad(other.read_bytes()))  # sorts last
    trees = tmp_path / "trees.jsonl"
    assert main(["ingest", "--har-dir", str(har_dir), "--out", str(trees)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: zz.har: ") and detail in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [har_dir]

    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"har_dir = {har_dir}\nrules_files = {corpus_dir / 'truth-rules.txt'}\n"
        f"out_dir = {out_dir}\n"
    )
    assert main(["run-all", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == err
    assert list(out_dir.iterdir()) == []


# 200,000 nested arrays: deeper than json.loads can recurse.
_DEEP = "[" * 200_000 + "\n"


@pytest.mark.parametrize(
    "reader, header, message",
    [
        (["ingest", "--har-dir", "{dir}", "--out", "{dir}/trees.jsonl"], "",
         "error: deep.har: JSON nested too deeply"),
        (["graph", "build", "--trees", "{dir}/deep.har", "--out", "{dir}/graph.jsonl"],
         '{"format": "widetrack-trees", "version": 1}\n',
         "error: {dir}/deep.har: line 2: bad trees record: RecursionError("),
        (["graph", "stats", "--graph", "{dir}/deep.har"], '{"format": "widegraph", "version": 1}\n',
         "error: {dir}/deep.har: line 2: corrupt graph record: maximum recursion depth exceeded"),
    ],
)
def test_deeply_nested_json_names_its_file_or_line(tmp_path, capsys, reader, header, message):
    (tmp_path / "deep.har").write_text(header + _DEEP)
    assert main([arg.format(dir=tmp_path) for arg in reader]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message.format(dir=tmp_path)) and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.har"]


@pytest.mark.parametrize(
    "reader, header",
    [
        (["graph", "build", "--trees", "{dir}/bad", "--out", "{dir}/graph.jsonl"],
         b'{"format": "widetrack-trees", "version": 1}\n'),
        (["predict", "--model", "{dir}/bad", "--features", "{dir}/x.tsv", "--out", "{dir}/s.tsv"],
         b"widetrack-forest\tv1\n"),
        (["graph", "stats", "--graph", "{dir}/bad"], b'{"format": "widegraph", "version": 1}\n'),
    ],
    ids=["trees", "model", "graph"],
)
def test_byte_that_is_not_utf8_names_itself_and_its_line(tmp_path, capsys, reader, header):
    (tmp_path / "bad").write_bytes(header + b'{"root_url": "https://a.com/\xff"}\n')
    assert main([arg.format(dir=tmp_path) for arg in reader]) == 2
    err = capsys.readouterr().err
    assert "byte 0xff is not UTF-8" in err and "line 2" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad"]


def test_root_domain_other_than_the_root_urls_stops_graph_build(tmp_path, capsys):
    """A trees record whose root domain is not its root URL's registrable
    domain is refused where it is read, naming its line, and no graph is
    written for load_graph to refuse later."""
    generate(EcosystemConfig(n_sites=40, seed=7)).write(tmp_path / "corpus")
    trees, graph = tmp_path / "trees.jsonl", tmp_path / "graph.jsonl"
    assert main(["ingest", "--har-dir", str(tmp_path / "corpus" / "har"), "--out", str(trees)]) == 0
    header, first, *rest = trees.read_bytes().splitlines(keepends=True)
    rec = json.loads(first)
    assert rec["root_url"] == "https://www.site000.com/"
    rec["root_domain"] = "www.site000.com"
    trees.write_bytes(b"".join([header, json.dumps(rec).encode() + b"\n", *rest]))
    capsys.readouterr()
    assert main(["graph", "build", "--trees", str(trees), "--out", str(graph)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trees}: line 2: bad trees record: ") and err.count("\n") == 1
    assert "www.site000.com" in err
    assert not graph.exists()


# Every artifact the staged chain writes as run-all does. scores.tsv is not
# among them: predict scores every row with the full forest, while run-all
# scores its training rows out-of-bag. emit-rules reads run-all's scores.tsv,
# as evaluate does, so candidate-rules.txt is among them.
STAGED_ARTIFACTS = (
    "trees.jsonl", "graph.jsonl", "structural.tsv", "content.tsv",
    "vocabulary.tsv", "labels.tsv", "model.txt", "candidate-rules.txt",
)


def staged_and_run_all(corpus_dir, tmp_path, knobs):
    """Run run-all and the staged chain from one config file; returns the
    two output directories and the staged evaluate reports. The chain ends
    with ``predict`` on the staged model, loaded with no bootstrap record,
    writing ``staged/scores.tsv``.

    Both label with the truth rules less every 5th line, so some trackers
    are on no list and run-all has candidate rules to write; the full list
    leaves none."""
    cfg = tmp_path / "run.cfg"
    run_dir = tmp_path / "run"
    staged = tmp_path / "staged"
    staged.mkdir()
    truth = (corpus_dir / "truth-rules.txt").read_text().splitlines(keepends=True)
    rules = tmp_path / "withheld-rules.txt"
    rules.write_text("".join(line for i, line in enumerate(truth) if i % 5 != 4))
    cfg.write_text(
        f"har_dir = {corpus_dir / 'har'}\n"
        f"rules_files = {rules}\n"
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
        ["label", "--graph", graph, "--rules", str(rules), "--out", labels, *config],
        [
            "features", "content", "--graph", graph, "--labels", labels,
            "--out", path["content.tsv"], "--vocab-out", path["vocabulary.tsv"], *config,
        ],
        [
            "train", "--features", path["content.tsv"], path["structural.tsv"],
            "--labels", labels, "--out", path["model.txt"], *config,
        ],
        [
            "predict", "--model", path["model.txt"],
            "--features", path["content.tsv"], path["structural.tsv"],
            "--out", str(staged / "scores.tsv"),
        ],
        [
            "evaluate", "--graph", graph, "--scores", str(run_dir / "scores.tsv"),
            "--labels", labels, "--out", str(report), *config,
        ],
        [
            "emit-rules", "--graph", graph, "--scores", str(run_dir / "scores.tsv"),
            "--rules", str(rules), "--out", path["candidate-rules.txt"],
        ],
    ]
    for argv in stages:
        assert main(argv) == 0, argv
    return run_dir, staged, json.loads(report.read_text())


def assert_staged_matches(run_dir, staged, reports):
    for name in STAGED_ARTIFACTS:
        assert (staged / name).read_bytes() == (run_dir / name).read_bytes(), name
    candidates = (staged / "candidate-rules.txt").read_text().splitlines()
    assert any(line.startswith("||") for line in candidates)
    assert reports == json.loads((run_dir / "report.json").read_text())["reports"]
    # run-all scores held-out rows with the full forest, as staged predict
    # scores every row: each of those lines must appear byte for byte.
    full = [
        line for line in (run_dir / "scores.tsv").read_bytes().splitlines()
        if line.endswith(b"\tfull")
    ]
    assert full
    assert set(full) <= set((staged / "scores.tsv").read_bytes().splitlines())


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


def override_files(corpus_dir, tmp_path):
    """An overrides file whose hosts all have graph documents, and one that
    adds a host no document has."""
    host = (corpus_dir / "truth-labels.tsv").read_text().split("\t")[0]
    good, bad = tmp_path / "overrides.tsv", tmp_path / "stray-overrides.tsv"
    good.write_text(f"{host}\tadtracker\n")
    bad.write_text(f"{host}\tadtracker\npx.absent.net\tbenign\n")
    message = f"error: {bad}: override host px.absent.net is not the host of any graph document\n"
    return good, bad, message


def test_run_all_refuses_an_override_host_no_document_has(corpus_dir, tmp_path, capsys):
    """Such an override could never apply; the run stops once the graph is
    built, before it writes the graph or any report."""
    _, bad, message = override_files(corpus_dir, tmp_path)
    cfg, out_dir = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(
        f"har_dir = {corpus_dir / 'har'}\nrules_files = {corpus_dir / 'truth-rules.txt'}\n"
        f"out_dir = {out_dir}\noverrides_file = {bad}\n"
    )
    assert main(["run-all", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == message
    assert sorted(p.name for p in out_dir.iterdir()) == ["trees.jsonl"]


def test_evaluate_refuses_an_override_host_no_document_has(corpus_dir, tmp_path, capsys):
    good, bad, message = override_files(corpus_dir, tmp_path)
    run_dir = tmp_path / "run"
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(
        f"har_dir = {corpus_dir / 'har'}\nrules_files = {corpus_dir / 'truth-rules.txt'}\n"
        f"out_dir = {run_dir}\nn_trees = 10\n"
    )
    assert main(["run-all", "--config", str(run_cfg)]) == 0
    evaluate = [
        "evaluate", "--graph", str(run_dir / "graph.jsonl"),
        "--scores", str(run_dir / "scores.tsv"), "--labels", str(run_dir / "labels.tsv"),
    ]
    cfg, report = tmp_path / "evaluate.cfg", tmp_path / "report.json"
    cfg.write_text(f"n_trees = 10\noverrides_file = {good}\n")
    assert main([*evaluate, "--out", str(report), "--config", str(cfg)]) == 0
    assert "corrected_unbiased" in json.loads(report.read_text())
    report.unlink()
    cfg.write_text(f"n_trees = 10\noverrides_file = {bad}\n")
    assert main([*evaluate, "--out", str(report), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == message
    assert not report.exists()


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["ingest", "--out", "x"])  # missing --har-dir
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1
    # Overrides correct reports only; label writes the lists' verdict.
    with pytest.raises(SystemExit) as err:
        main(["label", "--graph", "g", "--rules", "r", "--out", "o", "--overrides", "f"])
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
    features = [tmp_path / "one-content.tsv", tmp_path / "one-structural.tsv"]
    features[0].write_text("host\tkind\ta\npx.t.net\tscript\t1.0\n")
    features[1].write_text("domain\tkind\tb\nt.net\tscript\t2.0\n")
    model_file = tmp_path / "one-feature-model.txt"
    model_file.write_bytes(save_model(train([[0.0], [1.0]], [0, 1], ForestParams(n_trees=1))))
    trees_header = '{"format": "widetrack-trees", "version": 1}\n'
    tree = '{"root_url": "https://a.com/", "root_domain": "a.com", "edges": [], "nodes": %s}\n'
    page = '["https://a.com/", "iframe"]'
    trees_cmd = ["graph", "build", "--out", out, "--trees"]
    cases = [
        # (file name, file text, command the file's path is appended to, line named)
        ("hostless.jsonl", trees_header + tree % f'[{page}, ["http:///x.js", "script"]]',
         trees_cmd, 2),
        ("ipv6.jsonl",
         trees_header + tree % f"[{page}]" + tree % f'[{page}, ["http://[::1/x", "script"]]',
         trees_cmd, 3),
        ("dochost.jsonl",
         header + node + doc.replace('"urls": []', '"urls": [["https://t.net/x", 1]]') % "script",
         ["graph", "stats", "--graph"], 3),
        ("kind.jsonl", header + node + doc % "stylesheet",
         ["features", "content", "--out", out, "--graph"], 3),
        ("record.jsonl", header + node + '{"t": "node", "d": "x.net"}\n',
         ["graph", "stats", "--graph"], 3),
        ("parent.jsonl",
         header + node + node.replace("t.net", "b.com")
         + doc.replace('"t.net"', '"b.com"') % "script",
         ["features", "structural", "--out", out, "--graph"], 4),
        ("labels3.tsv", labels_header + "px.t.net\tscript\tadtracker\n", content_cmd, 2),
        ("labelx.tsv", labels_header + "px.t.net\tscript\tmaybe\tfilterlist\n", content_cmd, 2),
        ("labelsrc.tsv", labels_header + "px.t.net\tscript\tadtracker\twhatever\n", content_cmd, 2),
        ("scores4.tsv", scores_header + "px.t.net\tscript\tadtracker\t0.5\n", emit_cmd, 2),
        ("scorex.tsv",
         scores_header + "a.t.net\tscript\tbenign\t0.1\tfull\npx.t.net\tscript\tmaybe\t0.5\tfull\n",
         emit_cmd, 3),
        ("scoref.tsv", scores_header + "px.t.net\tscript\tadtracker\thigh\tfull\n", emit_cmd, 2),
        ("scoren.tsv", scores_header + "px.t.net\tscript\tadtracker\tnan\tfull\n", emit_cmd, 2),
        # a score is a vote fraction
        ("scorer.tsv", scores_header + "px.t.net\tscript\tadtracker\t7.5\tfull\n", emit_cmd, 2),
        ("scoreb.tsv", scores_header + "px.t.net\tscript\tadtracker\t0.5\tnonsense\n",
         emit_cmd, 2),
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
        # "\udcff" is written as the byte 0xff, which is not UTF-8
        ("labelsb.tsv", labels_header + "px.t.net\tscript\tadtracker\tlist\udcff\n",
         content_cmd, 2),
        ("labels.tsv", labels_header + "px.t.net\tscript\tadtracker\tlist\udcff\n",
         ["train", "--features", str(features[0]), str(features[1]), "--out", out, "--labels"],
         2),
        ("scoresb.tsv", scores_header + "px.t.net\tscript\tbenign\t0.5\tfull\udcff\n",
         emit_cmd, 2),
        ("contentb.tsv", "host\tkind\ta\npx.t.net\tscript\t1.0\nq.t.net\tscript\t\udcff\n",
         train_cmd, 3),
        ("contenth.tsv", "host\tkind\t\udcff\n", train_cmd, 1),
        ("structuralb.tsv", "domain\tkind\ta\nt.net\tscript\t\udcff\n", train_cmd, 2),
    ]
    for name, text, argv, lineno in cases:
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main([*argv, str(path)]) == 2, name
        err = capsys.readouterr().err
        assert f"line {lineno}" in err and len(err.splitlines()) == 1, (name, err)
        if "\udcff" in text:
            assert f"line {lineno}: byte 0xff is not UTF-8" in err, (name, err)

    # A scores file naming a document the graph lacks, a second feature
    # table of a kind, a file that lacks a row or holds a host another file
    # needs, or a table or trees file with a header of another kind, names
    # the files it does not fit.
    stray = tmp_path / "stray-scores.tsv"
    stray.write_text(scores_header + "px.t.net\tscript\tadtracker\t0.5\tfull\n")
    second = tmp_path / "second-content.tsv"
    second.write_text("host\tkind\ta\npx.t.net\tscript\t2.0\n")
    wrong = {}
    for name, text in [
        ("header.tsv", "host\tkind\tverdict\tsource\n"),
        ("trees.jsonl", '{"format": "widetrack-trees", "version": 2}\n'),
        ("empty-trees.jsonl", ""),
        ("no-label.tsv", labels_header),
        ("no-score.tsv", scores_header),
        ("other-structural.tsv", "domain\tkind\tb\nu.net\tscript\t2.0\n"),
        ("hostless-content.tsv", "host\tkind\ta\na..b\tscript\t1.0\n"),
        ("one-doc-graph.jsonl",
         header + node + doc.replace("[]}", '[["https://px.t.net/x", 1]]}') % "script"),
        ("no-floor.cfg", "min_in_degree = 0\n"),
    ]:
        wrong[name] = tmp_path / name
        wrong[name].write_text(text)
    for argv, message in [
        ([*content_cmd, str(wrong["header.tsv"])],
         f"{wrong['header.tsv']}: line 1: unrecognized labels file header"),
        ([*emit_cmd, str(wrong["header.tsv"])],
         f"{wrong['header.tsv']}: line 1: unrecognized scores file header"),
        ([*trees_cmd, str(wrong["trees.jsonl"])],
         f"{wrong['trees.jsonl']}: line 1: unrecognized trees file header"),
        ([*trees_cmd, str(wrong["empty-trees.jsonl"])],
         f"{wrong['empty-trees.jsonl']}: empty trees file"),
        ([*train_cmd[:2], str(wrong["no-label.tsv"]), *train_cmd[3:], *map(str, features)],
         f"document px.t.net (script) has no label in {wrong['no-label.tsv']}"),
        (["evaluate", "--graph", str(wrong["one-doc-graph.jsonl"]),
          "--labels", str(wrong["no-label.tsv"]), "--config", str(wrong["no-floor.cfg"]),
          "--scores", str(wrong["no-score.tsv"])],
         f"document px.t.net (script) has no prediction in {wrong['no-score.tsv']}"),
        ([*train_cmd, str(features[0]), str(wrong["other-structural.tsv"])],
         f"{wrong['other-structural.tsv']}: no row for node t.net (script)"
         f" of {features[0]}'s px.t.net"),
        (["predict", "--model", str(model_file), "--out", out, "--features",
          str(wrong["hostless-content.tsv"]), str(features[1])],
         f"{wrong['hostless-content.tsv']}: hostname 'a..b' has an empty label"),
        ([*emit_cmd, str(stray)], f"{stray}: document px.t.net (script) is not in {graph}"),
        ([*train_cmd, str(features[0]), str(features[1]), str(second)],
         f"two content feature files: {features[0]} and {second}"),
        (["predict", "--model", str(model_file), "--out", out, "--features", str(features[1]),
          str(features[0]), str(features[1])],
         f"two structural feature files: {features[1]} and {features[1]}"),
    ]:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"

    # A rules, overrides or config file holding a byte that is not UTF-8
    # names itself and the byte's line; so does an overrides file that
    # gives a host twice, or a host that is not lower-case.
    bad_rules = tmp_path / "bad-rules.txt"
    bad_rules.write_bytes(b"||t.net^\n||\xff.net^\n")
    bad_overrides = tmp_path / "bad-overrides.tsv"
    bad_overrides.write_bytes(b"px.t.net\tbenign\n\xff.net\tbenign\n")
    repeated = tmp_path / "repeated-overrides.tsv"
    repeated.write_text("px.t.net\tadtracker\npx.t.net\tbenign\n")
    upper = tmp_path / "upper-case-overrides.tsv"
    upper.write_text("px.t.net\tadtracker\nPX.T.NET\tbenign\n")
    cfg = tmp_path / "bad-bytes.cfg"
    base = f"har_dir = {corpus_dir / 'har'}\nout_dir = {tmp_path / 'bad-bytes-out'}\n"
    for extra, named, lineno in [
        (f"rules_files = {bad_rules}\n".encode(), bad_rules, 2),
        (f"rules_files = {rules}\noverrides_file = {bad_overrides}\n".encode(), bad_overrides, 2),
        (f"rules_files = {rules}\noverrides_file = {repeated}\n".encode(), repeated, 2),
        (f"rules_files = {rules}\noverrides_file = {upper}\n".encode(), upper, 2),
        (f"rules_files = {rules}\n".encode() + b"# \xff\n", cfg, 4),
    ]:
        cfg.write_bytes(base.encode() + extra)
        assert main(["run-all", "--config", str(cfg)]) == 2, named
        err = capsys.readouterr().err
        assert f"{named}: line {lineno}: " in err and len(err.splitlines()) == 1, err


def test_wrong_typed_graph_counts_and_sites_exit_two(corpus_dir, tmp_path, capsys):
    """A URL count or edge multiplicity that is not an integer, or a site
    that is not a string, names its line when the graph loads, instead of
    failing later in a feature or stats pass."""
    trees, graph = str(tmp_path / "trees.jsonl"), tmp_path / "graph.jsonl"
    assert main(["ingest", "--har-dir", str(corpus_dir / "har"), "--out", trees]) == 0
    assert main(["graph", "build", "--trees", trees, "--out", str(graph)]) == 0
    lines = graph.read_text().splitlines()
    types = [json.loads(line).get("t") for line in lines]
    edge_at, doc_at = types.index("edge"), types.index("doc")

    def corrupted(at, change):
        rec = json.loads(lines[at])
        change(rec)
        return "\n".join([*lines[:at], json.dumps(rec), *lines[at + 1:]]) + "\n"

    content = ["features", "content", "--out", str(tmp_path / "c.tsv"), "--graph"]
    stats = ["graph", "stats", "--graph"]
    cases = [
        ("count", corrupted(doc_at, lambda rec: rec["urls"][0].__setitem__(1, "5")), content,
         doc_at),
        ("multiplicity", corrupted(edge_at, lambda rec: rec.update(m="7")), stats, edge_at),
        ("edge-sites", corrupted(edge_at, lambda rec: rec.update(sites=[7])), stats, edge_at),
        ("doc-sites", corrupted(doc_at, lambda rec: rec.update(sites=[7])), content, doc_at),
        # a string would be read as a list of one-letter sites
        ("edge-sites-str", corrupted(edge_at, lambda rec: rec.update(sites="site000.com")), stats,
         edge_at),
        ("doc-sites-str", corrupted(doc_at, lambda rec: rec.update(sites="site000.com")), content,
         doc_at),
    ]
    capsys.readouterr()
    for name, text, argv, at in cases:
        path = tmp_path / f"{name}.jsonl"
        path.write_text(text)
        assert main([*argv, str(path)]) == 2, name
        err = capsys.readouterr().err
        assert f"line {at + 1}" in err and len(err.splitlines()) == 1, (name, err)


@pytest.mark.parametrize(
    "record, change, argv",
    [
        ("root", lambda rec: rec.update(d=5), ["graph", "stats"]),
        ("node", lambda rec: rec.update(d=5), ["graph", "stats"]),
        ("node", lambda rec: rec.update(d=5), ["features", "structural"]),
        ("edge", lambda rec: rec.update(l=5), ["graph", "stats"]),
        ("node", lambda rec: rec.update(d="a\tb.net"), ["features", "structural"]),
        ("root", lambda rec: rec.update(d="www." + rec["d"]), ["features", "structural"]),
    ],
    ids=["root-domain", "node-domain-stats", "node-domain-structural", "edge-label",
         "node-domain-tab-structural", "root-domain-subdomain-structural"],
)
def test_wrong_typed_graph_names_exit_two(corpus_dir, tmp_path, capsys, record, change, argv):
    """A root or node domain that is not a string, is not printable or is
    not its own registrable domain, or an edge label that is no interaction
    kind, names its line when the graph loads. A tab in a node domain would
    otherwise split that node's structural.tsv row into one cell too many."""
    trees, graph = str(tmp_path / "trees.jsonl"), tmp_path / "graph.jsonl"
    assert main(["ingest", "--har-dir", str(corpus_dir / "har"), "--out", trees]) == 0
    assert main(["graph", "build", "--trees", trees, "--out", str(graph)]) == 0
    lines = graph.read_text().splitlines()
    at = [json.loads(line).get("t") for line in lines].index(record)
    rec = json.loads(lines[at])
    change(rec)
    graph.write_text("\n".join([*lines[:at], json.dumps(rec), *lines[at + 1:]]) + "\n")
    capsys.readouterr()
    out = [] if argv[0] == "graph" else ["--out", str(tmp_path / "s.tsv")]
    assert main([*argv, "--graph", str(graph), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"line {at + 1}" in err and err.count("\n") == 1


# A config line each command that takes --config refuses before any stage,
# and run-all's stderr message for it; {cfg} is the config file.
BAD_VALUES = {
    "weight_by": ("weight_by = site", "{cfg}: unknown weighting 'site'"),
    "vocab_rank": ("vocab_rank = idf", "{cfg}: unknown ranking 'idf'"),
    "train_frac": ("train_frac = 1.0", "{cfg}: train fraction must be in (0, 1)"),
    "prune_threshold": ("prune_threshold = 0", "{cfg}: prune threshold must be in (0, 1]"),
    "refex_depth": ("refex_depth = -1", "{cfg}: refex depth must be >= 0"),
    "vocab_size": ("vocab_size = -5", "{cfg}: vocabulary size must be >= 0, got -5"),
    "n_trees": ("n_trees = 0", "{cfg}: n_trees must be >= 1"),
    "max_depth": ("max_depth = -1", "{cfg}: max_depth must be >= 0"),
    "mtry": ("mtry = 0", "{cfg}: mtry must be >= 1, got 0"),
    "forest_seed": ("forest_seed = -1", "{cfg}: forest seed must be >= 0, got -1"),
}
# Files run-all reads before it ingests anything; {tmp} is the test's tmp_path.
MISSING_FILES = {
    "missing_rules_file": (
        "rules_files = {tmp}/none.txt", "[Errno 2] No such file or directory: '{tmp}/none.txt'"
    ),
    "missing_overrides_file": (
        "overrides_file = {tmp}/none.tsv",
        "[Errno 2] No such file or directory: '{tmp}/none.tsv'",
    ),
}


@pytest.mark.parametrize(
    "line, message",
    [*BAD_VALUES.values(), *MISSING_FILES.values()],
    ids=[*BAD_VALUES, *MISSING_FILES],
)
def test_bad_config_value_fails_before_any_stage(corpus_dir, tmp_path, capsys, line, message):
    """Without the bad line the run writes six artifacts before training
    stops it (no rules file, so every label is benign); an empty out_dir
    shows the line was refused before any stage."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"har_dir = {corpus_dir / 'har'}\nout_dir = {out_dir}\n{line.format(tmp=tmp_path)}\n"
    )
    assert main(["run-all", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path, cfg=cfg)}\n"
    assert list(out_dir.iterdir()) == []


# Each staged command that takes --config, minus --config. No input it
# names exists, so a command that read one before its config would fail
# with another message.
STAGED_WITH_CONFIG = {
    "features_structural": ["features", "structural", "--graph", "{tmp}/g.jsonl"],
    "features_content": [
        "features", "content", "--graph", "{tmp}/g.jsonl", "--labels", "{tmp}/l.tsv",
        "--vocab-out", "{tmp}/v.tsv",
    ],
    "label": ["label", "--graph", "{tmp}/g.jsonl", "--rules", "{tmp}/r.txt"],
    "train": ["train", "--features", "{tmp}/c.tsv", "{tmp}/s.tsv", "--labels", "{tmp}/l.tsv"],
    "evaluate": [
        "evaluate", "--graph", "{tmp}/g.jsonl", "--scores", "{tmp}/s.tsv",
        "--labels", "{tmp}/l.tsv",
    ],
}


@pytest.mark.parametrize(
    "command, line, message",
    [
        *[(c, *BAD_VALUES[v]) for c in STAGED_WITH_CONFIG for v in BAD_VALUES],
        # the one file named in the config that a staged command reads
        ("evaluate", *MISSING_FILES["missing_overrides_file"]),
    ],
    ids=[*(f"{c}-{v}" for c in STAGED_WITH_CONFIG for v in BAD_VALUES),
         "evaluate-missing_overrides_file"],
)
def test_staged_commands_refuse_what_run_all_refuses(tmp_path, capsys, command, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line.format(tmp=tmp_path) + "\n")
    argv = [arg.format(tmp=tmp_path) for arg in STAGED_WITH_CONFIG[command]]
    assert main([*argv, "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path, cfg=cfg)}\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "line",
    ["max_depth = 0", "mtry = 1", "forest_seed = 0", "n_trees = 1", "refex_depth = 0",
     "vocab_size = 0", "prune_threshold = 1.0"],
)
def test_smallest_accepted_value_runs(corpus_dir, tmp_path, line):
    """The edge of each rule is legal: run-all takes it to the end."""
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    small_forest = "" if line.startswith("n_trees") else "n_trees = 5\n"  # a key is set once
    cfg.write_text(
        f"har_dir = {corpus_dir / 'har'}\nrules_files = {corpus_dir / 'truth-rules.txt'}\n"
        f"out_dir = {out_dir}\n{small_forest}{line}\n"
    )
    assert main(["run-all", "--config", str(cfg)]) == 0
    assert (out_dir / "report.json").exists()


def test_repeated_graph_record_or_table_key_exits_two(corpus_dir, tmp_path, capsys):
    """A copy of a graph record, or of a table row's (host, kind) key,
    appended to a run's file names its line instead of replacing the
    earlier record or row."""
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"har_dir = {corpus_dir / 'har'}\nrules_files = {corpus_dir / 'truth-rules.txt'}\n"
        f"out_dir = {out}\n"
    )
    assert main(["run-all", "--config", str(cfg)]) == 0
    files = {name: str(out / name) for name in (
        "graph.jsonl", "labels.tsv", "scores.tsv", "content.tsv", "structural.tsv", "model.txt"
    )}
    dest = str(tmp_path / "dest")
    commands = {
        "graph.jsonl": ["graph", "stats", "--graph"],
        "labels.tsv": ["features", "content", "--graph", files["graph.jsonl"], "--out", dest,
                       "--labels"],
        "scores.tsv": ["emit-rules", "--graph", files["graph.jsonl"], "--rules",
                       str(corpus_dir / "truth-rules.txt"), "--out", dest, "--scores"],
        "content.tsv": ["predict", "--model", files["model.txt"], "--out", dest, "--features",
                        files["structural.tsv"]],
        "structural.tsv": ["train", "--labels", files["labels.tsv"], "--out", dest,
                           "--features", files["content.tsv"]],
    }
    graph_lines = (out / "graph.jsonl").read_text().splitlines()
    cases = [
        ("graph.jsonl", next(line for line in graph_lines if f'"t": "{record}"' in line))
        for record in ("root", "node", "edge", "doc")
    ] + [(name, (out / name).read_text().splitlines()[1]) for name in list(commands)[1:]]
    capsys.readouterr()
    for name, copy in cases:
        lines = (out / name).read_text().splitlines()
        path = tmp_path / name
        path.write_text("\n".join(lines + [copy]) + "\n")
        assert main([*commands[name], str(path)]) == 2, (name, copy)
        err = capsys.readouterr().err
        assert f"line {len(lines) + 1}" in err and len(err.splitlines()) == 1, (name, err)
        if name != "graph.jsonl":
            assert err.startswith(f"error: {path}: line {len(lines) + 1}: "), err
            assert err.endswith(" row repeats the key of line 2\n"), err


def test_url_with_a_character_that_is_not_printable_is_skipped(corpus_dir, tmp_path, capsys):
    """A tab or line break in a captured URL would become part of a token,
    and a vocabulary term holding it would split the content table's header;
    such URLs are skipped at ingest as bad_url, and the run's tables read back."""
    har_dir = tmp_path / "har"
    har_dir.mkdir()
    added = 0
    for path in sorted((corpus_dir / "har").iterdir()):
        har = json.loads(path.read_text(encoding="utf-8"))
        entries = har["log"]["entries"]
        for entry in entries[1:3]:
            for odd in ("\t", "\x85", "\u2028", "\x00"):
                copy = json.loads(json.dumps(entry))
                copy["request"]["url"] = entry["request"]["url"] + f"?a{odd}b=1"
                entries.append(copy)
                added += 1
        (har_dir / path.name).write_text(json.dumps(har), encoding="utf-8")
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"har_dir = {har_dir}\nrules_files = {corpus_dir / 'truth-rules.txt'}\nout_dir = {out}\n"
    )
    assert main(["run-all", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["ingest_skips"].get("bad_url") == added
    assert (out / "trees.jsonl").read_text(encoding="utf-8").isascii()
    capsys.readouterr()
    assert main([
        "train", "--features", str(out / "content.tsv"), str(out / "structural.tsv"),
        "--labels", str(out / "labels.tsv"), "--out", str(tmp_path / "model.txt"),
    ]) == 0
    assert capsys.readouterr().err == ""
