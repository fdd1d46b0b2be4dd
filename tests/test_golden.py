"""Golden digests: the sha256 of every artifact ``run-all`` writes for a
fixed corpus and config, and the staged chain held to the same bytes.

The corpus is 40 synthetic sites at seed 7, five appended rules that take
the matcher's token-prefix and per-site-context branches, and one capture
whose entries are all doubled, so documents hold URLs requested twice.
One config file per config drives ``run-all`` and the staged commands,
all through ``cli.main``. Run under two ``PYTHONHASHSEED`` values, these
tests pin both seeds to the committed bytes: the matcher iterates over
sets of URL tokens, and no set order may reach an artifact.

A change that alters an artifact on purpose updates its digest here and
names the change; any other digest change is a regression.
"""

import hashlib
import json

import numpy
import pytest

from widetrack.cli import main
from widetrack.synth import EcosystemConfig, generate

EXTRA_RULES = (
    "/w0*.js",
    "/pixel*$image",
    "@@/w09*.js",
    "/pixel.gif$domain=site000.com|site001.com",
    "@@/pixel.gif$domain=site001.com",
)

# Config lines after har_dir, rules_files and out_dir. The alternate config
# turns on every branch the default leaves off.
KNOBS = {
    "default": "",
    "alternate": "stratified = true\nvocab_rank = tf\nclamp_idf = true\n"
    "refex_depth = 3\nprune_threshold = 0.99\nweight_by = urls\n",
}

GOLDEN = {
    "default": {
        "candidate-rules.txt": "02a9b5caa101bae49374bd34948ee535909e81e41142c40370f419d25268fffd",
        "content.tsv": "059989537c2f24f1066f2190de6a58a7ec7bf984ccf8b332b6b9d7453ee18bd9",
        "graph.jsonl": "7caeb88a507c392befc3b43a757f6405ffc00c479211bbbd27070c61e745ce65",
        "labels.tsv": "45279bdb033df85f5d50d057c17cc4e5f537aa1263e9d93f4a5990f57fa37810",
        "model.txt": "e123f361247d88bd3bd5c82b68b0d3e53ea7080c4fd36e9762d08f7e203d3a7d",
        "report.json": "3159b65dd3a4d566943b0378bc1997e84edaa9a5f2a502af033724b9aa09f0d9",
        "report.txt": "18df2dcd90a4dd9f22be2a5750e9fa9bd0b4daf9a8592e890e65687caaf1e18c",
        "scores.tsv": "87f8629266e3bb01c6915c59764a9c11871c0d3d2368d0a51b47b185d9cd73a8",
        "structural.tsv": "6479feec84166c70e4f35d2356b7de77e6ef5976260e7fec363504d976e9a0b9",
        "trees.jsonl": "b1c414c9c20a7ed702215d8a209e70407be00ba14bc8db1bfd67e315e8b33dab",
        "vocabulary.tsv": "b4606da70f66bd7ae85459c1c9e6394f9ba66fe0708d482d9bf9cac4431a5609",
    },
    "alternate": {
        "candidate-rules.txt": "02a9b5caa101bae49374bd34948ee535909e81e41142c40370f419d25268fffd",
        "content.tsv": "156ae812065aa8fc04a3f74a06fc0962061f16f70b04cc35b2c3785a455a93b3",
        "graph.jsonl": "7caeb88a507c392befc3b43a757f6405ffc00c479211bbbd27070c61e745ce65",
        "labels.tsv": "45279bdb033df85f5d50d057c17cc4e5f537aa1263e9d93f4a5990f57fa37810",
        "model.txt": "1f3d9c42eb06f0c33756c167f27088d3c30dbd9ff48118582bfe2e1a743154d9",
        "report.json": "8915782c7cbc355bd2239cee9f2a91e84060afee9581526564feffccfbc01c44",
        "report.txt": "d203cb3a88e5f29bde0bb4674faa53a1f925d86080059c1d77298875a9001f85",
        "scores.tsv": "de62e687c9aed2c1efedbba7e915f699b18153e9841e59d03d14e6aeffb964c5",
        "structural.tsv": "32b3cde1e6f3b1fdd526159e75728c10495ec611ced6a88c3e994c60ccacdcf2",
        "trees.jsonl": "b1c414c9c20a7ed702215d8a209e70407be00ba14bc8db1bfd67e315e8b33dab",
        "vocabulary.tsv": "1dcfbe9f31d41b0f3ad6eddf568269b0a6c85045591407c113e6ddccc983b38a",
    },
}

# What the staged chain writes as run-all does. Staged predict scores every
# row with the full forest, while run-all scores its training rows
# out-of-bag, so scores.tsv and what is built from it are checked apart.
STAGED = (
    "trees.jsonl", "graph.jsonl", "structural.tsv", "labels.tsv",
    "content.tsv", "vocabulary.tsv", "model.txt",
)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path, har_dir, rules, out_dir, knobs):
    path.write_text(f"har_dir = {har_dir}\nrules_files = {rules}\nout_dir = {out_dir}\n" + knobs)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    generate(EcosystemConfig(n_sites=40, seed=7)).write(out)
    with (out / "truth-rules.txt").open("a", encoding="utf-8") as rules:
        rules.write("".join(f"{rule}\n" for rule in EXTRA_RULES))
    har = sorted((out / "har").glob("*.har"))[0]
    doc = json.loads(har.read_bytes())
    doc["log"]["entries"] = [e for e in doc["log"]["entries"] for _ in (0, 1)]
    har.write_text(json.dumps(doc), encoding="utf-8")
    return out


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def run(request, corpus, tmp_path_factory):
    """(config name, config file, run-all's out dir, staged out dir): one
    config file drives run-all and the staged chain ingest -> graph build
    -> features structural -> label -> features content -> train."""
    name = request.param
    work = tmp_path_factory.mktemp(name)
    cfg, run_dir, staged = work / "run.cfg", work / "run", work / "staged"
    rules = corpus / "truth-rules.txt"
    write_config(cfg, corpus / "har", rules, run_dir, KNOBS[name])
    assert main(["run-all", "--config", str(cfg)]) == 0
    staged.mkdir()
    path = {artifact: str(staged / artifact) for artifact in STAGED}
    config = ["--config", str(cfg)]
    graph, labels = path["graph.jsonl"], path["labels.tsv"]
    for argv in [
        ["ingest", "--har-dir", str(corpus / "har"), "--out", path["trees.jsonl"]],
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
    ]:
        assert main(argv) == 0, argv
    return name, cfg, run_dir, staged


def test_run_all_artifacts_match_their_golden_digests(run):
    name, _, run_dir, _ = run
    digests = {path.name: sha256(path) for path in sorted(run_dir.iterdir())}
    assert digests == GOLDEN[name], f"numpy {numpy.__version__}"


def test_staged_chain_writes_the_golden_artifacts(run):
    name, _, _, staged = run
    assert {artifact: sha256(staged / artifact) for artifact in STAGED} == {
        artifact: GOLDEN[name][artifact] for artifact in STAGED
    }


def test_predict_rescores_run_alls_full_forest_lines(run, tmp_path):
    """predict on the staged model (loaded, so no bootstrap record) scores
    every row with the full forest; each line run-all scored that way
    (basis full, its test rows) appears in its output byte for byte."""
    _, _, run_dir, staged = run
    scores = tmp_path / "scores.tsv"
    assert main([
        "predict", "--model", str(staged / "model.txt"),
        "--features", str(staged / "content.tsv"), str(staged / "structural.tsv"),
        "--out", str(scores),
    ]) == 0
    full = [
        line for line in (run_dir / "scores.tsv").read_bytes().splitlines()
        if line.endswith(b"\tfull")
    ]
    assert full
    assert set(full) <= set(scores.read_bytes().splitlines())


def test_evaluate_on_run_alls_scores_writes_its_reports(run, tmp_path):
    _, cfg, run_dir, staged = run
    reports = tmp_path / "reports.json"
    assert main([
        "evaluate", "--graph", str(staged / "graph.jsonl"), "--labels", str(staged / "labels.tsv"),
        "--scores", str(run_dir / "scores.tsv"), "--out", str(reports), "--config", str(cfg),
    ]) == 0
    run_all = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))["reports"]
    assert json.loads(reports.read_text(encoding="utf-8")) == run_all


def test_emit_rules_on_run_alls_scores_writes_its_candidates(run, corpus, tmp_path):
    """The full list leaves no tracker unlisted, so this run-all labels with
    every 5th rules line withheld, and emit-rules must write a candidate."""
    name, _, _, staged = run
    truth = (corpus / "truth-rules.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    rules = tmp_path / "withheld-rules.txt"
    rules.write_text("".join(line for i, line in enumerate(truth, 1) if i % 5), encoding="utf-8")
    cfg, held = tmp_path / "held.cfg", tmp_path / "held"
    write_config(cfg, corpus / "har", rules, held, KNOBS[name])
    assert main(["run-all", "--config", str(cfg)]) == 0
    candidates = tmp_path / "candidate-rules.txt"
    assert main([
        "emit-rules", "--graph", str(staged / "graph.jsonl"), "--scores", str(held / "scores.tsv"),
        "--rules", str(rules), "--out", str(candidates),
    ]) == 0
    assert candidates.read_bytes() == (held / "candidate-rules.txt").read_bytes()
    assert any(line.startswith("||") for line in candidates.read_text().splitlines())
