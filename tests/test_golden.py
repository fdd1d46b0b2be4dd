"""Golden digests: the sha256 of every artifact ``run-all`` writes for a
fixed corpus and config.

The corpus is the one the CI hash-seed check builds: 40 synthetic sites at
seed 7, five appended rules that take the matcher's token-prefix and
per-site-context branches, and one capture whose entries are all doubled,
so documents hold URLs requested twice. Each config runs once in-process.

A change that alters an artifact on purpose updates its digest here and
names the change; any other digest change is a regression.
"""

import hashlib
import json

import pytest

from widetrack.pipeline import PipelineConfig, run_all
from widetrack.synth import EcosystemConfig, generate

EXTRA_RULES = (
    "/w0*.js",
    "/pixel*$image",
    "@@/w09*.js",
    "/pixel.gif$domain=site000.com|site001.com",
    "@@/pixel.gif$domain=site001.com",
)

# CI's alternate config: every branch the default leaves off.
ALTERNATE = dict(
    stratified=True, vocab_rank="tf", clamp_idf=True,
    refex_depth=3, prune_threshold=0.99, weight_by="urls",
)

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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_all_artifacts_match_their_golden_digests(corpus, tmp_path, name):
    knobs = ALTERNATE if name == "alternate" else {}
    run_all(PipelineConfig(
        har_dir=corpus / "har",
        rules_files=[corpus / "truth-rules.txt"],
        out_dir=tmp_path,
        **knobs,
    ))
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == GOLDEN[name]
