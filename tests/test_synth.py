import dataclasses
import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from widetrack.cli import main
from widetrack.graph import build_widegraph, coverage, save_graph
from widetrack.ingest import build_tree, parse_har
from widetrack.synth import EcosystemConfig, SynthCorpus, _fresh_values, generate


def small_config(**overrides):
    base = dict(
        n_sites=12, n_trackers=5, n_benign=4,
        tracker_embed_prob=0.4, benign_embed_prob=0.1, bounce_prob=0.4, seed=21,
    )
    base.update(overrides)
    return EcosystemConfig(**base)


def corpus_fingerprint(corpus: SynthCorpus) -> bytes:
    parts = [data for _, data in corpus.har_files]
    parts.append("\n".join(corpus.truth_rules).encode())
    parts.append(repr(sorted(corpus.truth_labels.items())).encode())
    graph = io.BytesIO()
    save_graph(corpus.truth_graph, graph)
    parts.append(graph.getvalue())
    return b"\x00".join(parts)


def test_fixed_seed_is_byte_identical():
    a = generate(small_config())
    b = generate(small_config())
    assert corpus_fingerprint(a) == corpus_fingerprint(b)


def test_different_seeds_differ():
    a = generate(small_config(seed=1))
    b = generate(small_config(seed=2))
    assert corpus_fingerprint(a) != corpus_fingerprint(b)


def test_single_site_single_tracker():
    corpus = generate(
        EcosystemConfig(
            n_sites=1, n_trackers=1, n_benign=1,
            tracker_embed_prob=1.0, benign_embed_prob=0.0, bounce_prob=0.0, seed=3,
        )
    )
    assert len(corpus.har_files) == 1
    name, data = corpus.har_files[0]
    assert b"svc000.net" in data
    tracker_labels = [
        label for (host, _), label in corpus.truth_labels.items() if "svc000" in host
    ]
    assert tracker_labels == ["adtracker"]
    assert any(r.startswith("||") and "svc000" in r for r in corpus.truth_rules)


def test_every_url_ingests_without_skips():
    corpus = generate(small_config())
    for _, data in corpus.har_files:
        record = parse_har(data)
        assert record.skip_count == 0


def test_truth_graph_matches_pipeline_graph():
    corpus = generate(small_config())
    trees = [build_tree(parse_har(data)) for _, data in corpus.har_files]
    assert build_widegraph(trees) == corpus.truth_graph


def test_trackers_have_higher_direct_coverage():
    corpus = generate(EcosystemConfig(n_sites=60, n_trackers=10, n_benign=8, seed=5))
    g = corpus.truth_graph
    tracker_cov, benign_cov = [], []
    for (host, kind), label in corpus.truth_labels.items():
        direct, _ = coverage(g, g.docs[host, kind].parent)
        (tracker_cov if label == "adtracker" else benign_cov).append(direct)
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(tracker_cov) > mean(benign_cov)


def test_every_service_is_eligible_by_construction():
    from widetrack.pipeline import PipelineConfig, filter_eligible

    corpus = generate(small_config(tracker_embed_prob=0.0, benign_embed_prob=0.0))
    kept, report = filter_eligible(corpus.truth_graph, PipelineConfig().min_in_degree)
    # anchor embedding guarantees 3 distinct first parties per service
    assert report["removed"] == 0
    assert report["kept"] == len(corpus.truth_labels)


def test_write_layout(tmp_path):
    corpus = generate(small_config(n_sites=3))
    paths = corpus.write(tmp_path)
    assert sorted(p.name for p in paths["har_dir"].glob("*.har")) == [
        "site000.com.har", "site001.com.har", "site002.com.har",
    ]
    labels_text = paths["labels"].read_text()
    assert "adtracker" in labels_text and "benign" in labels_text
    assert all(line.startswith("||") for line in paths["rules"].read_text().splitlines())
    from widetrack.graph import load_graph

    assert load_graph(paths["graph"].read_bytes()) == corpus.truth_graph


def test_config_validation():
    with pytest.raises(ValueError):
        EcosystemConfig(n_sites=0).validate()
    with pytest.raises(ValueError):
        EcosystemConfig(bounce_prob=1.5).validate()
    # random.Random(-7) draws as Random(7), so a negative seed would repeat a corpus.
    with pytest.raises(ValueError, match="seed must be >= 0"):
        EcosystemConfig(seed=-7).validate()


# The sha256 of every file ``SynthCorpus.write`` writes. "har/*.har" is the
# digest of the HAR manifest, one "<sha256>  <name>" line per file in name
# order (``cd har && sha256sum *.har | sha256sum``). The 40-site corpus is the
# one tests/test_golden.py runs; the small one bounces every script tracker,
# so the second-hop branch runs. Each is written by ``SynthCorpus.write`` and
# by the ``synth`` command, which streams its captures. A change that alters a corpus on purpose
# updates its digests here and names the change.
CORPUS_DIGESTS = {
    "golden": (
        EcosystemConfig(n_sites=40, seed=7),
        {
            "har/*.har": "54c9da5e1894da260eac6da9a704a59159d339e408682925b7da078e9c623281",
            "truth-graph.jsonl": "01b840760423d13ffba77fc91e064f40141f46b06bf6463ce397936498cfdcad",
            "truth-labels.tsv": "d90e8395ff0844866ca16e8da3ec5b5dcab5b6284ec298e44927d74d40721801",
            "truth-rules.txt": "492f97a55c4be99b35d2e442a62093e0314a451afa7b3efa6e19f3a57615c6ad",
        },
    ),
    "bounce": (
        small_config(bounce_prob=1.0),
        {
            "har/*.har": "780e5bec0fa26bb3963ef00ae7267942742e7d4cf714874ef87c53f75ea7f537",
            "truth-graph.jsonl": "85812e1aa69d4f9fcce5ba8de4ebd79e2742cf9ffbf5c8ac4541d68b3c0f62b1",
            "truth-labels.tsv": "be91823e015bf8c383717170fc35eadc62e998d21e19fc900a2c97fc861308c2",
            "truth-rules.txt": "555cbbc91b60d9621cb7da50b9e5615cf299c815b22eeef50afaee5a839fc7d8",
        },
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("writer", ["write", "synth"])
@pytest.mark.parametrize("name", sorted(CORPUS_DIGESTS))
def test_written_corpus_matches_committed_digests(name, writer, tmp_path):
    config, expected = CORPUS_DIGESTS[name]
    corpus = generate(config)
    out = tmp_path / "corpus"
    if writer == "write":
        corpus.write(out)
    else:
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(
            "".join(f"{k} = {v}\n" for k, v in dataclasses.asdict(config).items())
        )
        assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 0
    manifest = "".join(
        f"{sha256(f.read_bytes())}  {f.name}\n" for f in sorted((out / "har").iterdir())
    )
    got = {"har/*.har": sha256(manifest.encode())}
    truth_files = ["truth-graph.jsonl", "truth-labels.tsv", "truth-rules.txt"]
    got.update((file, sha256((out / file).read_bytes())) for file in truth_files)
    assert got == expected
    assert sorted(p.name for p in out.iterdir()) == ["har", *truth_files]
    # Both corpora take the second-hop branch: only a second hop's loader
    # can be a service the site does not embed directly.
    assert any(
        loader not in plan.direct
        for plan in corpus.site_plans.values()
        for loader, _ in plan.loads
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    ops=st.lists(st.sampled_from(("hex", "random", "choice")), max_size=40),
)
def test_fresh_value_draws_as_choices(seed, ops):
    """One draw per pair of hex values reads the Mersenne words two
    16-digit ``choices`` read."""
    rng, ref = random.Random(seed), random.Random(seed)
    counter = [0]
    for op in ops:
        if op == "hex":
            expected = tuple(
                f"{counter[0] + k:06d}" + "".join(ref.choices("0123456789abcdef", k=16))
                for k in (1, 2)
            )
            assert _fresh_values(rng, counter) == expected
        elif op == "random":
            assert rng.random() == ref.random()
        else:
            assert rng.choice(("a", "b", "c")) == ref.choice(("a", "b", "c"))
        assert rng.getstate() == ref.getstate()


def test_har_bytes_are_sorted_compact_json():
    corpus = generate(small_config(bounce_prob=1.0))
    initiated = set()
    for _, data in corpus.har_files:
        assert data == json.dumps(json.loads(data), sort_keys=True, separators=(",", ":")).encode()
        initiated.update("_initiator" in e for e in json.loads(data)["log"]["entries"])
    assert initiated == {True, False}
