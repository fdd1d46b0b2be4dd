import io

import pytest

from widetrack.graph import GraphIndex, build_widegraph, coverage, save_graph
from widetrack.ingest import build_tree, parse_har
from widetrack.synth import EcosystemConfig, SynthCorpus, generate


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
    index = GraphIndex(g)
    tracker_cov, benign_cov = [], []
    for (host, kind), label in corpus.truth_labels.items():
        direct, _ = coverage(index, g.docs[host, kind].parent)
        (tracker_cov if label == "adtracker" else benign_cov).append(direct)
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(tracker_cov) > mean(benign_cov)


def test_every_service_is_eligible_by_construction():
    from widetrack.pipeline import PipelineConfig, filter_eligible

    corpus = generate(small_config(tracker_embed_prob=0.0, benign_embed_prob=0.0))
    kept, report = filter_eligible(GraphIndex(corpus.truth_graph), PipelineConfig().min_in_degree)
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
