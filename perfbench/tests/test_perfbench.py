"""Tests of the benchmark itself, at a scale that runs in seconds."""

import dataclasses
import json
import signal
import time
from pathlib import Path

import pytest

from perfbench import bench, clock, rulegen, tracing
from perfbench.workloads import WORKLOADS, corpus_urls, prepare
from widetrack.filters import label_document, parse_rules
from widetrack.pipeline import PipelineConfig, run_all

TINY = {
    "graph_dense": dict(sites=12, trackers=8, benign=6),
    "rules_large": dict(sites=8, trackers=10, benign=6, extra_rules=400),
    "docs_noisy": dict(sites=5, trackers=15, benign=10),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(name, tmp_path):
    work = tmp_path / "work"
    result = bench.measure(tiny(name), seed=3, seconds=0, trace=False, work_dir=work)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert set(result["end_to_end"]) == set(bench.END_TO_END_UNITS)
    assert all(v > 0 for v in result["end_to_end"].values())
    line = json.loads(bench.report(result, trace=False).splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert not work.exists()  # the run cleans up after itself


def test_traced_smoke_run_reports_every_per_layer_metric(tmp_path):
    result = bench.measure(
        tiny("rules_large"), seed=3, seconds=0, trace=True, work_dir=tmp_path / "work"
    )
    assert result["correct"], result["problems"]
    assert [it["traced"] for it in result["iterations"]] == [False, True]
    line = json.loads(bench.report(result, trace=True).splitlines()[-1])
    assert list(line["metrics"]) == bench.PER_LAYER_NAMES


def _traced_run(prepared, out):
    cfg = PipelineConfig(
        har_dir=prepared.har_dir, rules_files=[prepared.rules_path], out_dir=out
    )
    with tracing.Tracer() as tracer:
        tracer.run(run_all, cfg)
    assert tracer.missing == []
    return tracer.per_layer()


def test_self_times_sum_to_root_span_and_counts_repeat(tmp_path):
    prepared = prepare(tiny("docs_noisy"), 5, tmp_path / "corpus")
    first = _traced_run(prepared, tmp_path / "a")
    second = _traced_run(prepared, tmp_path / "b")
    self_total = sum(first[f"{name}_s"] for name in tracing.SPAN_NAMES)
    assert self_total == pytest.approx(first["trace.run_all_s"], rel=1e-9)
    assert all(first[f"{name}_s"] >= 0 for name in tracing.SPAN_NAMES)
    for name in tracing.COUNT_NAMES:
        assert first[name] == second[name], name
    assert first["graph.edge_scans"] == first["graph.coverage_counts_calls"] * first["graph.edges"]
    assert first["forest.predict_calls"] > 0 and first["filters.url_rule_tests"] > 0
    # The wrappers are gone once the tracer exits.
    from widetrack import pipeline

    assert pipeline.label_document is label_document


def test_generated_rules_change_no_label_on_a_second_seed(tmp_path):
    workload = dataclasses.replace(tiny("rules_large"), extra_rules=1000)
    prepared = prepare(workload, 11, tmp_path)
    corpus = prepared.corpus
    generated = prepared.generated
    assert rulegen.inert_violations(generated, corpus_urls(corpus), corpus.truth_graph.roots) == []
    kinds = [r for r in generated if not r.startswith("!")]
    assert sum("##" in r for r in kinds) >= 1
    assert sum(r.startswith("@@") for r in kinds) >= 100
    assert sum("domain=" in r for r in kinds) >= 100

    kept = parse_rules("\n".join(r for r in prepared.rules_path.read_text().splitlines()
                                 if r not in set(generated)))
    full = parse_rules(prepared.rules_path.read_text())
    assert dict(full.skip_report) == {k: v for k, v in rulegen.expected_skips(generated).items() if v}
    for doc in corpus.truth_graph.documents():
        assert label_document(full, doc).label == label_document(kept, doc).label
        assert label_document(full, doc).label == prepared.expected_label(doc.host, doc.kind)


def test_inertness_check_flags_rules_that_match_the_corpus(tmp_path):
    prepared = prepare(tiny("rules_large"), 11, tmp_path)
    corpus = prepared.corpus
    host = corpus.truth_graph.documents()[0].host
    site = sorted(corpus.truth_graph.roots)[0]
    live = [f"||{host}^", f"@@||{host}^$domain={site}", f"||{host}^$domain=~nowhere.org"]
    assert rulegen.inert_violations(
        live + ["/w0001/"], corpus_urls(corpus), corpus.truth_graph.roots
    ) == live + ["/w0001/"]


def test_speed_probe_samples_the_span_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with clock.SpeedProbe() as speed:
        end = time.perf_counter() + 3 * clock.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 2 + 2  # entry, exit and the timer's samples
    # A core on which the probe takes REF_PROBE_S runs at reference speed; one
    # twice as slow turns a wall second into half a reference second.
    speed.samples = [clock.REF_PROBE_S] * 3
    assert speed.scaled(2.0) == pytest.approx(2.0)
    speed.samples = [2 * clock.REF_PROBE_S] * 3
    assert speed.scaled(2.0) == pytest.approx(1.0)
    assert 0 < clock.footprint_mb() < 100


def test_benchmark_json_matches_the_metrics_the_code_prints():
    spec = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == bench.PER_LAYER_NAMES
    assert all(m["unit"] == bench.per_layer_unit(m["name"]) for m in spec["per_layer"])
