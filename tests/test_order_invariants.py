"""Order invariants of run-all: relations between a corpus, a reordering of
it, and the artifacts each gives.

One 40-site synthetic corpus (seed 7, its truth rules) is run once; each
test runs a transform of it, hypothesis choosing the permutation, and
compares every artifact byte for byte with the base run's, naming the one
file or field the relation lets change:

- renaming and reordering the HAR files changes only ``trees.jsonl``,
  whose lines are the base run's in another order;
- shuffling each capture's ``log.entries`` changes no artifact;
- doubling and shuffling the rule list changes only ``report.json``'s
  ``rules.parsed``, which doubles;
- splitting the rule list across two rules files, with CRLF line ends in
  them and in the config file, changes no artifact.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from widetrack.pipeline import PipelineConfig, load_config, run_all
from widetrack.synth import EcosystemConfig, generate

N_SITES = 40
ARTIFACTS = (
    "candidate-rules.txt", "content.tsv", "graph.jsonl", "labels.tsv", "model.txt",
    "report.json", "report.txt", "scores.tsv", "structural.tsv", "trees.jsonl",
    "vocabulary.tsv",
)

CORPUS = generate(EcosystemConfig(n_sites=N_SITES, seed=7))


def run(har_files, rules, cut=None, newline="\n"):
    """Every artifact of run-all over ``har_files`` ((name, bytes) pairs)
    and the rule lines ``rules``, by name. The rules go in one file, or in
    two split before ``rules[cut]``; run-all reads its config from a file.
    ``newline`` ends every line of the rules and config files."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        har_dir = work / "har"
        har_dir.mkdir()
        for name, data in har_files:
            (har_dir / name).write_bytes(data)
        parts = [rules] if cut is None else [rules[:cut], rules[cut:]]
        rule_files = [work / f"rules{i}.txt" for i in range(len(parts))]
        for path, part in zip(rule_files, parts):
            path.write_bytes("".join(line + newline for line in part).encode())
        out = work / "out"
        config = [f"har_dir = {har_dir}", f"out_dir = {out}"]
        config.append("rules_files = " + " ".join(map(str, rule_files)))
        (work / "run.cfg").write_bytes("".join(line + newline for line in config).encode())
        run_all(load_config(PipelineConfig, work / "run.cfg"))
        assert sorted(p.name for p in out.iterdir()) == list(ARTIFACTS)
        return {name: (out / name).read_bytes() for name in ARTIFACTS}


@pytest.fixture(scope="module")
def base():
    return run(CORPUS.har_files, CORPUS.truth_rules)


def assert_same_except(base, other, allowed=()):
    for name in ARTIFACTS:
        if name not in allowed:
            assert other[name] == base[name], f"{name} changed"


_SETTINGS = settings(
    max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_SETTINGS
@given(st.permutations(range(N_SITES)))
def test_renamed_and_reordered_har_files_change_only_the_trees_file(base, order):
    renamed = [(f"capture{order[i]:03d}.har", data) for i, (_, data) in enumerate(CORPUS.har_files)]
    other = run(renamed, CORPUS.truth_rules)
    assert_same_except(base, other, allowed=("trees.jsonl",))
    assert sorted(other["trees.jsonl"].splitlines()) == sorted(base["trees.jsonl"].splitlines())


@_SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_shuffled_capture_entries_change_no_artifact(base, seed):
    rng = random.Random(seed)
    shuffled = []
    for name, data in CORPUS.har_files:
        har = json.loads(data)
        rng.shuffle(har["log"]["entries"])
        shuffled.append((name, json.dumps(har).encode()))
    assert_same_except(base, run(shuffled, CORPUS.truth_rules))


@_SETTINGS
@given(st.permutations(CORPUS.truth_rules * 2))
def test_doubled_and_shuffled_rules_change_only_the_parsed_rule_count(base, rules):
    other = run(CORPUS.har_files, rules)
    assert_same_except(base, other, allowed=("report.json",))
    parsed = json.loads(base["report.json"])["rules"]["parsed"]
    assert json.loads(other["report.json"])["rules"]["parsed"] == 2 * parsed
    field = b'"parsed": %d' % parsed
    assert base["report.json"].count(field) == 1
    doubled = base["report.json"].replace(field, b'"parsed": %d' % (2 * parsed))
    assert other["report.json"] == doubled


@_SETTINGS
@given(st.integers(0, len(CORPUS.truth_rules)))
def test_rules_split_across_two_crlf_files_change_no_artifact(base, cut):
    assert_same_except(base, run(CORPUS.har_files, CORPUS.truth_rules, cut, newline="\r\n"))
