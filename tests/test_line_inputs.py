"""Every line-based input of a small run, read by its own reader and by the
command that reads it.

One run-all writes the ten line-based files a run reads back: its config,
overrides and rules files, and its labels, scores, content, structural,
trees, graph and model files. Each reader goes through
``widetrack.lines.read_lines``, so each reads a CRLF copy as it reads the
LF file, and each names the file and the line of a byte that is not UTF-8,
with its own exception class. Then the command that reads each file runs
on mutated copies of it: it ends with exit 0, 1 or 2 and at most one
stderr line, and a failure names the file or a line.
"""

import io
import json
import re
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from widetrack.cli import main
from widetrack.forest import ForestFormatError, load_model, save_model
from widetrack.graph import GraphFormatError, load_graph
from widetrack.ingest import HarParseError, read_trees
from widetrack.pipeline import (
    DataError,
    PipelineConfig,
    load_config,
    read_content_matrix,
    read_labels_file,
    read_overrides,
    read_rules,
    read_scores_file,
    read_struct_matrix,
)
from widetrack.synth import EcosystemConfig, generate


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """(work dir, {kind: path of the run's file of that kind})."""
    work = tmp_path_factory.mktemp("line-inputs")
    corpus = generate(
        EcosystemConfig(
            n_sites=15, n_trackers=5, n_benign=4,
            tracker_embed_prob=0.5, benign_embed_prob=0.15, bounce_prob=0.4, seed=17,
        )
    )
    corpus.write(work / "corpus")
    out = work / "out"
    overrides = work / "overrides.tsv"
    hosts = sorted({host for host, _ in corpus.truth_labels})
    overrides.write_text(f"# hand-checked verdicts\n{hosts[0]}\tbenign\n{hosts[-1]}\tadtracker\n")
    config = work / "run.cfg"
    config.write_text(
        f"# a small run\nhar_dir = {work / 'corpus' / 'har'}\n"
        f"rules_files = {work / 'corpus' / 'truth-rules.txt'}\nout_dir = {out}\n"
        f"overrides_file = {overrides}\nn_trees = 10\ntrain_frac = 0.75\nmin_in_degree = 2\n"
    )
    assert main(["run-all", "--config", str(config)]) == 0
    files = {
        "config": config,
        "overrides": overrides,
        "rules": work / "corpus" / "truth-rules.txt",
        **{kind: out / name for kind, name in [
            ("labels", "labels.tsv"), ("scores", "scores.tsv"), ("content", "content.tsv"),
            ("structural", "structural.tsv"), ("trees", "trees.jsonl"),
            ("graph", "graph.jsonl"), ("model", "model.txt"),
        ]},
    }
    return work, files


def _content(path):
    keys, columns, values = read_content_matrix(path.read_bytes(), path)
    return keys, columns, values.tolist()


def _structural(path):
    matrix = read_struct_matrix(path.read_bytes(), path)
    return matrix.keys, matrix.columns, matrix.values.tolist()


# kind -> (its reader on a file's path, giving a value tests can compare;
# the reader's own exception class)
READERS = {
    "config": (lambda path: load_config(PipelineConfig, path), DataError),
    "overrides": (read_overrides, DataError),
    "rules": (lambda path: read_rules([path]), DataError),
    "labels": (lambda path: read_labels_file(path.read_bytes(), path), DataError),
    "scores": (lambda path: read_scores_file(path.read_bytes(), path), DataError),
    "content": (_content, DataError),
    "structural": (_structural, DataError),
    "trees": (lambda path: list(read_trees(io.BytesIO(path.read_bytes()), path)), HarParseError),
    "graph": (lambda path: load_graph(path.read_bytes(), path), GraphFormatError),
    "model": (lambda path: save_model(load_model(path.read_bytes(), path)), ForestFormatError),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_crlf_reads_as_lf(run, kind):
    work, files = run
    read, _ = READERS[kind]
    data = files[kind].read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data
    crlf = work / f"crlf-{files[kind].name}"
    crlf.write_bytes(data.replace(b"\n", b"\r\n"))
    assert read(crlf) == read(files[kind])


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("kind", sorted(READERS))
def test_byte_that_is_not_utf8_names_the_file_and_line(run, kind, where):
    work, files = run
    read, error = READERS[kind]
    lines = files[kind].read_bytes().splitlines(keepends=True)
    at = 0 if where == "first" else len(lines) - 1
    lines[at] = lines[at][:1] + b"\xff" + lines[at][1:]
    bad = work / f"bad-{files[kind].name}"
    bad.write_bytes(b"".join(lines))
    with pytest.raises(error) as err:
        read(bad)
    assert type(err.value) is error
    assert str(err.value) == f"{bad}: line {at + 1}: byte 0xff is not UTF-8"


def _command(work, files, kind, path):
    """The cli.main arguments of a command that reads ``path`` as the run's
    ``kind`` file, every other input being the run's own."""
    f = {k: str(p) for k, p in files.items()}
    f[kind] = str(path)
    out = str(work / "mutated-out")
    if kind == "overrides":  # the run's config, naming this overrides file
        config = work / "mutated-overrides.cfg"
        text = files["config"].read_text()
        config.write_text(re.sub(r"(?m)^overrides_file = .*$", f"overrides_file = {path}", text))
        f["config"] = str(config)
    graph, config = ["--graph", f["graph"]], ["--config", f["config"]]
    features = ["--features", f["content"], f["structural"]]
    if kind == "config":
        return ["features", "structural", *graph, "--out", out, *config]
    if kind in ("overrides", "scores"):
        return ["evaluate", *graph, "--scores", f["scores"], "--labels", f["labels"], *config]
    if kind == "rules":
        return ["label", *graph, "--rules", f["rules"], "--out", out]
    if kind == "labels":
        return ["features", "content", *graph, "--labels", f["labels"], "--out", out, *config]
    if kind in ("content", "structural", "model"):
        return ["predict", "--model", f["model"], *features, "--out", out]
    if kind == "trees":
        return ["graph", "build", "--trees", f["trees"], "--out", out]
    return ["graph", "stats", *graph]


@st.composite
def mutations(draw, data):
    """``data`` with one line-level fault: a stray 0xff byte, CRLF line
    ends, a line dropped, repeated or cut short, or a U+2028 inside a line."""
    lines = data.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    inside = draw(st.integers(0, max(len(line) - 1, 0)))
    op = draw(st.sampled_from(["byte", "crlf", "drop", "repeat", "cut", "u2028"]))
    if op == "byte":
        lines[at] = line[:inside] + b"\xff" + line[inside:]
    elif op == "crlf":
        lines = [raw.replace(b"\n", b"\r\n") for raw in lines]
    elif op == "drop":
        del lines[at]
    elif op == "repeat":
        lines.insert(at, line)
    elif op == "cut":
        lines[at] = line[:inside] + b"\n"
    else:
        lines[at] = line[:inside] + "\u2028".encode() + line[inside:]
    return b"".join(lines)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mutated_input_exits_cleanly_naming_its_file_or_line(run, capsys, kind, data):
    work, files = run
    mutated = work / f"mutated-{files[kind].name}"
    mutated.write_bytes(data.draw(mutations(files[kind].read_bytes())))
    capsys.readouterr()
    code = main(_command(work, files, kind, mutated))
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1, err
    if code:
        assert str(mutated) in err or re.search(r"\bline \d+", err), err


# What a graph record's value may be swapped for: a value of another JSON
# type, or an integer at or past the ends of the ones the writer writes.
_OTHER_TYPES = ["x", [], ["x", 1], None, 1.5, True, False, {"t": "edge"}]
_ODD_INTEGERS = [-1, 0, 2**63, 10**20]


@st.composite
def graph_record_mutations(draw, data):
    """The graph file ``data`` with one record changed at the JSON level: a
    value, at any depth, swapped for one of another type; a key dropped;
    or an edge's ``m`` or a document URL's count set to an odd integer.
    The record is re-encoded as ``save_graph`` lays it out."""
    lines = data.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    rec = json.loads(lines[at])
    op = draw(st.sampled_from(["type", "drop", "integer"]))
    if op == "integer" and rec.get("t") in ("edge", "doc"):
        value = draw(st.sampled_from(_ODD_INTEGERS))
        if rec["t"] == "edge":
            rec["m"] = value
        else:
            rec["urls"][draw(st.integers(0, len(rec["urls"]) - 1))][1] = value
    elif op == "drop":
        del rec[draw(st.sampled_from(sorted(rec)))]
    else:
        parent, key = rec, draw(st.sampled_from(sorted(rec)))
        # Go down into a list value as far as the draws say.
        while isinstance(parent[key], list) and parent[key] and draw(st.booleans()):
            parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
        old = parent[key]
        parent[key] = draw(st.sampled_from([v for v in _OTHER_TYPES if type(v) is not type(old)]))
    lines[at] = (json.dumps(rec, sort_keys=True) + "\n").encode()
    return b"".join(lines)


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_graph_record_mutations_exit_cleanly_naming_the_file_and_line(run, capsys, data):
    work, files = run
    mutated = work / "json-mutated-graph.jsonl"
    mutated.write_bytes(data.draw(graph_record_mutations(files["graph"].read_bytes())))
    capsys.readouterr()
    code = main(["graph", "stats", "--graph", str(mutated)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1, err
    if code:
        assert re.match(rf"{re.escape(str(mutated))}: line \d+: ", err.removeprefix("error: ")), err
