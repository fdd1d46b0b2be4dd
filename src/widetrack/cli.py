"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import content as content_mod
from . import forest as forest_mod
from . import pipeline as pipeline_mod
from .filters import label_document
from .graph import GraphIndex, build_widegraph, load_graph, save_graph, stats
from .ingest import read_trees
from .pipeline import DataError, PipelineConfig, load_config
from .synth import EcosystemConfig, generate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config(args) -> PipelineConfig:
    cfg = load_config(PipelineConfig, args.config)
    cfg.validate()
    return cfg


def _load_index(path) -> GraphIndex:
    return GraphIndex(load_graph(Path(path).read_bytes()))


def _row_labels(path, keys):
    """The labels file's label for each row key."""
    labels = pipeline_mod.read_labels_file(Path(path).read_bytes())
    return pipeline_mod.aligned(keys, labels, "label")


def _read_feature_files(paths):
    """Read one content and one structural table: (document keys, content
    values, structural matrix), for ``assemble_all_vectors`` to join as
    run-all does. A second table of a kind is a DataError naming both
    files."""
    parts = {}  # kind -> (path, table)
    for path in paths:
        data = Path(path).read_bytes()
        if data.startswith(b"host\t"):
            kind, read = "content", pipeline_mod.read_content_matrix
        elif data.startswith(b"domain\t"):
            kind, read = "structural", pipeline_mod.read_struct_matrix
        else:
            raise DataError(f"unrecognized feature file {path}")
        if kind in parts:
            raise DataError(f"two {kind} feature files: {parts[kind][0]} and {path}")
        parts[kind] = (path, read(data))
    if len(parts) < 2:
        raise DataError("need one content and one structural feature file")
    keys, _, values = parts["content"][1]
    return keys, values, parts["structural"][1]


def cmd_ingest(args) -> int:
    tally = pipeline_mod.IngestTally()
    with pipeline_mod.replaced_when_done(args.out) as out:
        for _ in pipeline_mod.ingest_har_dir(args.har_dir, out, tally):
            pass  # each tree is written as it passes
    print(f"parsed {tally.sites} sessions, skipped entries: {dict(tally.skipped) or 0}")
    return 0


def cmd_graph_build(args) -> int:
    with Path(args.trees).open("rb") as trees:
        graph = build_widegraph(read_trees(trees))
    with Path(args.out).open("wb") as out:
        save_graph(graph, out)
    print(f"graph: {len(graph.roots)} roots, {len(graph.nodes)} nodes, {len(graph.edges)} edges")
    return 0


def cmd_graph_stats(args) -> int:
    st = stats(_load_index(args.graph))
    for key in (
        "roots",
        "nodes",
        "third_party_nodes",
        "edges",
        "edge_multiplicity_total",
        "documents",
        "avg_path_length",
    ):
        print(f"{key}: {st[key]}")
    print("edges by label:")
    for label, count in st["edges_by_label"].items():
        print(f"  {label}: {count}")
    print("top coverage (direct / indirect / in-degree):")
    for row in st["top_coverage"]:
        print(
            f"  {row['domain']} [{row['kind']}]: "
            f"{row['direct']:.4f} / {row['indirect']:.4f} / {row['in_degree']}"
        )
    return 0


def cmd_features_structural(args) -> int:
    cfg = _config(args)
    matrix = pipeline_mod.structural_matrix(_load_index(args.graph), cfg)
    Path(args.out).write_bytes(pipeline_mod.write_struct_matrix(matrix))
    print(f"structural matrix: {len(matrix.keys)} nodes x {len(matrix.columns)} features")
    return 0


def _eligible(index, cfg):
    """The graph's eligible documents and their row keys."""
    eligible, _ = pipeline_mod.filter_eligible(index, cfg.min_in_degree)
    return eligible, list(map(pipeline_mod.doc_key, eligible))


def cmd_features_content(args) -> int:
    cfg = _config(args)
    eligible, keys = _eligible(_load_index(args.graph), cfg)
    labels = _row_labels(args.labels, keys) if args.labels else None
    train, _ = pipeline_mod.split_keys(keys, cfg, labels)
    vocabulary, (columns, values, _) = pipeline_mod.content_features(eligible, train, cfg)
    Path(args.out).write_bytes(pipeline_mod.write_content_matrix(keys, columns, values))
    if args.vocab_out:
        Path(args.vocab_out).write_bytes(content_mod.save_vocabulary(vocabulary))
    print(
        f"content matrix: {len(eligible)} documents, vocabulary {len(vocabulary.terms)}"
        f" (built on {len(train)} training documents)"
    )
    return 0


def cmd_label(args) -> int:
    cfg = _config(args)
    eligible, keys = _eligible(_load_index(args.graph), cfg)
    ruleset = pipeline_mod.read_rules(args.rules)
    labels = [label_document(ruleset, d) for d in eligible]
    Path(args.out).write_bytes(pipeline_mod.write_labels_file(keys, labels))
    n_ad = sum(1 for lab in labels if lab.label == "adtracker")
    print(
        f"labeled {len(labels)} documents ({n_ad} adtracker); "
        f"rules parsed {ruleset.rule_count}, skipped {dict(ruleset.skip_report) or 0}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _config(args)
    keys, content_values, struct = _read_feature_files(args.features)
    labels = _row_labels(args.labels, keys)
    train, _ = pipeline_mod.split_keys(keys, cfg, labels)
    # As in run-all, X's rows are the training rows in training order.
    X = pipeline_mod.assemble_all_vectors(keys, content_values, struct, train)
    model = pipeline_mod.train_forest(X, [labels[i] for i in train], cfg)
    Path(args.out).write_bytes(forest_mod.save_model(model))
    print(f"trained {cfg.n_trees} trees on {len(train)} documents ({X.shape[1]} features)")
    return 0


def cmd_predict(args) -> int:
    model = forest_mod.load_model(Path(args.model).read_bytes())
    keys, content_values, struct = _read_feature_files(args.features)
    X = pipeline_mod.assemble_all_vectors(keys, content_values, struct)
    scored = pipeline_mod.score_rows(model, X)
    Path(args.out).write_bytes(pipeline_mod.write_scores_file(keys, scored))
    print(f"scored {len(scored)} documents")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config(args)
    overrides = pipeline_mod.read_overrides(cfg.overrides_file)
    index = _load_index(args.graph)
    pipeline_mod.check_override_hosts(overrides, cfg.overrides_file, index.graph)
    eligible, keys = _eligible(index, cfg)
    scores = pipeline_mod.read_scores_file(Path(args.scores).read_bytes())
    predictions = [pred for pred, _ in pipeline_mod.aligned(keys, scores, "prediction")]
    labels = _row_labels(args.labels, keys)
    _, test = pipeline_mod.split_keys(keys, cfg, labels)
    reports = pipeline_mod.evaluate_all(eligible, labels, predictions, test, cfg, overrides)
    print(pipeline_mod.reports_text(reports))
    if args.out:
        out = {name: report.to_dict() for name, report in reports.items()}
        Path(args.out).write_text(
            json.dumps(out, indent=2, sort_keys=True), encoding="utf-8"
        )
    return 0


def cmd_emit_rules(args) -> int:
    index = _load_index(args.graph)
    predictions = pipeline_mod.read_scores_file(Path(args.scores).read_bytes())
    ruleset = pipeline_mod.read_rules(args.rules)
    docs = index.graph.docs
    keys = sorted(predictions)
    for host, kind in keys:
        if (host, kind) not in docs:
            raise DataError(f"{args.scores}: document {host} ({kind}) is not in {args.graph}")
    scored = [predictions[key] for key in keys]
    text = pipeline_mod.emit_candidate_rules(index, [docs[k] for k in keys], scored, ruleset)
    Path(args.out).write_text(text, encoding="utf-8")
    n_rules = sum(1 for line in text.splitlines() if line.startswith("||"))
    print(f"emitted {n_rules} candidate rules")
    return 0


def cmd_synth(args) -> int:
    corpus = generate(load_config(EcosystemConfig, args.config))
    paths = corpus.write(args.out_dir)
    print(
        f"generated {len(corpus.har_files)} HAR files under {paths['har_dir']}, "
        f"{len(corpus.truth_rules)} truth rules"
    )
    return 0


def cmd_run_all(args) -> int:
    cfg = load_config(PipelineConfig, args.config)
    summary = pipeline_mod.run_all(cfg)
    for name, report in summary["reports"].items():
        print(f"{name}: accuracy {report['accuracy']:.4f}")
    print(f"outputs under {cfg.out_dir}")
    return 0


def _config_arg(p):
    p.add_argument(
        "--config", help="run-all config file; all of it is checked before any other input is read"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="widetrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse a directory of HAR files into trees")
    p.add_argument("--har-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    graph = sub.add_parser("graph", help="build or inspect the merged graph")
    gsub = graph.add_subparsers(dest="graph_command", required=True, parser_class=_Parser)
    p = gsub.add_parser("build")
    p.add_argument("--trees", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_graph_build)
    p = gsub.add_parser("stats")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_graph_stats)

    feats = sub.add_parser("features", help="extract feature matrices")
    fsub = feats.add_subparsers(dest="features_command", required=True, parser_class=_Parser)
    p = fsub.add_parser("structural")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    _config_arg(p)
    p.set_defaults(func=cmd_features_structural)
    p = fsub.add_parser("content")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", help="labels file; a stratified split needs it")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-out")
    _config_arg(p)
    p.set_defaults(func=cmd_features_content)

    p = sub.add_parser("label", help="label the eligible documents with filter lists")
    p.add_argument("--graph", required=True)
    p.add_argument("--rules", nargs="+", required=True)
    p.add_argument("--out", required=True)
    _config_arg(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train the random forest on the training split")
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    _config_arg(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score documents with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="run-all's reports over the held-out split")
    p.add_argument("--graph", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out")
    _config_arg(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("emit-rules", help="candidate rules for unblocked predictions")
    p.add_argument("--graph", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--rules", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_emit_rules)

    p = sub.add_parser("synth", help="generate a synthetic HAR corpus with truth")
    p.add_argument("--config", help="EcosystemConfig keys as key = value lines")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run-all", help="end-to-end pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ValueError covers HarParseError, GraphError and ForestError.
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
