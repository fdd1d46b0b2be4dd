"""Spans and counts recorded around widetrack's layer functions.

The tracer swaps the module attributes that ``widetrack.pipeline`` and the
layer modules call through for timing wrappers, and puts the originals back
on exit, so per-layer self time is measured without editing the package.
A span is ``[name, start, end, parent index]``; a layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from widetrack import content, forest, graph, pipeline, structural

ROOT_SPAN = "pipeline.run_all"

# Span names in the order the metrics are listed; "pipeline.self" is the
# root span's own time (glue code and file writes).
SPAN_NAMES = (
    "ingest.parse_har",
    "ingest.build_tree",
    "graph.build_widegraph",
    "graph.save_graph",
    "structural.build_base_matrix",
    "structural.refex_expand",
    "content.build_vocabulary",
    "content.write_matrix",
    "content.assemble_vectors",
    "filters.parse_rules",
    "filters.label",
    "filters.block_matched",
    "forest.train",
    "forest.oob_predict",
    "forest.predict",
    "pipeline.filter_eligible",
    "pipeline.evaluate",
    "pipeline.emit_candidate_rules",
    "pipeline.analysis_tables",
    "pipeline.self",
)

COUNT_NAMES = (
    "ingest.entries",
    "ingest.skipped",
    "graph.nodes",
    "graph.edges",
    "graph.documents",
    "graph.coverage_counts_calls",
    "graph.edge_scans",
    "structural.base_features_calls",
    "structural.columns_generated",
    "structural.columns_kept",
    "content.doc_token_counts_calls",
    "filters.rules_parsed",
    "filters.rules_skipped",
    "filters.url_rule_tests",
    "forest.predict_calls",
    "forest.tree_nodes",
    "forest.train_rows",
    "forest.oob_fallback_rows",
    "pipeline.eligible_docs",
    "pipeline.candidates",
)


def _calls(name):
    def hook(counts, args, result):
        counts[name] += 1

    return hook


def _after_parse_har(counts, args, record):
    counts["ingest.entries"] += len(record.entries)
    counts["ingest.skipped"] += record.skip_count


def _after_build_widegraph(counts, args, g):
    counts["graph.nodes"] = len(g.nodes)
    counts["graph.edges"] = len(g.edges)
    counts["graph.documents"] = len(g.documents())


def _after_expand_level(counts, args, matrix):
    counts["structural.columns_generated"] += len(matrix.columns) - len(args[0].columns)


def _after_refex_expand(counts, args, matrix):
    counts["structural.columns_kept"] = len(matrix.columns)


def _after_parse_rules(counts, args, ruleset):
    counts["filters.rules_parsed"] = ruleset.rule_count
    counts["filters.rules_skipped"] = sum(ruleset.skip_report.values())


def _after_match(counts, args, _):
    rules, document = args[0], args[1]
    counts["filters.url_rule_tests"] += len(document.urls) * len(rules.block_rules)


def _after_train(counts, args, model):
    counts["forest.train_rows"] = len(args[0])
    counts["forest.tree_nodes"] = sum(len(tree.feature) for tree in model.trees)


def _after_filter_eligible(counts, args, result):
    counts["pipeline.eligible_docs"] = len(result[0])


def _after_emit(counts, args, text):
    counts["pipeline.candidates"] = sum(
        1 for line in text.splitlines() if line.startswith("||")
    )


# (module, attribute, span name or None for no span, hook run after the call).
# Each entry is the binding the caller looks up at call time: pipeline's
# own imported names, and module globals that layer functions call.
_PATCHES = (
    (pipeline, "parse_har", "ingest.parse_har", _after_parse_har),
    (pipeline, "build_tree", "ingest.build_tree", None),
    (pipeline, "build_widegraph", "graph.build_widegraph", _after_build_widegraph),
    (pipeline, "save_graph", "graph.save_graph", None),
    (pipeline, "coverage_counts", None, _calls("graph.coverage_counts_calls")),
    (graph, "coverage_counts", None, _calls("graph.coverage_counts_calls")),
    (structural, "build_base_matrix", "structural.build_base_matrix", None),
    (structural, "base_features", None, _calls("structural.base_features_calls")),
    (structural, "refex_expand", "structural.refex_expand", _after_refex_expand),
    (structural, "expand_level", None, _after_expand_level),
    (content, "build_vocabulary", "content.build_vocabulary", None),
    (content, "doc_token_counts", None, _calls("content.doc_token_counts_calls")),
    (pipeline, "write_content_matrix", "content.write_matrix", None),
    (pipeline, "assemble_all_vectors", "content.assemble_vectors", None),
    (pipeline, "parse_rules", "filters.parse_rules", _after_parse_rules),
    (pipeline, "label_document", "filters.label", _after_match),
    (pipeline, "document_block_matched", "filters.block_matched", _after_match),
    (forest, "train", "forest.train", _after_train),
    (forest, "oob_predict", "forest.oob_predict", None),
    (forest, "predict", "forest.predict", _calls("forest.predict_calls")),
    (pipeline, "filter_eligible", "pipeline.filter_eligible", _after_filter_eligible),
    (pipeline, "evaluate", "pipeline.evaluate", None),
    (pipeline, "emit_candidate_rules", "pipeline.emit_candidate_rules", _after_emit),
    (pipeline, "analysis_tables", "pipeline.analysis_tables", None),
)


class Tracer:
    """Install with ``with Tracer() as tracer:``; read results after exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # patch targets the package no longer has
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, span, hook in _PATCHES:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if name == "forest.predict" and parent >= 0:
            # oob_predict calls predict only for rows every tree sampled.
            if self.spans[parent][0] == "forest.oob_predict":
                self.counts["forest.oob_fallback_rows"] += 1
        span[1] = perf_counter()
        return span

    def _close(self, span: list):
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        counts = self.counts

        def wrapper(*args, **kwargs):
            span = self._open(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if span is not None:
                    self._close(span)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def run(self, fn, *args):
        """Call ``fn`` under the root span."""
        span = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def per_layer(self) -> dict[str, float]:
        """Self time per span name (``<name>_s``) plus every count."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            key = "pipeline.self" if name == ROOT_SPAN else name
            self_time[key] += (end - start) - covered[i]
        out = {f"{name}_s": self_time[name] for name in SPAN_NAMES}
        counts = dict(self.counts)
        counts["graph.edge_scans"] = counts.get(
            "graph.coverage_counts_calls", 0
        ) * counts.get("graph.edges", 0)
        for name in COUNT_NAMES:
            out[name] = counts.get(name, 0)
        eligible = counts.get("pipeline.eligible_docs", 0)
        out["content.token_passes_per_doc"] = (
            counts.get("content.doc_token_counts_calls", 0) / eligible if eligible else 0.0
        )
        out["trace.run_all_s"] = sum(
            end - start for name, start, end, _ in self.spans if name == ROOT_SPAN
        )
        return out
