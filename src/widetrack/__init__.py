"""widetrack: cross-site request-graph construction and tracker classification."""

__version__ = "0.1.0"

from .domains import registrable_domain
from .graph import WideGraph, build_widegraph, load_graph, save_graph
from .ingest import build_tree, classify_interaction, parse_har

__all__ = [
    "WideGraph",
    "build_tree",
    "build_widegraph",
    "classify_interaction",
    "load_graph",
    "parse_har",
    "registrable_domain",
    "save_graph",
    "__version__",
]
