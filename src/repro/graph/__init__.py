"""Graph substrates: in-memory CSR, disk-resident store, generators, IO."""

from repro.graph.base import GraphAccess
from repro.graph.builder import GraphBuilder
from repro.graph.dynamic import DynamicGraph
from repro.graph.memory import CSRGraph
from repro.graph.stats import GraphStats, degree_histogram, graph_stats
from repro.graph.updates import (
    EdgeEvent,
    EdgeUpdate,
    UpdateLog,
    apply_edge_updates,
)

__all__ = [
    "GraphAccess",
    "GraphBuilder",
    "CSRGraph",
    "DynamicGraph",
    "EdgeEvent",
    "EdgeUpdate",
    "UpdateLog",
    "apply_edge_updates",
    "GraphStats",
    "graph_stats",
    "degree_histogram",
]
