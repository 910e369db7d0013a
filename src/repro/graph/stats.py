"""Descriptive statistics over graphs — the numbers in Tables 4, 6, 7."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.base import GraphAccess
from repro.graph.memory import CSRGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of one graph."""

    num_nodes: int
    num_edges: int
    density: float
    min_degree: int
    max_degree: int
    mean_degree: float
    median_degree: float
    isolated_nodes: int

    def as_row(self) -> dict[str, float | int]:
        """Flat dict for table printing."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "density": round(self.density, 2),
            "min_deg": self.min_degree,
            "max_deg": self.max_degree,
            "mean_deg": round(self.mean_degree, 2),
            "median_deg": self.median_degree,
            "isolated": self.isolated_nodes,
        }


def graph_stats(graph: GraphAccess) -> GraphStats:
    """Compute :class:`GraphStats` for any :class:`GraphAccess`."""
    if isinstance(graph, CSRGraph):
        out_degrees = np.diff(graph._indptr)
    else:
        out_degrees = np.array(
            [graph.out_degree(u) for u in range(graph.num_nodes)], dtype=np.int64
        )
    if len(out_degrees) == 0:
        return GraphStats(0, 0, 0.0, 0, 0, 0.0, 0.0, 0)
    return GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        density=graph.density,
        min_degree=int(out_degrees.min()),
        max_degree=int(out_degrees.max()),
        mean_degree=float(out_degrees.mean()),
        median_degree=float(np.median(out_degrees)),
        isolated_nodes=int((out_degrees == 0).sum()),
    )


def degree_histogram(graph: CSRGraph, *, log_bins: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Degree distribution; with ``log_bins > 0`` use logarithmic binning.

    Returns ``(bin_edges_or_degrees, counts)``.  Used to sanity check that
    R-MAT stand-ins are heavy tailed like their SNAP originals.
    """
    degrees = np.diff(graph._indptr)
    if log_bins <= 0:
        values, counts = np.unique(degrees, return_counts=True)
        return values, counts
    positive = degrees[degrees > 0]
    if len(positive) == 0:
        return np.array([]), np.array([])
    edges = np.logspace(
        0, np.log10(positive.max() + 1), num=log_bins + 1, base=10.0
    )
    counts, edges = np.histogram(positive, bins=edges)
    return edges, counts
