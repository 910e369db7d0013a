"""Planted-partition (stochastic block style) community graphs.

Used by :mod:`repro.graph.datasets` to build stand-ins for the SNAP
community networks (DBLP, Youtube, LiveJournal) that the paper evaluates
on.  The generator plants ``num_communities`` groups, wires each group as
a sparse internal Erdős–Rényi graph, sprinkles inter-community edges, and
finally threads a spanning path through every node so that the graph is
connected (random queries in the paper's experiments implicitly live in
the giant component).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.memory import CSRGraph


def community_graph(
    num_nodes: int,
    num_communities: int,
    avg_internal_degree: float,
    avg_external_degree: float,
    *,
    seed: int | None = None,
) -> CSRGraph:
    """Generate a connected community-structured graph.

    Parameters
    ----------
    num_nodes:
        Total node count; communities are equally sized.
    num_communities:
        Number of planted groups (>= 1).
    avg_internal_degree:
        Expected number of intra-community neighbors per node.
    avg_external_degree:
        Expected number of inter-community neighbors per node.
    """
    if num_communities < 1 or num_nodes < num_communities:
        raise GraphError("need at least one node per community")
    if avg_internal_degree < 0 or avg_external_degree < 0:
        raise GraphError("average degrees must be non-negative")
    rng = np.random.default_rng(seed)

    membership = np.sort(
        np.arange(num_nodes, dtype=np.int64) % num_communities
    )
    order = rng.permutation(num_nodes).astype(np.int64)
    # nodes_of[c] lists the node ids assigned to community c: membership
    # is sorted, so each community is one contiguous slice of ``order``.
    bounds = np.searchsorted(membership, np.arange(1, num_communities))
    nodes_of = np.split(order, bounds)
    blocks = []

    for members in nodes_of:
        size = len(members)
        if size < 2:
            continue
        target = int(round(avg_internal_degree * size / 2.0))
        target = min(target, size * (size - 1) // 2)
        if target <= 0:
            continue
        u = rng.integers(0, size, size=target * 2, dtype=np.int64)
        v = rng.integers(0, size, size=target * 2, dtype=np.int64)
        keep = u != v
        edges = np.stack([members[u[keep]], members[v[keep]]], axis=1)
        blocks.append(edges[:target])

    inter_target = int(round(avg_external_degree * num_nodes / 2.0))
    if inter_target > 0 and num_communities > 1:
        u = rng.integers(0, num_nodes, size=inter_target * 2, dtype=np.int64)
        v = rng.integers(0, num_nodes, size=inter_target * 2, dtype=np.int64)
        comm_of = np.empty(num_nodes, dtype=np.int64)
        comm_of[order] = membership
        keep = (u != v) & (comm_of[u] != comm_of[v])
        edges = np.stack([u[keep], v[keep]], axis=1)
        blocks.append(edges[:inter_target])

    # Spanning path in random order guarantees connectivity.
    spine = rng.permutation(num_nodes).astype(np.int64)
    blocks.append(np.stack([spine[:-1], spine[1:]], axis=1))
    builder = GraphBuilder(num_nodes, merge="first")
    builder.add_edges(np.concatenate(blocks))
    del blocks  # the builder holds its own copy; keep build's peak low
    return builder.build()
