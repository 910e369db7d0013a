"""Reference implementations the library's fast paths are tested against.

Each function here is the plain, loop-based version of something the
library does in batched numpy.  They are kept only as oracles for the
equivalence tests and are never imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.dynamic import DynamicGraph


def overlay_neighbors(dyn: DynamicGraph, u: int) -> tuple[np.ndarray, np.ndarray]:
    """Pure-Python merge of ``dyn``'s base row of ``u`` with its delta.

    Base adjacency order with overridden weights in place and tombstones
    dropped, then delta-only edges in insertion order.
    """
    dyn.validate_node(u)
    base_ids, base_w = dyn._base.neighbors(u)
    delta = dyn._delta.get(u)
    if not delta:
        return base_ids, base_w
    ids: list[int] = []
    weights: list[float] = []
    for v, w in zip(base_ids, base_w):
        v = int(v)
        if v in delta:
            override = delta[v]
            if override is not None:
                ids.append(v)
                weights.append(override)
            # tombstone: skip the base edge
        else:
            ids.append(v)
            weights.append(float(w))
    base_set = set(map(int, base_ids))
    for v, w in delta.items():
        if w is not None and v not in base_set:
            ids.append(v)
            weights.append(w)
    return (
        np.array(ids, dtype=np.int64),
        np.array(weights, dtype=np.float64),
    )


def overlay_transition_many(
    dyn: DynamicGraph, nodes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node loop over :func:`overlay_neighbors`, each row divided by
    the node's scalar ``degree``, concatenated as ``(ids, probs, counts)``."""
    ids, probs, counts = [], [], []
    for u in nodes:
        row_ids, row_w = overlay_neighbors(dyn, int(u))
        w_u = dyn.degree(int(u))
        ids.append(row_ids)
        probs.append(row_w / w_u if w_u > 0 else np.zeros(len(row_w)))
        counts.append(len(row_ids))
    return (
        np.concatenate(ids) if ids else np.empty(0, dtype=np.int64),
        np.concatenate(probs) if probs else np.empty(0),
        np.array(counts, dtype=np.int64),
    )


def community_graph_loop(
    num_nodes: int,
    num_communities: int,
    avg_internal_degree: float,
    avg_external_degree: float,
    *,
    seed: int | None = None,
):
    """The original ``community_graph``: one ``add_edges`` per community
    and a per-community loop for the membership lookup."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(num_nodes, merge="first")

    membership = np.sort(
        np.arange(num_nodes, dtype=np.int64) % num_communities
    )
    order = rng.permutation(num_nodes).astype(np.int64)
    nodes_of = [order[membership == c] for c in range(num_communities)]

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
        builder.add_edges(edges[:target])

    inter_target = int(round(avg_external_degree * num_nodes / 2.0))
    if inter_target > 0 and num_communities > 1:
        u = rng.integers(0, num_nodes, size=inter_target * 2, dtype=np.int64)
        v = rng.integers(0, num_nodes, size=inter_target * 2, dtype=np.int64)
        comm_of = np.empty(num_nodes, dtype=np.int64)
        for c, members in enumerate(nodes_of):
            comm_of[members] = c
        keep = (u != v) & (comm_of[u] != comm_of[v])
        edges = np.stack([u[keep], v[keep]], axis=1)
        builder.add_edges(edges[:inter_target])

    spine = rng.permutation(num_nodes).astype(np.int64)
    builder.add_edges(np.stack([spine[:-1], spine[1:]], axis=1))
    return builder.build()
