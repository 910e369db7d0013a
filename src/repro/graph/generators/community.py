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
from repro.nputil import concatenated_ranges


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

    # Communities are equally sized, the first num_nodes % C one node
    # larger; community c is the slice order[offsets[c]:offsets[c + 1]].
    sizes = np.full(num_communities, num_nodes // num_communities)
    sizes[: num_nodes % num_communities] += 1
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    order = rng.permutation(num_nodes).astype(np.int64)
    targets = np.minimum(
        np.rint(avg_internal_degree * sizes / 2.0).astype(np.int64),
        sizes * (sizes - 1) // 2,
    )
    active = np.flatnonzero(targets > 0)

    # The per-community draws, in community order (each community's u
    # half, then its v half), are the RNG stream that defines the graph;
    # everything else is one vectorised pass.  Equal-size communities
    # draw from one range, so each run of them is one ``(run, 2, half)``
    # call: bounded draws below 2**32 take the same 32-bit words from
    # the stream in one call as in many.
    draws = []
    sizes_active = sizes[active]
    starts = np.flatnonzero(np.diff(sizes_active, prepend=-1)).tolist()
    for start, stop in zip(starts, starts[1:] + [len(active)]):
        size = int(sizes_active[start])
        half = 2 * int(targets[active[start]])
        draws.append(
            rng.integers(0, size, size=(stop - start, 2, half), dtype=np.int64)
        )
    pieces_u, pieces_v = [], []
    if draws:
        # u holds every community's u half, in community order; v too.
        u = np.concatenate([d[:, 0] for d in draws], axis=None)
        v = np.concatenate([d[:, 1] for d in draws], axis=None)
        del draws
        # Keep the first ``target`` pairs with u != v of each community.
        drawn = 2 * targets[active]
        kept = np.flatnonzero(u != v)
        first = np.searchsorted(kept, np.cumsum(drawn) - drawn)
        take = np.minimum(
            targets[active], np.diff(np.append(first, len(kept)))
        )
        picked = kept[concatenated_ranges(first, take)]
        base = np.repeat(offsets[active], take)
        pieces_u.append(order[base + u[picked]])
        pieces_v.append(order[base + v[picked]])

    inter_target = int(round(avg_external_degree * num_nodes / 2.0))
    if inter_target > 0 and num_communities > 1:
        u = rng.integers(0, num_nodes, size=inter_target * 2, dtype=np.int64)
        v = rng.integers(0, num_nodes, size=inter_target * 2, dtype=np.int64)
        comm_of = np.empty(num_nodes, dtype=np.int64)
        comm_of[order] = np.repeat(np.arange(num_communities), sizes)
        picked = np.flatnonzero((u != v) & (comm_of[u] != comm_of[v]))
        picked = picked[:inter_target]
        pieces_u.append(u[picked])
        pieces_v.append(v[picked])

    # Spanning path in random order guarantees connectivity.
    spine = rng.permutation(num_nodes).astype(np.int64)
    pieces_u.append(spine[:-1])
    pieces_v.append(spine[1:])
    # Endpoint rows of a (2, m) array: each column of the (m, 2)
    # transpose handed to the builder is contiguous.
    edges = np.empty((2, sum(map(len, pieces_u))), dtype=np.int64)
    np.concatenate(pieces_u, out=edges[0])
    np.concatenate(pieces_v, out=edges[1])
    del pieces_u, pieces_v
    builder = GraphBuilder(num_nodes, merge="first")
    builder.add_edges(edges.T)
    del edges  # the builder holds its own copy; keep build's peak low
    return builder.build()
