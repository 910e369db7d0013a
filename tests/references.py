"""Reference implementations the library's fast paths are tested against.

Each function and class here is the plain, loop-based version of
something the library does in batched numpy, or an oracle check the
tests share.  They are kept only for the equivalence tests and are never
imported by ``src/``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.localgraph import LocalView
from repro.graph.builder import GraphBuilder
from repro.graph.dynamic import DynamicGraph
from repro.graph.memory import CSRGraph


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


class ScalarLocalView(LocalView):
    """``LocalView`` restored one node at a time, with per-node graph reads.

    The pre-kernel restoration loop: each visited node reads its own row
    and degree (``transition_probabilities`` / ``degree``), resolves
    membership per neighbor, and retracts its incoming mass from the
    dummy columns one edge at a time.  It must end in the same state as
    the library's batched pass, up to float summation order.
    """

    def _visit_batch(self, nodes: np.ndarray) -> None:
        for node in nodes:
            self._visit(int(node))

    def expand_batch(self, locals_: np.ndarray) -> list[int]:
        newly: list[int] = []
        for local in np.asarray(locals_, dtype=np.int64):
            ids, _ = self.adjacency(int(local))
            for v in ids:
                v = int(v)
                if self._lut[v] < 0:
                    self._visit(v)
                    newly.append(v)
        return newly

    def _visit(self, node: int) -> None:
        local = self.size
        self._lut[node] = local
        self._gids.append_scalar(node)

        ids, probs = self.graph.transition_probabilities(node)
        self.neighbor_queries += 1
        self._adj_ids.append(ids)
        self._adj_probs.append(probs)
        self._adj_offsets.append_scalar(
            self._adj_offsets.view()[-1] + len(ids)
        )
        w_u = self.graph.degree(node)
        self._degrees.append_scalar(w_u)

        visited_locals = self._lut[ids].astype(np.int64)
        inside = visited_locals >= 0

        # Every edge into S becomes one entry of the new node's store row
        # (all of S was visited earlier).
        self._indptr.append_scalar(self._indptr.view()[-1] + int(inside.sum()))
        self._indices.append(visited_locals[inside])
        self._weights.append(probs[inside] * w_u)

        # Incoming transitions from already-visited neighbors.
        degrees = self._degrees.raw
        dummy = self._dummy_mass.raw
        counts = self._unvisited_count.raw
        loop_sum = self._loop_sum.raw
        tight_sum = self._tight_sum.raw
        track = self.track_tightening
        for idx in np.flatnonzero(inside):
            v_local = int(visited_locals[idx])
            p_uv = float(probs[idx])
            w_v = float(degrees[v_local])
            p_vu = p_uv * w_u / w_v if w_v > 0 else 0.0
            dummy[v_local] = max(dummy[v_local] - p_vu, 0.0)
            counts[v_local] -= 1
            if track:
                # u left v's unvisited neighborhood: retract its
                # contribution to v's star-to-mesh sums.
                loop_sum[v_local] -= p_vu * p_uv
                tight_sum[v_local] -= p_vu * (1.0 - p_uv)

        # The new node's own dummy mass, unvisited count, and sums.
        outside = ~inside
        outside_mass = float(probs[outside].sum())
        outside_count = int(outside.sum())
        if node == self.query:
            outside_mass = 0.0  # query row of T is zero: no dummy column
        self._dummy_mass.append_scalar(outside_mass)
        self._unvisited_count.append_scalar(outside_count)

        if track and outside_count and node != self.query:
            out_ids = ids[outside]
            out_probs = probs[outside]
            w_j = self._degrees_of_outside(out_ids)
            with np.errstate(divide="ignore", invalid="ignore"):
                p_ju = np.where(w_j > 0, out_probs * (w_u / w_j), 0.0)
            self._loop_sum.append_scalar(float((out_probs * p_ju).sum()))
            self._tight_sum.append_scalar(
                float((out_probs * (1.0 - p_ju)).sum())
            )
        else:
            self._loop_sum.append_scalar(0.0)
            self._tight_sum.append_scalar(0.0)


def scipy_edges_to_csr(
    num_nodes: int, edges: np.ndarray, weights: np.ndarray
) -> CSRGraph:
    """The scipy COO path ``CSRGraph.from_edges`` used to take.

    Both orientations of every edge go into one COO matrix; scipy's
    ``tocsr`` plus ``sum_duplicates`` merge duplicates (summed in an
    order scipy picks) and sort each row.  ``edges`` must hold no self
    loops.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    vals = np.concatenate([weights, weights])
    mat = sp.coo_matrix(
        (vals, (rows, cols)), shape=(num_nodes, num_nodes)
    ).tocsr()
    mat.sum_duplicates()
    return CSRGraph.from_scipy(mat)


def argsort_build(
    num_nodes: int, edges: np.ndarray, weights: np.ndarray, merge: str
) -> CSRGraph:
    """The comparison-sort ``GraphBuilder`` build: drop self loops,
    orient ``u < v``, stable ``argsort`` on ``u * n + v``, merge each
    duplicate group in input order, then :func:`scipy_edges_to_csr`."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64)
    keep = edges[:, 0] != edges[:, 1]
    edges, weights = edges[keep], weights[keep]
    u = np.minimum(edges[:, 0], edges[:, 1])
    v = np.maximum(edges[:, 0], edges[:, 1])
    key = u * np.int64(num_nodes) + v
    order = np.argsort(key, kind="stable")
    key, u, v, w = key[order], u[order], v[order], weights[order]
    boundary = np.ones(len(key), dtype=bool)
    boundary[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(boundary)
    if not len(starts):
        merged_w = w
    elif merge == "sum":
        merged_w = np.add.reduceat(w, starts)
    elif merge == "max":
        merged_w = np.maximum.reduceat(w, starts)
    else:  # first
        merged_w = w[starts]
    return scipy_edges_to_csr(
        num_nodes, np.stack([u[starts], v[starts]], axis=1), merged_w
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


def oracle_mismatch(result, oracle, *, atol: float = 1e-8) -> str | None:
    """Why ``result`` disagrees with the cold-start ``oracle`` (or None).

    Exact ties at the rank-k boundary admit more than one correct top-k
    set (the fuzz harness documents the same caveat), so the check is
    tie-aware rather than naively bitwise.  The served top-k *value
    multiset* must match the oracle's up to float tolerance, each shared
    node's certified interval must contain the oracle's value, and any
    node outside the oracle set must tie the rank-k boundary (interval
    overlap with the oracle's k-th entry).
    """
    if len(result.nodes) != len(oracle.nodes):
        return (
            f"returned {len(result.nodes)} nodes, oracle returned "
            f"{len(oracle.nodes)}"
        )
    if len(oracle.nodes) == 0:
        return None
    served_values = np.sort(np.asarray(result.values, dtype=np.float64))
    oracle_values = np.sort(np.asarray(oracle.values, dtype=np.float64))
    if not np.allclose(served_values, oracle_values, rtol=1e-6, atol=atol):
        return "top-k value multiset diverges from the cold oracle"
    truth = {
        int(n): (float(v), float(lo), float(hi))
        for n, v, lo, hi in zip(
            oracle.nodes, oracle.values, oracle.lower, oracle.upper
        )
    }
    boundary_lo = float(oracle.lower[-1])
    boundary_hi = float(oracle.upper[-1])
    for node, value, lo, hi in zip(
        result.nodes, result.values, result.lower, result.upper
    ):
        node = int(node)
        if node in truth:
            t_value, t_lo, t_hi = truth[node]
            if max(lo, t_lo) > min(hi, t_hi) + atol:
                return (
                    f"node {node}: certified [{lo:.6g}, {hi:.6g}] disjoint "
                    f"from oracle's [{t_lo:.6g}, {t_hi:.6g}]"
                )
            if not (lo - atol <= t_value <= hi + atol):
                return (
                    f"oracle value {t_value:.6g} for node {node} outside "
                    f"certified [{lo:.6g}, {hi:.6g}]"
                )
        elif max(lo, boundary_lo) > min(hi, boundary_hi) + atol:
            return (
                f"node {node} absent from the oracle top-k and not a "
                f"rank-k boundary tie"
            )
    return None
