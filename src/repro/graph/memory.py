"""In-memory CSR (compressed sparse row) graph.

This is the workhorse substrate for the in-memory experiments (paper
Secs. 6.2–6.3).  Adjacency is stored as three flat numpy arrays —
``indptr``, ``indices``, ``weights`` — exactly like a ``scipy.sparse``
CSR matrix, so neighbor queries are O(1) slices and the whole structure
converts to a scipy matrix for the global baselines without copying
edge data twice.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph.base import GraphAccess
from repro.nputil import concatenated_ranges


def check_weights(weights: np.ndarray) -> None:
    """Raise :class:`GraphError` unless every edge weight is positive and
    finite (``min``/``max`` propagate NaN, so NaN fails too)."""
    if weights.size and not (weights.min() > 0 and weights.max() < np.inf):
        raise GraphError("edge weights must be positive and finite")


class CSRGraph(GraphAccess):
    """Undirected, edge-weighted graph in CSR layout.

    Construct through :class:`repro.graph.builder.GraphBuilder`,
    :meth:`from_edges`, or :meth:`from_scipy`.  Instances are immutable.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        _validated: bool = False,
        _degrees: np.ndarray | None = None,
        _max_degree: float | None = None,
    ):
        self._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self._indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._weights = np.ascontiguousarray(weights, dtype=np.float64)
        if not _validated:
            self._validate()
        if _degrees is not None:
            # Trusted precomputed degrees (shared-memory / mmap attach
            # via :meth:`from_arrays`): skip the O(m) reduction, which
            # would page the whole weights region into memory.
            self._degrees = np.ascontiguousarray(_degrees, dtype=np.float64)
        else:
            # Weighted degrees are used on every neighbor expansion;
            # precompute.
            self._degrees = np.add.reduceat(
                np.append(self._weights, 0.0), self._indptr[:-1]
            )
            # reduceat yields garbage for empty rows; fix them up to 0.
            empty = self._indptr[:-1] == self._indptr[1:]
            if empty.any():
                self._degrees[empty] = 0.0
        if _max_degree is not None:
            self._max_degree = float(_max_degree)
        else:
            self._max_degree = (
                float(self._degrees.max()) if len(self._degrees) else 0.0
            )
        for arr in (self._indptr, self._indices, self._weights, self._degrees):
            if arr.flags.writeable:
                arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> "CSRGraph":
        """Build from an iterable of undirected ``(u, v)`` pairs.

        Duplicate edges, in either orientation, are collapsed by summing
        their weights in input order; self loops are rejected, and so
        are weights that are not positive and finite.  ``weights``
        defaults to 1.0 per edge.
        """
        from repro.graph.builder import assemble_csr

        edge_arr = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        )
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise GraphError("edges must be an iterable of (u, v) pairs")
        if weights is None:
            w = np.ones(edge_arr.shape[0], dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (edge_arr.shape[0],):
                raise GraphError("weights length must match number of edges")
        if edge_arr.size and edge_arr.view(np.uint64).max() >= num_nodes:
            raise GraphError("edge endpoint out of range")
        a, b = edge_arr[:, 0], edge_arr[:, 1]
        if (a == b).any():
            raise GraphError("self loops are not allowed")
        check_weights(w)
        return assemble_csr(num_nodes, np.minimum(a, b), np.maximum(a, b), w)

    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        degrees: np.ndarray | None = None,
        max_degree: float | None = None,
        validate: bool = True,
    ) -> "CSRGraph":
        """Build directly from CSR arrays, sharing their memory.

        Arrays that already have the canonical dtype and layout
        (``indptr``/``indices`` int64, ``weights`` float64, C
        contiguous) are **not copied** — the graph holds views.  This is
        the attach path of the zero-copy serving tier
        (:mod:`repro.serve.shared`): worker processes map one published
        segment (``multiprocessing.shared_memory``) or one ``.flos``
        file (mmap) and wrap it without duplicating edge data.

        ``degrees`` / ``max_degree``, when given, are trusted as the
        precomputed weighted degrees — skipping the O(m) reduction that
        would otherwise page every weight into memory.  ``validate=False``
        additionally skips the structural O(m) scan; only pass arrays
        that a validated :class:`CSRGraph` (or the disk writer, which
        validates on write) produced.
        """
        return cls(
            indptr,
            indices,
            weights,
            _validated=not validate,
            _degrees=degrees,
            _max_degree=max_degree,
        )

    @classmethod
    def from_scipy(cls, mat: sp.spmatrix) -> "CSRGraph":
        """Build from a symmetric scipy sparse adjacency matrix."""
        csr = sp.csr_matrix(mat, dtype=np.float64)
        csr.sort_indices()
        graph = cls(
            csr.indptr.astype(np.int64),
            csr.indices.astype(np.int64),
            csr.data,
            _validated=True,
        )
        graph._validate()
        return graph

    # ------------------------------------------------------------------
    # GraphAccess interface
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self._indices) // 2

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        self.validate_node(u)
        lo, hi = self._indptr[u], self._indptr[u + 1]
        return self._indices[lo:hi], self._weights[lo:hi]

    def degree(self, u: int) -> float:
        self.validate_node(u)
        return float(self._degrees[u])

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        return self._degrees[self.validate_nodes(nodes)]

    def neighbors_many(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`neighbors` — one CSR gather."""
        nodes = self.validate_nodes(nodes)
        starts = self._indptr[nodes]
        counts = self._indptr[nodes + 1] - starts
        take = concatenated_ranges(starts, counts)
        return self._indices[take], self._weights[take], counts

    def transition_probabilities_many(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`transition_probabilities`: ``(ids, probs, counts)``.

        The search never calls this (``LocalView`` normalises the rows
        of :meth:`neighbors_many` itself); it is kept because the
        ``perfbench`` harness wraps it by name.
        """
        ids, weights, counts = self.neighbors_many(nodes)
        degrees = self._degrees[np.asarray(nodes, dtype=np.int64)]
        inv = np.zeros(len(nodes), dtype=np.float64)
        nz = degrees > 0
        inv[nz] = 1.0 / degrees[nz]
        return ids, weights * np.repeat(inv, counts), counts

    @property
    def max_degree(self) -> float:
        return self._max_degree

    # ------------------------------------------------------------------
    # Extras used by global baselines and generators
    # ------------------------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        """Vector of weighted degrees (read-only)."""
        return self._degrees

    def to_scipy(self) -> sp.csr_matrix:
        """Adjacency matrix as ``scipy.sparse.csr_matrix`` (shares data)."""
        n = self.num_nodes
        return sp.csr_matrix(
            (self._weights, self._indices, self._indptr), shape=(n, n)
        )

    def transition_matrix(self) -> sp.csr_matrix:
        """Row-stochastic transition matrix ``P`` with ``P[i,j] = w_ij/w_i``.

        Rows of isolated nodes are all-zero.
        """
        adj = self.to_scipy().tocsr(copy=True)
        inv = np.zeros(self.num_nodes, dtype=np.float64)
        nz = self._degrees > 0
        inv[nz] = 1.0 / self._degrees[nz]
        adj.data *= np.repeat(inv, np.diff(self._indptr))
        return adj

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(edges, weights)`` with each undirected edge once (u < v)."""
        n = self.num_nodes
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        mask = rows < self._indices
        edges = np.stack([rows[mask], self._indices[mask]], axis=1)
        return edges, self._weights[mask].copy()

    def subgraph_nodes_within_hops(self, source: int, hops: int) -> np.ndarray:
        """Node ids within ``hops`` BFS hops of ``source`` (including it)."""
        self.validate_node(source)
        seen = {source}
        frontier = [source]
        for _ in range(hops):
            nxt: list[int] = []
            for u in frontier:
                ids, _ = self.neighbors(u)
                for v in ids:
                    v = int(v)
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
            if not frontier:
                break
        return np.array(sorted(seen), dtype=np.int64)

    def is_connected(self) -> bool:
        """True when the graph has a single connected component."""
        if self.num_nodes == 0:
            return True
        n_comp, _ = sp.csgraph.connected_components(self.to_scipy(), directed=False)
        return n_comp == 1

    # ------------------------------------------------------------------

    def _validate(self) -> None:
        n = len(self._indptr) - 1
        if n < 0:
            raise GraphError("indptr must have at least one entry")
        if self._indptr[0] != 0 or self._indptr[-1] != len(self._indices):
            raise GraphError("indptr does not cover the indices array")
        if np.any(np.diff(self._indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if len(self._indices) != len(self._weights):
            raise GraphError("indices and weights must have equal length")
        if len(self._indices) % 2 != 0:
            raise GraphError(
                "undirected graph must store each edge in both directions"
            )
        if len(self._indices) and (
            self._indices.min() < 0 or self._indices.max() >= n
        ):
            raise GraphError("neighbor index out of range")
        check_weights(self._weights)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        if (rows == self._indices).any():
            raise GraphError("self loops are not allowed")
