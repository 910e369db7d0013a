"""Updatable graph overlay — FLoS queries on evolving graphs.

The paper motivates local search with exactly this scenario (Sec. 1):
precomputation-based methods must repeat their expensive offline step
"whenever the graph changes", while FLoS needs no preprocessing at all,
so a query issued right after an update is answered against the fresh
topology at no extra cost.

``DynamicGraph`` wraps a frozen base :class:`~repro.graph.memory.CSRGraph`
with an edge delta (insertions, deletions, weight changes) kept in
per-node hash maps.  It implements the full
:class:`~repro.graph.base.GraphAccess` contract, so ``flos_top_k`` — and
every other local method in the library — runs on it unchanged.  Neighbor
queries cost the base CSR slice plus an O(delta_u) merge; when the delta
grows large, :meth:`compact` folds it into a fresh CSR graph.

Global baselines, by contrast, would have to rebuild their matrices
(GI/Castanet) or redo their factorisation/clustering/embedding
(K-dash / LS / GE) after every change — the asymmetry the paper points
out.  ``examples``/``tests`` use this class to demonstrate it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.base import GraphAccess
from repro.graph.builder import GraphBuilder
from repro.graph.memory import CSRGraph
from repro.graph.updates import UpdateLog


class DynamicGraph(GraphAccess):
    """A CSR base graph plus an in-memory edge delta.

    All mutations keep the undirected invariant (both endpoints updated
    together).  Edge semantics:

    * :meth:`add_edge` inserts a new edge or *overwrites* the weight of
      an existing one (base or delta);
    * :meth:`remove_edge` deletes an edge (base edges are masked by a
      tombstone in the delta).

    Every mutation bumps the monotone :attr:`version` counter and
    appends an event to :attr:`update_log` — serving sessions use the
    pair to invalidate only the cached results whose visited ball an
    update actually touched (see ``docs/serving.md``).
    """

    def __init__(self, base: CSRGraph, *, update_log: UpdateLog | None = None):
        self._base = base
        # Per-node delta: {neighbor: weight}; weight None is a tombstone
        # masking a base edge.
        self._delta: dict[int, dict[int, float | None]] = {}
        # Per-node delta arrays (insertion order, NaN = tombstone),
        # rebuilt lazily — the vectorized ``neighbors`` merge reads
        # these instead of iterating the dict on every call.
        self._delta_arrays: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._degree_delta = np.zeros(base.num_nodes, dtype=np.float64)
        self._edge_count_delta = 0
        self._max_degree_dirty = False
        self._max_degree_cache = base.max_degree
        self.update_log = update_log if update_log is not None else UpdateLog()

    @property
    def version(self) -> int:
        """Monotone mutation counter (0 for a freshly wrapped base)."""
        return self.update_log.version

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Insert edge (u, v) or overwrite its weight."""
        self._check_pair(u, v)
        if weight <= 0:
            raise GraphError("edge weights must be positive")
        old = self._current_weight(u, v)
        self._set_delta(u, v, weight)
        self._set_delta(v, u, weight)
        change = weight - (old or 0.0)
        self._degree_delta[u] += change
        self._degree_delta[v] += change
        if old is None:
            self._edge_count_delta += 1
        self._max_degree_dirty = True
        self.update_log.record(u, v, "add")

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge (u, v); raises if it does not exist."""
        self._check_pair(u, v)
        old = self._current_weight(u, v)
        if old is None:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        in_base = self._base_weight(u, v) is not None
        if in_base:
            self._set_delta(u, v, None)  # tombstone
            self._set_delta(v, u, None)
        else:
            self._delta[u].pop(v, None)
            self._delta[v].pop(u, None)
            self._delta_arrays.pop(u, None)
            self._delta_arrays.pop(v, None)
        self._degree_delta[u] -= old
        self._degree_delta[v] -= old
        self._edge_count_delta -= 1
        self._max_degree_dirty = True
        self.update_log.record(u, v, "remove")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        return self._current_weight(u, v) is not None

    def edge_weight(self, u: int, v: int) -> float:
        w = self._current_weight(u, v)
        if w is None:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        return w

    @property
    def num_delta_entries(self) -> int:
        """Number of per-endpoint delta records (compaction heuristic)."""
        return sum(len(d) for d in self._delta.values())

    def compact(self) -> CSRGraph:
        """Fold base + delta into a fresh immutable CSR graph.

        Also performs the update-log handshake: the compacted graph is
        a new object, so every version stamped against this overlay is
        stale — :meth:`UpdateLog.compact` drops the retained events,
        after which ``events_since`` answers ``None`` (cold start) for
        all of them.
        """
        self.update_log.compact()
        builder = GraphBuilder(self.num_nodes, merge="first")
        for u in range(self.num_nodes):
            ids, weights = self.neighbors(u)
            keep = ids > u
            if keep.any():
                edges = np.stack(
                    [np.full(int(keep.sum()), u, dtype=np.int64), ids[keep]],
                    axis=1,
                )
                builder.add_edges(edges, weights[keep])
        return builder.build()

    # ------------------------------------------------------------------
    # GraphAccess interface
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._base.num_nodes

    @property
    def num_edges(self) -> int:
        return self._base.num_edges + self._edge_count_delta

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Merged (base ⊕ delta) adjacency of ``u``.

        This is the hottest read path of every local search on an
        overlay, so the merge is fully vectorized: the per-node delta
        is cached as aligned id/weight arrays (NaN marks a tombstone),
        base entries are matched against the sorted delta ids with one
        ``searchsorted`` gather, and delta-only insertions are appended
        with an ``np.isin`` membership test over the sorted base ids.
        Output order matches the scalar reference
        (:meth:`_neighbors_scalar`, pinned by a hypothesis test): base
        adjacency order with overridden weights in place and tombstones
        dropped, then delta-only edges in insertion order.
        """
        self.validate_node(u)
        base_ids, base_w = self._base.neighbors(u)
        delta = self._delta.get(u)
        if not delta:
            return base_ids, base_w
        d_ids, d_w = self._delta_arrays_of(u)

        # Match base entries against the delta: one sorted-side
        # searchsorted instead of a Python dict probe per neighbor.
        order = np.argsort(d_ids, kind="stable")
        sorted_ids = d_ids[order]
        pos = np.searchsorted(sorted_ids, base_ids)
        pos_clipped = np.minimum(pos, len(sorted_ids) - 1)
        in_delta = sorted_ids[pos_clipped] == base_ids
        override_w = d_w[order][pos_clipped]
        tombstoned = in_delta & np.isnan(override_w)

        keep = ~tombstoned
        merged_w = np.where(in_delta, override_w, base_w)[keep]
        merged_ids = base_ids[keep]

        # Delta-only insertions (not in the sorted base ids), appended
        # in insertion order to mirror the scalar dict iteration.
        extra = ~np.isnan(d_w)
        extra &= ~np.isin(d_ids, base_ids, assume_unique=True)
        if extra.any():
            merged_ids = np.concatenate([merged_ids, d_ids[extra]])
            merged_w = np.concatenate([merged_w, d_w[extra]])
        return merged_ids, merged_w

    def _neighbors_scalar(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Pure-Python reference merge (cross-checked against
        :meth:`neighbors` by the property tests)."""
        self.validate_node(u)
        base_ids, base_w = self._base.neighbors(u)
        delta = self._delta.get(u)
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

    def _delta_arrays_of(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(ids, weights)`` arrays of ``u``'s delta record.

        Insertion order, weight NaN for tombstones; invalidated by
        :meth:`_set_delta` / :meth:`remove_edge` and rebuilt on the
        next read, so a read-heavy workload pays the dict walk once
        per mutated node, not once per neighbor query.
        """
        cached = self._delta_arrays.get(u)
        if cached is not None:
            return cached
        delta = self._delta[u]
        ids = np.fromiter(delta.keys(), dtype=np.int64, count=len(delta))
        weights = np.fromiter(
            (np.nan if w is None else w for w in delta.values()),
            dtype=np.float64,
            count=len(delta),
        )
        self._delta_arrays[u] = (ids, weights)
        return ids, weights

    def degree(self, u: int) -> float:
        self.validate_node(u)
        return self._base.degree(u) + float(self._degree_delta[u])

    @property
    def max_degree(self) -> float:
        if self._max_degree_dirty:
            degrees = self._base.degrees + self._degree_delta
            self._max_degree_cache = float(degrees.max()) if len(degrees) else 0.0
            self._max_degree_dirty = False
        return self._max_degree_cache

    # ------------------------------------------------------------------

    def _check_pair(self, u: int, v: int) -> None:
        self.validate_node(u)
        self.validate_node(v)
        if u == v:
            raise GraphError("self loops are not allowed")

    def _base_weight(self, u: int, v: int) -> float | None:
        ids, weights = self._base.neighbors(u)
        pos = np.flatnonzero(ids == v)
        return float(weights[pos[0]]) if len(pos) else None

    def _current_weight(self, u: int, v: int) -> float | None:
        delta = self._delta.get(u)
        if delta is not None and v in delta:
            return delta[v]
        return self._base_weight(u, v)

    def _set_delta(self, u: int, v: int, weight: float | None) -> None:
        self._delta.setdefault(u, {})[v] = weight
        self._delta_arrays.pop(u, None)
