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
every other local method in the library — runs on it unchanged.

Reads cost what they cost on the base CSR.  A mutated node's merged
row (ids, weights, transition probabilities) is built once, on its
first read after the mutation, and served from a cache until the node
changes again.  The batch reads local search uses
(:meth:`~DynamicGraph.transition_probabilities_many`,
:meth:`~DynamicGraph.degrees_of`) are one base-CSR gather for the
whole batch plus a splice of the few mutated rows in it.  When the
delta grows large, :meth:`~DynamicGraph.compact` folds it into a fresh
CSR graph.

Global baselines, by contrast, would have to rebuild their matrices
(GI/Castanet) or redo their factorisation/clustering/embedding
(K-dash / LS / GE) after every change — the asymmetry the paper points
out.  ``examples``/``tests`` use this class to demonstrate it.
"""

from __future__ import annotations

import math

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
        # Merged ``(ids, weights, probs)`` row of every mutated node,
        # built on its first read after each mutation of the node (a
        # bulk load rebuilds nothing); ``_touched`` marks mutated nodes,
        # so batch reads take every other row from the base.
        self._rows: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._touched = np.zeros(base.num_nodes, dtype=bool)
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
        if not 0.0 < weight < math.inf:  # NaN fails both comparisons
            raise GraphError("edge weights must be positive and finite")
        old = self._current_weight(u, v)
        self._delta.setdefault(u, {})[v] = weight
        self._delta.setdefault(v, {})[u] = weight
        change = weight - (old or 0.0)
        self._degree_delta[u] += change
        self._degree_delta[v] += change
        if old is None:
            self._edge_count_delta += 1
        self._mutated(u, v)
        self.update_log.record(u, v, "add")

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge (u, v); raises if it does not exist."""
        self._check_pair(u, v)
        old = self._current_weight(u, v)
        if old is None:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        if self._base_weight(u, v) is not None:
            self._delta.setdefault(u, {})[v] = None  # tombstone
            self._delta.setdefault(v, {})[u] = None
        else:
            del self._delta[u][v]
            del self._delta[v][u]
        self._degree_delta[u] -= old
        self._degree_delta[v] -= old
        self._edge_count_delta -= 1
        self._mutated(u, v)
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
        nodes = np.arange(self.num_nodes, dtype=np.int64)
        ids, weights, counts = self._splice(
            nodes, *self._base.neighbors_many(nodes), column=1
        )
        owners = np.repeat(nodes, counts)
        upper = ids > owners
        builder = GraphBuilder(self.num_nodes, merge="first")
        builder.add_edges(
            np.stack([owners[upper], ids[upper]], axis=1), weights[upper]
        )
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

        Base adjacency order with overridden weights in place and
        tombstones dropped, then delta-only edges in insertion order
        (pinned against a scalar reference merge by the property tests).
        """
        self.validate_node(u)
        if not self._touched[u]:
            return self._base.neighbors(u)
        ids, weights, _probs = self._row(u)
        return ids, weights

    def degree(self, u: int) -> float:
        self.validate_node(u)
        return self._base.degree(u) + float(self._degree_delta[u])

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        nodes = self.validate_nodes(nodes)
        return self._base.degrees[nodes] + self._degree_delta[nodes]

    def transition_probabilities_many(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched transition rows: one base-CSR gather for the batch,
        with the merged rows of its mutated nodes spliced in."""
        gathered = self._base.transition_probabilities_many(nodes)  # validates
        return self._splice(
            np.asarray(nodes, dtype=np.int64), *gathered, column=2
        )

    @property
    def max_degree(self) -> float:
        if self._max_degree_dirty:
            degrees = self._base.degrees + self._degree_delta
            self._max_degree_cache = float(degrees.max()) if len(degrees) else 0.0
            self._max_degree_dirty = False
        return self._max_degree_cache

    # ------------------------------------------------------------------

    def _splice(
        self,
        nodes: np.ndarray,
        ids: np.ndarray,
        values: np.ndarray,
        counts: np.ndarray,
        *,
        column: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Replace the base rows of mutated ``nodes`` in a batch read.

        ``(ids, values, counts)`` is a base gather of ``nodes`` laid out
        back to back; ``column`` picks the merged-row array that
        replaces ``values`` (1 = weights, 2 = probabilities).
        """
        hit = np.flatnonzero(self._touched[nodes])
        if not len(hit):
            return ids, values, counts
        ends = np.cumsum(counts).tolist()
        counts = counts.copy()
        id_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        prev = 0
        for i, u in zip(hit.tolist(), nodes[hit].tolist()):
            row = self._row(u)
            start = ends[i] - int(counts[i])
            id_parts += (ids[prev:start], row[0])
            value_parts += (values[prev:start], row[column])
            counts[i] = len(row[0])
            prev = ends[i]
        id_parts.append(ids[prev:])
        value_parts.append(values[prev:])
        return np.concatenate(id_parts), np.concatenate(value_parts), counts

    def _mutated(self, u: int, v: int) -> None:
        """Drop the merged rows of an updated edge's endpoints."""
        self._rows.pop(u, None)
        self._rows.pop(v, None)
        self._touched[[u, v]] = True
        self._max_degree_dirty = True

    def _row(self, u: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``u``'s merged ``(ids, weights, probs)``, read-only.

        Base entries are matched against the sorted delta ids with one
        ``searchsorted``; delta-only insertions are appended in
        insertion order.  Probabilities are normalised by the overlay
        degree the way the base CSR normalises its own rows.
        """
        row = self._rows.get(u)
        if row is not None:
            return row
        ids, weights = self._base.neighbors(u)
        delta = self._delta.get(u)
        if delta:
            d_ids = np.fromiter(delta.keys(), dtype=np.int64, count=len(delta))
            d_w = np.fromiter(
                (np.nan if w is None else w for w in delta.values()),
                dtype=np.float64,
                count=len(delta),
            )
            order = np.argsort(d_ids, kind="stable")
            sorted_ids = d_ids[order]
            pos = np.minimum(
                np.searchsorted(sorted_ids, ids), len(sorted_ids) - 1
            )
            in_delta = sorted_ids[pos] == ids
            override = d_w[order][pos]
            keep = ~(in_delta & np.isnan(override))  # drop tombstones
            extra = ~np.isnan(d_w) & ~np.isin(d_ids, ids, assume_unique=True)
            ids = np.concatenate([ids[keep], d_ids[extra]])
            weights = np.concatenate(
                [np.where(in_delta, override, weights)[keep], d_w[extra]]
            )
        degree = self._base.degree(u) + float(self._degree_delta[u])
        if degree > 0:
            probs = weights * (1.0 / degree)
        else:
            probs = np.zeros(len(weights))
        for arr in (ids, weights, probs):
            arr.setflags(write=False)
        row = self._rows[u] = (ids, weights, probs)
        return row

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
