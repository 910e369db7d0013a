"""The minimal graph-access interface local search is allowed to use.

The whole point of a *local* method (paper Sec. 1, Sec. 6.4) is that it only
ever asks two questions of the graph:

* "who are the neighbors of node ``u`` and what are the edge weights?"
* "what is the weighted degree of node ``u``?"

:class:`GraphAccess` captures exactly that contract.  The in-memory CSR graph
(:class:`repro.graph.memory.CSRGraph`) and the disk-resident store
(:class:`repro.graph.disk.store.DiskGraph`) both implement it, which is how
the paper runs FLoS unchanged on top of Neo4j (Sec. 6.4): FLoS never touches
anything a key-value neighbor query could not answer.

One extra global scalar, :attr:`GraphAccess.max_degree`, is exposed because
the RWR extension (paper Sec. 5.6) needs an upper bound on the maximum
weighted degree of *unvisited* nodes, ``w(S̄)``; the global maximum degree is
a valid and cheap such bound, and the paper assumes it is maintained.
"""

from __future__ import annotations

import abc
from typing import Iterator

import numpy as np

from repro.errors import NodeNotFoundError


class GraphAccess(abc.ABC):
    """Abstract neighbor-query interface over an undirected weighted graph.

    Nodes are integers ``0..num_nodes-1``.  Graphs are simple (no self loops,
    no parallel edges) and undirected: if ``v`` appears in ``neighbors(u)``
    then ``u`` appears in ``neighbors(v)`` with the same weight.
    """

    #: True when reads (``neighbors`` / ``degree``) from multiple threads
    #: are safe without external locking.  Immutable in-memory substrates
    #: set this; stateful readers (page caches, mutable overlays) leave it
    #: False.  No search branches on it: callers that share a session
    #: across their own threads should check it, and
    #: :class:`repro.serve.ShardedServer` reports it when it refuses to
    #: publish a graph.
    supports_concurrent_reads: bool = False

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""

    @property
    @abc.abstractmethod
    def num_edges(self) -> int:
        """Number of undirected edges in the graph."""

    @abc.abstractmethod
    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(node_ids, weights)`` arrays for the neighbors of ``u``.

        The returned arrays are read-only views or fresh copies; callers must
        not mutate them.  Order is unspecified but stable per node.
        """

    @abc.abstractmethod
    def degree(self, u: int) -> float:
        """Weighted degree ``w_u = sum_j w_uj`` of node ``u``."""

    @property
    @abc.abstractmethod
    def max_degree(self) -> float:
        """Maximum weighted degree over all nodes (global scalar)."""

    # ------------------------------------------------------------------
    # Conveniences shared by all implementations.
    # ------------------------------------------------------------------

    def out_degree(self, u: int) -> int:
        """Number of neighbors of ``u`` (unweighted degree)."""
        ids, _ = self.neighbors(u)
        return int(ids.shape[0])

    def transition_probabilities(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(node_ids, probs)`` with ``probs[j] = w_uj / w_u``.

        This is the random-walk transition distribution out of ``u``
        (paper Table 1, ``p_{i,j} = w_ij / w_i``).
        """
        ids, weights = self.neighbors(u)
        total = weights.sum()
        if total <= 0.0:
            return ids, np.zeros_like(weights, dtype=np.float64)
        return ids, weights / total

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        """Weighted degrees of several nodes (vectorised where possible)."""
        return np.array([self.degree(int(u)) for u in nodes], dtype=np.float64)

    def transition_probabilities_many(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Transition distributions of several nodes, concatenated.

        Returns ``(ids, probs, counts)`` where ``counts[i]`` is the
        out-degree of ``nodes[i]`` and the neighborhoods are laid out
        back to back in ``ids``/``probs``.  The generic implementation
        loops; in-memory substrates override with one gather.
        """
        parts_ids: list[np.ndarray] = []
        parts_probs: list[np.ndarray] = []
        counts = np.empty(len(nodes), dtype=np.int64)
        for i, u in enumerate(nodes):
            ids, probs = self.transition_probabilities(int(u))
            parts_ids.append(ids)
            parts_probs.append(probs)
            counts[i] = len(ids)
        if not parts_ids:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                counts,
            )
        return np.concatenate(parts_ids), np.concatenate(parts_probs), counts

    def iter_nodes(self) -> Iterator[int]:
        """Iterate over all node ids."""
        return iter(range(self.num_nodes))

    def validate_node(self, u: int) -> None:
        """Raise :class:`~repro.errors.NodeNotFoundError` for bad ids."""
        if not 0 <= u < self.num_nodes:
            raise NodeNotFoundError(u, self.num_nodes)

    def validate_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """Batched :meth:`validate_node`; returns ``nodes`` as int64.

        One range check per batch: a negative id wraps to a huge
        unsigned value, so a single ``max`` covers both ends.  The error
        names the first bad id in batch order.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        n = self.num_nodes
        if nodes.size and nodes.view(np.uint64).max() >= n:
            bad = nodes[(nodes < 0) | (nodes >= n)]
            raise NodeNotFoundError(int(bad.flat[0]), n)
        return nodes

    @property
    def density(self) -> float:
        """Average number of edge endpoints per node, ``2|E| / |V|``.

        Matches the "Density" rows of the paper's Table 6.
        """
        if self.num_nodes == 0:
            return 0.0
        return 2.0 * self.num_edges / self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges})"
        )
