"""LS_EI / LS_RWR — cluster-precompute local search [Sarkar & Moore 2010].

The paper describes these baselines as: *"it extracts the cluster
containing the query node"* with constant query time, after a
preprocessing step that *"takes tens of hours to cluster the graphs"*.
We reproduce that architecture:

* **offline** (:class:`ClusterIndex`): partition the node set into
  balanced clusters by seeded multi-source BFS (a standard practical
  stand-in for the paper's unnamed clustering), and store, per cluster,
  its induced subgraph *plus a one-hop fringe* so that walks crossing the
  cluster border once are still represented;
* **online** (:meth:`ClusterIndex.top_k`): restrict the measure's
  recursion to the query's (fringed) cluster subgraph and rank.  Work is
  bounded by the cluster size — constant in the graph size — but mass
  leaving the fringe is lost, so results are approximate.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.core.result import SearchStats, TopKResult
from repro.errors import SearchError
from repro.graph.memory import CSRGraph
from repro.measures.base import Measure
from repro.measures.exact import DEFAULT_TAU, power_iteration


class ClusterIndex:
    """Precomputed clustering of a graph for constant-time local queries."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        target_cluster_size: int = 2_000,
        include_fringe: bool = True,
        seed: int | None = None,
    ):
        if target_cluster_size < 2:
            raise SearchError("target_cluster_size must be >= 2")
        self.graph = graph
        self.target_cluster_size = target_cluster_size
        self.include_fringe = include_fringe
        started = time.perf_counter()
        self._membership = self._partition(seed)
        self._members: dict[int, np.ndarray] = {}
        for cluster in np.unique(self._membership):
            self._members[int(cluster)] = np.flatnonzero(
                self._membership == cluster
            ).astype(np.int64)
        self.preprocess_seconds = time.perf_counter() - started

    def cluster_of(self, node: int) -> int:
        self.graph.validate_node(node)
        return int(self._membership[node])

    # ------------------------------------------------------------------

    def top_k(
        self,
        measure: Measure,
        query: int,
        k: int,
        *,
        tau: float = DEFAULT_TAU,
        max_iterations: int = 10_000,
    ) -> TopKResult:
        """Approximate top-k restricted to the query's cluster."""
        if k < 1:
            raise SearchError("k must be >= 1")
        started = time.perf_counter()
        nodes = self._members[self.cluster_of(query)]
        if self.include_fringe:
            nodes = self._with_fringe(nodes)
        sub, mapping = self._induced_subgraph(nodes)
        q_local = int(np.searchsorted(mapping, query))

        r, _ = power_iteration(
            measure, sub, q_local, tau=tau, max_iterations=max_iterations
        )
        top_local = measure.top_k_from_vector(r, q_local, k)
        stats = SearchStats(
            visited_nodes=len(nodes),
            wall_time_seconds=time.perf_counter() - started,
        )
        return TopKResult(
            query=query,
            k=k,
            measure_name=measure.name,
            nodes=mapping[top_local],
            values=r[top_local],
            lower=r[top_local],
            upper=r[top_local],
            exact=False,
            stats=stats,
            exhausted_component=len(top_local) < k,
        )

    # ------------------------------------------------------------------

    def _partition(self, seed: int | None) -> np.ndarray:
        """Balanced multi-source BFS partitioning."""
        graph = self.graph
        n = graph.num_nodes
        membership = np.full(n, -1, dtype=np.int64)
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        next_cluster = 0
        for start in order:
            if membership[start] >= 0:
                continue
            cluster = next_cluster
            next_cluster += 1
            membership[start] = cluster
            size = 1
            queue: deque[int] = deque([int(start)])
            while queue and size < self.target_cluster_size:
                u = queue.popleft()
                ids, _ = graph.neighbors(u)
                for v in ids:
                    v = int(v)
                    if membership[v] < 0:
                        membership[v] = cluster
                        size += 1
                        queue.append(v)
                        if size >= self.target_cluster_size:
                            break
        return membership

    def _with_fringe(self, nodes: np.ndarray) -> np.ndarray:
        member = set(int(v) for v in nodes)
        fringe: set[int] = set()
        for u in nodes:
            ids, _ = self.graph.neighbors(int(u))
            for v in ids:
                v = int(v)
                if v not in member:
                    fringe.add(v)
        if not fringe:
            return nodes
        return np.array(sorted(member | fringe), dtype=np.int64)

    def _induced_subgraph(
        self, nodes: np.ndarray
    ) -> tuple[CSRGraph, np.ndarray]:
        """Induced subgraph with original degrees preserved as weights.

        The subgraph keeps each retained edge's original weight; removed
        edges simply vanish (their mass is the approximation error).
        """
        mapping = np.sort(nodes)
        adj = self.graph.to_scipy()
        sub = adj[mapping][:, mapping].tocsr()
        sub.setdiag(0)
        sub.eliminate_zeros()
        return CSRGraph.from_scipy(sub), mapping
