"""DNE — dynamic neighborhood expansion [Zhang et al., CIKM 2012].

The PHP heuristic the paper compares against (Table 5): best-first
expansion from the query until a *fixed budget* of nodes is visited
(4,000 in the paper's experiments), then PHP computed on the visited
subgraph and the top-k of that subgraph returned.  No bounds, no
exactness guarantee — nodes whose best paths leave the visited subgraph
are under-scored, and the true top-k may not even be visited.  Its
running time is near-constant in both ``k`` and graph size, which is the
flat line seen in Figures 7 and 11.
"""

from __future__ import annotations

import heapq
import time

import numpy as np
import scipy.sparse as sp

from repro.core.iterative import jacobi_solve
from repro.core.result import SearchStats, TopKResult
from repro.errors import SearchError
from repro.graph.base import GraphAccess
from repro.measures.exact import DEFAULT_TAU
from repro.measures.php import PHP

#: Visited-node budget used in the paper's experiments (Sec. 6.1).
DEFAULT_BUDGET = 4_000


def dne_top_k(
    graph: GraphAccess,
    measure: PHP,
    query: int,
    k: int,
    *,
    budget: int = DEFAULT_BUDGET,
    tau: float = DEFAULT_TAU,
    max_iterations: int = 10_000,
) -> TopKResult:
    """Approximate PHP top-k by budgeted best-first expansion (DNE)."""
    if k < 1:
        raise SearchError("k must be >= 1")
    if budget < 1:
        raise SearchError("budget must be >= 1")
    graph.validate_node(query)
    started = time.perf_counter()

    # Best-first expansion ranked by a one-step PHP estimate: accumulate
    # decayed walk mass reaching each frontier node, expand the largest.
    local_of: dict[int, int] = {query: 0}
    order: list[int] = [query]
    adjacency: list[tuple[np.ndarray, np.ndarray]] = []
    score: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    neighbor_queries = 0

    def fetch(u: int) -> None:
        nonlocal neighbor_queries
        ids, probs = graph.transition_probabilities(u)
        neighbor_queries += 1
        adjacency.append((ids, probs))

    fetch(query)
    base = 1.0
    ids, probs = adjacency[0]
    for v, p in zip(ids, probs):
        v = int(v)
        score[v] = score.get(v, 0.0) + measure.c * base * float(p)
        heapq.heappush(heap, (-score[v], v))

    while heap and len(order) < budget:
        neg, u = heapq.heappop(heap)
        if u in local_of or -neg < score.get(u, 0.0):
            continue  # stale entry
        local_of[u] = len(order)
        order.append(u)
        fetch(u)
        ids, probs = adjacency[-1]
        for v, p in zip(ids, probs):
            v = int(v)
            if v in local_of:
                continue
            score[v] = score.get(v, 0.0) + measure.c * score[u] * float(p)
            heapq.heappush(heap, (-score[v], v))

    values = _php_on_subgraph(
        graph, measure, order, local_of, adjacency, tau, max_iterations
    )
    candidates = np.arange(1, len(order))
    top_local = candidates[
        np.lexsort((candidates, -values[candidates]))
    ][:k]
    nodes = np.array([order[i] for i in top_local], dtype=np.int64)
    stats = SearchStats(
        visited_nodes=len(order),
        expansions=len(order),
        neighbor_queries=neighbor_queries,
        wall_time_seconds=time.perf_counter() - started,
    )
    return TopKResult(
        query=query,
        k=k,
        measure_name=measure.name,
        nodes=nodes,
        values=values[top_local],
        lower=values[top_local],
        upper=values[top_local],
        exact=False,
        stats=stats,
        exhausted_component=len(nodes) < k,
    )


def _php_on_subgraph(
    graph: GraphAccess,
    measure: PHP,
    order: list[int],
    local_of: dict[int, int],
    adjacency: list[tuple[np.ndarray, np.ndarray]],
    tau: float,
    max_iterations: int,
) -> np.ndarray:
    """PHP fixed point restricted to the visited subgraph (query row zero)."""
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for local, (ids, probs) in enumerate(adjacency):
        if local == 0:
            continue  # query row of T is zero
        for v, p in zip(ids, probs):
            dest = local_of.get(int(v))
            if dest is not None:
                rows.append(local)
                cols.append(dest)
                vals.append(float(p))
    m = len(order)
    t_s = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    a = (measure.c * t_s).tocsr()
    e = np.zeros(m)
    e[0] = 1.0
    r, _ = jacobi_solve(
        a, e, np.zeros(m), tau=tau, max_iterations=max_iterations
    )
    return r
