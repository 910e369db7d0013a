"""FLoS — Fast and unified Local Search for random-walk based k-NN query.

Reproduction of Wu, Jin & Zhang, *"Fast and Unified Local Search for
Random Walk Based K-Nearest-Neighbor Query in Large Graphs"*, SIGMOD 2014.

Quickstart::

    from repro import CSRGraph, PHP, flos_top_k
    from repro.graph.generators import erdos_renyi

    graph = erdos_renyi(10_000, 50_000, seed=7)
    result = flos_top_k(graph, PHP(c=0.5), query=0, k=10)
    print(result.nodes, result.values)

The result is the provably exact top-k under the chosen measure, found by
visiting only a small neighborhood of the query (``result.stats``).

For serving many queries against one graph, hold a
:class:`~repro.core.session.QuerySession` — it reuses per-graph state,
caches recent results, runs batches in parallel, and reports metrics::

    from repro import QuerySession

    session = QuerySession(graph, "rwr", c=0.9)
    batch = session.top_k_many(range(100), k=10, workers=4)
    print(session.metrics().to_dict())

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.core import (
    BatchSummary,
    FLoSOptions,
    QueryOverrides,
    QueryRequest,
    QuerySession,
    SearchStats,
    SessionMetrics,
    TopKResult,
    basic_top_k,
    flos_top_k,
    flos_top_k_batch,
)
from repro.graph import CSRGraph, GraphAccess, GraphBuilder
from repro.measures import (
    DHT,
    EI,
    PHP,
    RWR,
    THT,
    exact_top_k,
    resolve_measure,
    solve_direct,
)

__version__ = "4.0.0"

__all__ = [
    "flos_top_k",
    "flos_top_k_batch",
    "basic_top_k",
    "QueryOverrides",
    "QueryRequest",
    "QuerySession",
    "SessionMetrics",
    "BatchSummary",
    "FLoSOptions",
    "TopKResult",
    "SearchStats",
    "CSRGraph",
    "GraphAccess",
    "GraphBuilder",
    "PHP",
    "EI",
    "DHT",
    "THT",
    "RWR",
    "resolve_measure",
    "solve_direct",
    "exact_top_k",
    "__version__",
]
