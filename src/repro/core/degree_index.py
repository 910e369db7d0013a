"""Maximum-unvisited-degree tracking for FLoS_RWR (paper Sec. 5.6).

The RWR termination guard needs ``w(S̄)``, the maximum weighted degree of
the *unvisited* nodes; the paper says "if we maintain the maximum degree
of the unvisited nodes, we can develop [the] upper bound".  Two levels of
fidelity are provided:

* the trivial bound — the graph's global maximum degree
  (:attr:`~repro.graph.base.GraphAccess.max_degree`), always valid, zero
  bookkeeping, but loose on hub-heavy graphs once the hubs are visited;
* :class:`DegreeIndex` — the exact maximum over S̄, maintained with a
  degree-descending node order and a cursor that skips visited nodes.
  The order is computed once per graph and shared across queries; each
  query's cursor advances at most ``|S|`` positions in total, so the
  per-query overhead is O(visited).

For in-memory graphs the index is cheap and used by default; for
disk-resident graphs it would require a full degree scan, so the global
bound is used instead (matching what a database deployment would do).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.localgraph import LocalView
from repro.graph.memory import CSRGraph

_order_cache: "weakref.WeakKeyDictionary[CSRGraph, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)


def degree_descending_order(graph: CSRGraph) -> np.ndarray:
    """Degree-descending node order, computed once per graph and memoised.

    Sessions hold a strong reference to the returned array so the sort is
    guaranteed to survive for their lifetime; the weak-keyed cache only
    ties the memo to the graph object's lifetime.
    """
    order = _order_cache.get(graph)
    if order is None:
        order = np.argsort(-graph.degrees, kind="stable").astype(np.int64)
        _order_cache[graph] = order
    return order


class DegreeIndex:
    """Exact ``w(S̄)`` for one query: callable on the current LocalView.

    ``order`` lets a long-lived :class:`~repro.core.session.QuerySession`
    inject its precomputed degree-descending order; each query still gets
    its own cursor, so instances are cheap and never shared across
    threads.
    """

    def __init__(self, graph: CSRGraph, *, order: np.ndarray | None = None):
        self._graph = graph
        self._order = order if order is not None else degree_descending_order(graph)
        self._cursor = 0

    def __call__(self, view: LocalView) -> float:
        order = self._order
        n = len(order)
        while self._cursor < n and view.is_visited(int(order[self._cursor])):
            self._cursor += 1
        if self._cursor >= n:
            return 0.0
        return self._graph.degree(int(order[self._cursor]))
