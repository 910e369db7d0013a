"""Batch top-k queries over one graph.

Applications (recommendation backfills, k-NN graph construction) issue
many queries against the same graph.  ``flos_top_k_batch`` is a thin
wrapper over a one-shot :class:`~repro.core.session.QuerySession`: the
session owns the shared per-graph state — most importantly the
degree-descending order behind the RWR guard of Sec. 5.6, computed once
and shared by every query's
:class:`~repro.core.degree_index.DegreeIndex` cursor — and returns
results in workload order with aggregate statistics.  ``workers > 1``
fans the batch out over the session's thread pool.

Long-running callers should construct a
:class:`~repro.core.session.QuerySession` directly and keep it: repeated
batches then also share the validated options, the result LRU, and the
cumulative serving metrics.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.api import QueryOverrides
from repro.core.flos import FLoSOptions
from repro.core.result import BatchSummary
from repro.core.session import QuerySession
from repro.graph.base import GraphAccess
from repro.measures.resolve import MeasureSpec

__all__ = ["flos_top_k_batch"]


def flos_top_k_batch(
    graph: GraphAccess,
    measure: MeasureSpec,
    queries: Sequence[int] | Iterable[int],
    k: int,
    *,
    options: FLoSOptions | None = None,
    workers: int = 1,
    overrides: QueryOverrides | None = None,
    **measure_params,
) -> BatchSummary:
    """Run :func:`~repro.core.api.flos_top_k` for every query node.

    Equivalent to a loop of single queries but warms the shared
    per-graph caches up front; results come back in input order.
    ``measure`` may be a name string (see
    :func:`repro.measures.resolve_measure`).  ``overrides``
    (:class:`~repro.core.api.QueryOverrides`) applies per query (see
    :meth:`~repro.core.session.QuerySession.top_k_many`), so one
    pathological query degrades to an anytime result instead of
    stalling the batch.
    """
    session = QuerySession(
        graph, measure, options=options, cache_size=0, **measure_params
    )
    return session.top_k_many(queries, k, workers=workers, overrides=overrides)
