"""Long-lived query sessions: reusable per-graph state for serving.

FLoS answers one query by touching only a small neighborhood (Sec. 5),
which makes per-query *setup* — degree ordering, option validation,
measure resolution — a visible fraction of serve time once the same
graph answers many queries.  :class:`QuerySession` is the serving-layer
object that owns everything reusable across queries on one
``(graph, measure)`` pair:

* the degree-descending node order behind the RWR guard of Sec. 5.6
  (computed once, shared by every query's
  :class:`~repro.core.degree_index.DegreeIndex` cursor);
* the resolved measure (name strings accepted, see
  :func:`repro.measures.resolve_measure`) and its engine dispatch;
* :class:`~repro.core.flos.FLoSOptions`, validated once at session
  creation instead of deep inside the engine;
* a bounded LRU of recent exact :class:`~repro.core.result.TopKResult`\\ s
  (:class:`~repro.core.cache.ResultCache`, the same cache
  :class:`repro.serve.ShardedServer` keeps in its dispatcher);
* cumulative serving metrics (:meth:`QuerySession.metrics`), including
  per-termination-reason counters for anytime/degraded results, and a
  slow-query log (:meth:`QuerySession.slow_queries`).

Deadline-aware serving: both budgets in
:class:`~repro.core.flos.FLoSOptions` (``max_visited``,
``deadline_seconds``) are *soft* under ``on_budget="degrade"`` — a
query that exhausts its budget returns an anytime result with certified
bounds instead of raising, which is what bounds tail latency on
pathological queries (e.g. near-ties that would otherwise force
visiting the whole component).  ``top_k`` and
``top_k_many`` take a per-call
:class:`~repro.core.api.QueryOverrides` (``deadline_seconds``,
``on_budget``, ``audit``) — the same contract the one-shot
:func:`~repro.core.api.flos_top_k` and the multi-process
:class:`repro.serve.ShardedServer` accept.

``top_k_many`` serves a workload as a loop of ``top_k`` calls, in
workload order.  Every query builds its own engine instance (engines
are single-use by design), so the only shared state is the graph, the
shared degree order, and the lock-guarded cache/metrics: callers may
share one session across their own threads.  Process-level parallelism
is :class:`repro.serve.ShardedServer`.

The one-shot helper :func:`repro.core.api.flos_top_k` is a thin wrapper
over a throwaway session.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.api import NO_OVERRIDES, QueryOverrides, QueryRequest
from repro.core.cache import ResultCache, result_key
from repro.core.degree_index import DegreeIndex, degree_descending_order
from repro.core.flos import EngineOutcome, FLoSOptions, PHPSpaceEngine
from repro.core.flos_tht import THTEngine
from repro.core.result import BatchSummary, SearchStats, TopKResult
from repro.errors import SearchError
from repro.graph.base import GraphAccess
from repro.graph.memory import CSRGraph
from repro.measures.base import Direction, Measure, PHPFamilyMeasure
from repro.measures.resolve import MeasureSpec, resolve_measure
from repro.measures.tht import THT

#: Wall-time samples kept for the p50/p95 percentiles (a sliding window,
#: so long-running sessions report recent serving latency, not history).
_WALL_TIME_WINDOW = 10_000

#: Worst-latency engine runs kept by :meth:`QuerySession.slow_queries`.
SLOW_LOG_SIZE = 32


@dataclass(frozen=True)
class SessionMetrics:
    """Immutable snapshot of one session's cumulative serving counters.

    ``visited_histogram`` buckets queries by visited-set size into
    powers of two: key ``b`` counts queries with
    ``2**(b-1) < visited_nodes <= 2**b`` (key 0 counts empty results).
    Cache hits reuse a stored result without running an engine, so they
    advance ``queries_served`` / ``cache_hits`` and the wall-time
    percentiles but not the engine-work counters.

    ``degraded_results`` counts engine runs that returned an anytime
    result (``exact=False``) because a soft budget fired
    (``on_budget="degrade"``); ``terminations`` counts engine runs by
    ``stats.termination`` reason (``"exact"``, ``"deadline"``,
    ``"visited_budget"``).  Both count engine runs only — cache hits
    replay a stored result and touch neither.

    ``audit_checks`` / ``audit_violations`` accumulate the runtime
    invariant audit counters (``FLoSOptions.audit != "off"``) over
    engine runs; both stay 0 when auditing is off, and
    ``audit_violations`` stays 0 under ``audit="check"`` because a
    violating run raises instead of returning.
    """

    queries_served: int
    cache_hits: int
    cache_misses: int
    visited_nodes_total: int
    expansions_total: int
    solver_iterations_total: int
    visited_histogram: dict[int, int]
    total_wall_seconds: float
    p50_wall_seconds: float
    p95_wall_seconds: float
    degraded_results: int
    terminations: dict[str, int]
    audit_checks: int = 0
    audit_violations: int = 0
    #: Cached results dropped because an edge update touched their
    #: visited ball.
    cache_invalidations: int = 0
    #: Always 0: an invalidated query re-runs from scratch.  Kept because
    #: the ``perfbench`` harness reads it.
    warm_starts: int = 0

    @property
    def cache_hit_rate(self) -> float:
        if not self.queries_served:
            return 0.0
        return self.cache_hits / self.queries_served

    def to_dict(self) -> dict:
        """JSON-serializable mapping of every counter."""
        return {
            "queries_served": self.queries_served,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "visited_nodes_total": self.visited_nodes_total,
            "expansions_total": self.expansions_total,
            "solver_iterations_total": self.solver_iterations_total,
            "visited_histogram": {
                str(2**b if b else 0): count
                for b, count in sorted(self.visited_histogram.items())
            },
            "total_wall_seconds": self.total_wall_seconds,
            "p50_wall_seconds": self.p50_wall_seconds,
            "p95_wall_seconds": self.p95_wall_seconds,
            "degraded_results": self.degraded_results,
            "terminations": {
                reason: count
                for reason, count in sorted(self.terminations.items())
            },
            "audit_checks": self.audit_checks,
            "audit_violations": self.audit_violations,
            "cache_invalidations": self.cache_invalidations,
        }


class MetricsRecorder:
    """The cumulative counters behind :class:`SessionMetrics`.

    Fed one answer at a time: :meth:`record_hit` for a cache hit,
    :meth:`record_miss` for an engine run, whose work counters come from
    the result's own ``stats``.  Not thread safe: a
    :class:`QuerySession` calls it under its lock, and the
    single-threaded dispatcher of :class:`repro.serve.ShardedServer`
    keeps one per worker slot, fed with every answer that worker sends.
    """

    def __init__(self):
        self.queries_served = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._visited_total = 0
        self._expansions_total = 0
        self._solver_iterations_total = 0
        self._visited_histogram: dict[int, int] = {}
        self._total_wall_seconds = 0.0
        self._wall_samples: deque[float] = deque(maxlen=_WALL_TIME_WINDOW)
        self._degraded_results = 0
        self._terminations: dict[str, int] = {}
        self._audit_checks = 0
        self._audit_violations = 0
        # Slow-query log: min-heap of (wall_seconds, seq, entry) keeping
        # the worst ``SLOW_LOG_SIZE`` engine runs; ``seq`` breaks ties so
        # dict entries are never compared.
        self._slow_log: list[tuple[float, int, dict]] = []
        self._slow_seq = 0

    def record_hit(self, elapsed: float) -> None:
        self.queries_served += 1
        self._cache_hits += 1
        self._total_wall_seconds += elapsed
        self._wall_samples.append(elapsed)

    def record_miss(self, result: TopKResult) -> None:
        stats: SearchStats = result.stats
        bucket = int(stats.visited_nodes).bit_length()
        self.queries_served += 1
        self._cache_misses += 1
        self._visited_total += stats.visited_nodes
        self._expansions_total += stats.expansions
        self._solver_iterations_total += stats.solver_iterations
        self._visited_histogram[bucket] = (
            self._visited_histogram.get(bucket, 0) + 1
        )
        self._total_wall_seconds += stats.wall_time_seconds
        self._wall_samples.append(stats.wall_time_seconds)
        if not result.exact:
            self._degraded_results += 1
        self._terminations[stats.termination] = (
            self._terminations.get(stats.termination, 0) + 1
        )
        self._audit_checks += stats.audit_checks
        self._audit_violations += stats.audit_violations
        entry = {
            "query": int(result.query),
            "k": int(result.k),
            "wall_seconds": float(stats.wall_time_seconds),
            "visited_nodes": int(stats.visited_nodes),
            "termination": str(stats.termination),
            "exact": bool(result.exact),
        }
        item = (float(stats.wall_time_seconds), self._slow_seq, entry)
        self._slow_seq += 1
        if len(self._slow_log) < SLOW_LOG_SIZE:
            heapq.heappush(self._slow_log, item)
        elif item[0] > self._slow_log[0][0]:
            heapq.heapreplace(self._slow_log, item)

    def snapshot(self, cache_invalidations: int = 0) -> SessionMetrics:
        samples = np.fromiter(self._wall_samples, dtype=np.float64)
        return SessionMetrics(
            queries_served=self.queries_served,
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
            visited_nodes_total=self._visited_total,
            expansions_total=self._expansions_total,
            solver_iterations_total=self._solver_iterations_total,
            visited_histogram=dict(self._visited_histogram),
            total_wall_seconds=self._total_wall_seconds,
            p50_wall_seconds=(
                float(np.percentile(samples, 50)) if len(samples) else 0.0
            ),
            p95_wall_seconds=(
                float(np.percentile(samples, 95)) if len(samples) else 0.0
            ),
            degraded_results=self._degraded_results,
            terminations=dict(self._terminations),
            audit_checks=self._audit_checks,
            audit_violations=self._audit_violations,
            cache_invalidations=cache_invalidations,
        )

    def slow_queries(self) -> list[dict]:
        worst = sorted(self._slow_log, key=lambda t: (-t[0], t[1]))
        return [dict(entry) for _, _, entry in worst]


class QuerySession:
    """Reusable top-k query engine bound to one ``(graph, measure)`` pair.

    Parameters
    ----------
    graph:
        Any :class:`~repro.graph.base.GraphAccess`.
    measure:
        A measure instance or a name string (``"php"``, ``"ei"``,
        ``"dht"``, ``"rwr"``, ``"tht"``); name strings take constructor
        parameters as keyword arguments (``c=...``, ``horizon=...``).
    options:
        :class:`~repro.core.flos.FLoSOptions`, validated here — a bad
        configuration raises :class:`~repro.errors.ConfigurationError`
        at session creation, not mid-search.
    cache_size:
        Capacity of the LRU result cache (0 disables caching).  Only
        exact results are cached: anytime results (``exact=False``)
        depend on the budget that produced them — and on wall-clock
        scheduling for deadlines — so replaying one later could serve a
        worse answer than the caller's budget allows.
    """

    def __init__(
        self,
        graph: GraphAccess,
        measure: MeasureSpec,
        *,
        options: FLoSOptions | None = None,
        cache_size: int = 256,
        **measure_params,
    ):
        self.graph = graph
        self.measure: Measure = resolve_measure(measure, **measure_params)
        self.options = (options or FLoSOptions()).validate()
        # Incremental serving: graphs that expose an ``update_log``
        # (e.g. :class:`~repro.graph.dynamic.DynamicGraph`) get
        # version-aware, ball-localized cache invalidation; a graph
        # without one is immutable, and its entries never go stale.
        self._cache = ResultCache(cache_size, graph, self.measure)

        if isinstance(self.measure, THT):
            self._engine_kind = "tht"
        elif isinstance(self.measure, PHPFamilyMeasure):
            self._engine_kind = "php"
        else:
            raise SearchError(
                f"measure {self.measure!r} is not supported by FLoS; "
                "supported measures are PHP, EI, DHT, RWR (PHP family) "
                "and THT"
            )

        # Reusable per-graph state: the degree-descending order of the
        # RWR guard (Sec. 5.6).  Computed once here; every query's
        # DegreeIndex gets its own cursor over this shared array.
        self._degree_order: np.ndarray | None = None
        if (
            self._engine_kind == "php"
            and self.measure.uses_degree_weighting()
            and isinstance(graph, CSRGraph)
        ):
            self._degree_order = degree_descending_order(graph)

        self._lock = threading.Lock()
        self._recorder = MetricsRecorder()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def top_k(
        self,
        query: int,
        k: int,
        *,
        exclude: set[int] | frozenset[int] | None = None,
        overrides: QueryOverrides | None = None,
    ) -> TopKResult:
        """Top-k for one query (Algorithm 2), cache-aware.

        Results for a repeated ``(query, k, exclude)`` are served from
        the LRU cache as independent copies
        (:meth:`~repro.core.result.TopKResult.copy`) — mutating a
        returned result (its arrays or ``stats``) can never corrupt
        what later callers receive.

        ``overrides`` is the unified per-call contract
        (:class:`~repro.core.api.QueryOverrides`): ``deadline_seconds``
        / ``on_budget`` / ``audit`` applied on top of the
        session-level :class:`~repro.core.flos.FLoSOptions` for this
        call only — e.g. a latency-sensitive caller passes
        ``overrides=QueryOverrides(deadline_seconds=0.05,
        on_budget="degrade")`` to get the best certified answer 50 ms
        can buy (``exact=False`` when the budget fires; see
        ``stats.termination``).  To lift a session-level deadline for
        one call, use ``deadline_seconds=float("inf")``.  Anytime
        results are never cached, and calls whose ``audit`` override
        changes the result payload are cached under their own key.
        """
        started = time.monotonic()
        resolved = overrides if overrides is not None else NO_OVERRIDES
        # ``apply`` rebuilds the frozen options, re-validating them, so
        # a bad override raises ConfigurationError here.
        options = resolved.apply(self.options)
        options.validate(k)
        key = result_key(query, k, exclude, resolved.audit)

        # Cache lookup, validation against the graph's update log, hit
        # accounting, and the defensive copy happen under one lock
        # acquisition: copying outside it would let a concurrent
        # caller's mutation of the shared cached object race the copy,
        # and split lookup/accounting would let the metrics drift from
        # the cache state observed.  A stale entry is evicted and the
        # query recomputed from scratch.
        with self._lock:
            cached = self._cache.lookup(key)
            if cached is not None:
                self._recorder.record_hit(time.monotonic() - started)
                return cached
            # Stamp *before* executing: a mutation racing the engine
            # run leaves the entry conservatively old, and the next
            # access replays the missed events.
            stamp = self._cache.stamp()

        query, k, excluded, _audit = key  # normalized by result_key
        result = self._execute(query, k, excluded, options)
        result.stats.wall_time_seconds = time.monotonic() - started
        with self._lock:
            # The cache keeps a private copy: the caller owns ``result``
            # and may mutate it after we return.
            self._cache.store(key, result, stamp)
            self._recorder.record_miss(result)
        return result

    def serve(self, request: QueryRequest) -> TopKResult:
        """Answer one :class:`~repro.core.api.QueryRequest`.

        The request dataclass is the wire format of the sharded serving
        tier (:class:`repro.serve.ShardedServer`); this method is what
        its worker processes call, so the in-process and multi-process
        paths execute identically by construction.
        """
        return self.top_k(
            request.query,
            request.k,
            exclude=request.exclude,
            overrides=request.overrides,
        )

    def top_k_many(
        self,
        queries: Sequence[int] | Iterable[int],
        k: int,
        *,
        exclude: set[int] | frozenset[int] | None = None,
        overrides: QueryOverrides | None = None,
    ) -> BatchSummary:
        """Serve a workload; results come back in workload order.

        ``overrides`` (:class:`~repro.core.api.QueryOverrides`) applies
        *per query* (each query gets the full deadline), exactly as in
        :meth:`top_k` — under ``on_budget="degrade"`` a pathological
        query in the workload degrades to an anytime result instead of
        stalling the batch, so batch latency stays bounded.
        """
        query_list = [int(q) for q in queries]
        if not query_list:
            raise SearchError("query batch must not be empty")
        return BatchSummary(
            [
                self.top_k(q, k, exclude=exclude, overrides=overrides)
                for q in query_list
            ]
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics(self) -> SessionMetrics:
        """Snapshot of the cumulative serving counters."""
        with self._lock:
            return self._recorder.snapshot(self._cache.invalidations)

    def slow_queries(self) -> list[dict]:
        """The worst-latency engine runs, slowest first.

        Each entry is a JSON-serializable dict:
        ``{"query", "k", "wall_seconds", "visited_nodes", "termination",
        "exact"}``.  The log keeps the :data:`SLOW_LOG_SIZE` (32) slowest
        engine runs seen so far (cache hits are never logged); use it to
        find the pathological queries that deserve a per-call deadline.
        """
        with self._lock:
            return self._recorder.slow_queries()

    @property
    def cache_size(self) -> int:
        """Number of results currently resident in the LRU cache."""
        with self._lock:
            return len(self._cache)

    def clear_cache(self) -> None:
        """Drop every cached result (metrics counters are kept)."""
        with self._lock:
            self._cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuerySession({type(self.graph).__name__}"
            f"[{self.graph.num_nodes} nodes], {self.measure!r}, "
            f"served={self._recorder.queries_served})"
        )

    # ------------------------------------------------------------------
    # Engine dispatch (the logic formerly inlined in api.flos_top_k)
    # ------------------------------------------------------------------

    def _execute(
        self,
        query: int,
        k: int,
        excluded: frozenset[int],
        options: FLoSOptions,
    ) -> TopKResult:
        graph, measure = self.graph, self.measure
        if self._engine_kind == "tht":
            engine = THTEngine(
                graph,
                query,
                k,
                horizon=measure.horizon,
                options=options,
                exclude=excluded,
            )
        else:
            degree_bound = None
            if self._degree_order is not None:
                degree_bound = DegreeIndex(graph, order=self._degree_order)
            engine = PHPSpaceEngine(
                graph,
                query,
                k,
                decay=measure.php_decay,
                degree_weighted=measure.uses_degree_weighting(),
                unvisited_degree_bound=degree_bound,
                options=options,
                exclude=excluded,
            )

        view = engine.view
        # The engine's view read the query's row and degree (local 0).
        if view.local_degree(0) <= 0.0:
            # Isolated query: every proximity is degenerate (0 for
            # hitting probabilities, L for THT); no meaningful ranking.
            top = np.empty(0, dtype=np.int64)
            lower = upper = np.empty(0)
            exact = exhausted = True
            stats, audit = SearchStats(visited_nodes=1), None
        else:
            outcome = engine.run()
            view = outcome.view  # every node after a global finish
            top = outcome.top_locals
            if self._engine_kind == "php":
                lower, upper = self._native_bounds(outcome)
            else:  # THT bounds are native
                lower, upper = outcome.lower[top], outcome.upper[top]
            exact, exhausted = outcome.exact, outcome.exhausted_component
            stats, audit = outcome.stats, outcome.audit

        result = TopKResult(
            query=query,
            k=k,
            measure_name=measure.name,
            nodes=view.global_ids()[top],
            values=0.5 * (lower + upper),
            lower=lower,
            upper=upper,
            exact=exact,
            stats=stats,
            exhausted_component=exhausted,
            audit=audit,
        )
        if self._cache.update_log is not None:
            # Persist the closed visited ball on the result so the cache
            # can localize later invalidation (a compact sorted array in
            # ``TopKResult.stats``; the query alone when it is
            # isolated).  Read-only — ``copy()`` shares it by reference.
            ball = view.closed_ball()
            ball.flags.writeable = False
            stats.visited_ball = ball
        return result

    def _native_bounds(
        self, outcome: EngineOutcome
    ) -> tuple[np.ndarray, np.ndarray]:
        """Native ``(lower, upper)`` of the returned nodes, converted from
        the PHP-space bounds of a PHP-family measure."""
        measure: PHPFamilyMeasure = self.measure
        view = outcome.view
        top = outcome.top_locals
        php_lb, php_ub = outcome.lower[top], outcome.upper[top]
        # Local scale factor (Theorems 2/6): monotone increasing in each
        # neighbor PHP value, so evaluating it at the neighbor lower
        # (upper) bounds yields a scale lower (upper) bound.
        nbr_ids, nbr_probs = view.adjacency(0)
        nbr_locals = np.array([view.local_id(int(v)) for v in nbr_ids])
        w_q = view.local_degree(0)
        scale_lb = measure.query_scale(
            w_q, nbr_probs, outcome.lower[nbr_locals]
        )
        scale_ub = measure.query_scale(
            w_q, nbr_probs, outcome.upper[nbr_locals]
        )
        if measure.direction is not Direction.HIGHER_IS_CLOSER:
            # DHT: the native value decreases in PHP.
            php_lb, php_ub = php_ub, php_lb
            scale_lb, scale_ub = scale_ub, scale_lb
        deg = view.degrees_array()[top]
        return (
            measure.from_php(php_lb, deg, scale_lb),
            measure.from_php(php_ub, deg, scale_ub),
        )
