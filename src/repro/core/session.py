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
* a bounded LRU of recent :class:`~repro.core.result.TopKResult`\\ s
  keyed by ``(query, k, exclude)`` (exact results only);
* cumulative serving metrics (:meth:`QuerySession.metrics`), including
  per-termination-reason counters for anytime/degraded results, and a
  slow-query log (:meth:`QuerySession.slow_queries`).

Deadline-aware serving: every budget in
:class:`~repro.core.flos.FLoSOptions` (``max_visited``,
``max_iterations``, ``deadline_seconds``) is *soft* under
``on_budget="degrade"`` — a query that exhausts its budget returns an
anytime result with certified bounds instead of raising, which is what
bounds tail latency on pathological queries (e.g. near-ties that would
otherwise force visiting the whole component).  ``top_k`` and
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
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.api import NO_OVERRIDES, QueryOverrides, QueryRequest
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
    ``"visited_budget"``, ``"iteration_budget"``).  Both count engine
    runs only — cache hits replay a stored result and touch neither.

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
    #: visited ball (or, for graphs without an update log, because the
    #: graph's edge count changed under the session).
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


@dataclass
class _CacheEntry:
    """One cached result plus the state needed to validate it later.

    ``version`` is the graph's update-log version the result was
    computed at (fast-forwarded on access when no event touched the
    ball); ``fingerprint`` is the fallback mutation detector for graphs
    without an update log.  ``ball`` is the closed visited ball (sorted
    ``int32``) and ``max_degree`` the graph's max degree at compute
    time — the Sec. 5.6 RWR guard read it, so a kept hit must see it
    unchanged.
    """

    result: TopKResult
    version: int
    fingerprint: tuple
    ball: np.ndarray | None = None
    max_degree: float = 0.0


class _ResultCache:
    """Bounded LRU of cache entries; thread safety comes from the caller."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._store: OrderedDict[tuple, _CacheEntry] = OrderedDict()

    def get(self, key: tuple) -> _CacheEntry | None:
        entry = self._store.get(key)
        if entry is not None:
            self._store.move_to_end(key)
        return entry

    def put(self, key: tuple, entry: _CacheEntry) -> None:
        if self.maxsize <= 0:
            return
        self._store[key] = entry
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)

    def evict(self, key: tuple) -> None:
        self._store.pop(key, None)

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        self._store.clear()


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
        if cache_size < 0:
            raise SearchError("cache_size must be >= 0")

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

        # Incremental serving: graphs that expose an ``update_log``
        # (e.g. :class:`~repro.graph.dynamic.DynamicGraph`) get
        # version-aware, ball-localized cache invalidation; any other
        # mutable graph falls back to a coarse fingerprint check.
        self._update_log = getattr(graph, "update_log", None)
        # Degree-weighted measures (RWR) read ``graph.max_degree`` in the
        # Sec. 5.6 termination guard whenever no CSR DegreeIndex exists —
        # a kept cache hit must see that value unchanged to stay sound.
        self._needs_degree_guard = (
            self._engine_kind == "php"
            and self.measure.uses_degree_weighting()
            and not isinstance(graph, CSRGraph)
        )

        self._lock = threading.Lock()
        self._cache = _ResultCache(cache_size)
        self._queries_served = 0
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
        self._cache_invalidations = 0
        # Slow-query log: min-heap of (wall_seconds, seq, entry) keeping
        # the worst ``SLOW_LOG_SIZE`` engine runs; ``seq`` breaks ties so
        # dict entries are never compared.
        self._slow_log: list[tuple[float, int, dict]] = []
        self._slow_seq = 0

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
        options = self._per_call_options(resolved)
        options.validate(k)
        excluded = (
            frozenset(int(v) for v in exclude) if exclude else frozenset()
        )
        # audit changes the result payload (the attached audit report),
        # so it partitions the cache; budget overrides do not — a cached
        # exact answer satisfies any budget.
        key = (int(query), int(k), excluded, resolved.audit)

        # Cache lookup, validation against the graph's update log, hit
        # accounting, and the defensive copy happen under one lock
        # acquisition: copying outside it would let a concurrent
        # caller's mutation of the shared cached object race the copy,
        # and split lookup/accounting would let the metrics drift from
        # the cache state observed.
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                if self._validate_entry(entry) == "hit":
                    elapsed = time.monotonic() - started
                    self._queries_served += 1
                    self._cache_hits += 1
                    self._total_wall_seconds += elapsed
                    self._wall_samples.append(elapsed)
                    return entry.result.copy()
                # Stale: drop it and recompute from scratch.
                self._cache.evict(key)
                self._cache_invalidations += 1

        # Capture the version *before* executing: a mutation racing the
        # engine run then stamps the entry conservatively stale, and the
        # next access replays the missed events.
        version_now = self._graph_version()
        fingerprint_now = self._graph_fingerprint()
        result = self._execute(int(query), int(k), excluded, options)
        result.stats.wall_time_seconds = time.monotonic() - started
        if result.exact:
            entry = _CacheEntry(
                # Store a private copy: the caller owns ``result`` and
                # may mutate it after we return.
                result=result.copy(),
                version=version_now,
                fingerprint=fingerprint_now,
                ball=result.stats.visited_ball,
                max_degree=(
                    float(self.graph.max_degree)
                    if self._needs_degree_guard
                    else 0.0
                ),
            )
            with self._lock:
                self._cache.put(key, entry)
        self._record_miss(result)
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
            samples = np.fromiter(self._wall_samples, dtype=np.float64)
            return SessionMetrics(
                queries_served=self._queries_served,
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
                cache_invalidations=self._cache_invalidations,
            )

    def slow_queries(self) -> list[dict]:
        """The worst-latency engine runs, slowest first.

        Each entry is a JSON-serializable dict:
        ``{"query", "k", "wall_seconds", "visited_nodes", "termination",
        "exact"}``.  The log keeps the :data:`SLOW_LOG_SIZE` (32) slowest
        engine runs seen so far (cache hits are never logged); use it to
        find the pathological queries that deserve a per-call deadline.
        """
        with self._lock:
            worst = sorted(self._slow_log, key=lambda t: (-t[0], t[1]))
        return [dict(entry) for _, _, entry in worst]

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
            f"served={self._queries_served})"
        )

    # ------------------------------------------------------------------
    # Incremental serving: version-aware cache validation
    # ------------------------------------------------------------------

    def _graph_version(self) -> int:
        return self._update_log.version if self._update_log is not None else 0

    def _graph_fingerprint(self) -> tuple:
        """Coarse mutation detector for graphs without an update log."""
        return (int(self.graph.num_edges), int(self.graph.num_nodes))

    def _validate_entry(self, entry: _CacheEntry) -> str:
        """Decide whether a cached entry is still good (caller holds the
        lock).

        Returns ``"hit"`` (serve it) or ``"cold"`` (evict, recompute from
        scratch).  The decision tree, justified in ``docs/serving.md``:

        * no update log → fingerprint fallback (satellite bugfix: a
          mutable graph edited after caching must never serve stale);
        * version current → hit;
        * events fell off the replay window (or ``compact()`` ran) →
          cold, nothing is known about what changed;
        * no event endpoint intersects the entry's **closed** ball
          (visited ∪ one-hop boundary — the boundary's degrees entered
          the star-to-mesh tightening, so the open ball is not enough) →
          hit, and the entry's version fast-forwards so later lookups
          skip the replay.  Degree-weighted measures additionally
          require ``graph.max_degree`` unchanged (Sec. 5.6 guard);
        * anything else → cold.
        """
        log = self._update_log
        if log is None:
            if self._graph_fingerprint() == entry.fingerprint:
                return "hit"
            return "cold"
        events = log.events_since(entry.version)
        if events is None:
            return "cold"
        if not events:
            return "hit"
        if entry.ball is None:
            return "cold"
        touched = np.fromiter(
            (x for e in events for x in (e.u, e.v)),
            dtype=np.int64,
            count=2 * len(events),
        )
        touched = np.unique(touched)
        if not np.isin(touched, entry.ball).any():
            if self._needs_degree_guard and (
                float(self.graph.max_degree) != entry.max_degree
            ):
                return "cold"
            entry.version = log.version
            return "hit"
        return "cold"

    # ------------------------------------------------------------------
    # Engine dispatch (the logic formerly inlined in api.flos_top_k)
    # ------------------------------------------------------------------

    def _per_call_options(self, overrides: QueryOverrides) -> FLoSOptions:
        """Session options with per-call overrides applied.

        :meth:`QueryOverrides.apply` rebuilds the frozen dataclass,
        re-validating via ``__post_init__``, so a bad override raises
        :class:`~repro.errors.ConfigurationError` here.
        """
        return overrides.apply(self.options)

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
            finalize = self._tht_result
        else:
            degree_bound = None
            if measure.uses_degree_weighting() and isinstance(graph, CSRGraph):
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
            finalize = self._php_family_result

        # The engine's view read the query's row and degree (local 0).
        if engine.view.local_degree(0) <= 0.0:
            # Isolated query: every proximity is degenerate (0 for
            # hitting probabilities, L for THT); no meaningful ranking.
            result = self._empty_result(query, k)
            if self._update_log is not None:
                # Its ball is the query alone — an edge landing on the
                # query must invalidate this entry.
                ball = np.array([query], dtype=np.int32)
                ball.flags.writeable = False
                result.stats.visited_ball = ball
            return result

        outcome = engine.run()
        result = finalize(outcome, query, k)

        if self._update_log is not None:
            # Persist the closed visited ball on the result so the cache
            # can localize later invalidation (ISSUE: compact sorted
            # int32 in ``TopKResult.stats``).  Read-only — ``copy()``
            # shares it by reference.
            ball = outcome.view.closed_ball()
            ball.flags.writeable = False
            result.stats.visited_ball = ball
        return result

    def _php_family_result(
        self, outcome: EngineOutcome, query: int, k: int
    ) -> TopKResult:
        measure: PHPFamilyMeasure = self.measure
        view = outcome.view
        top = outcome.top_locals
        gids = view.global_ids()
        degrees = view.degrees_array()

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

        increasing = measure.direction is Direction.HIGHER_IS_CLOSER
        php_lb, php_ub = outcome.lower[top], outcome.upper[top]
        deg = degrees[top]
        if increasing:
            lower = np.array(
                [measure.from_php(p, d, scale_lb) for p, d in zip(php_lb, deg)]
            )
            upper = np.array(
                [measure.from_php(p, d, scale_ub) for p, d in zip(php_ub, deg)]
            )
        else:  # DHT: native value decreases in PHP
            lower = np.array(
                [measure.from_php(p, d, scale_ub) for p, d in zip(php_ub, deg)]
            )
            upper = np.array(
                [measure.from_php(p, d, scale_lb) for p, d in zip(php_lb, deg)]
            )
        values = 0.5 * (lower + upper)

        return TopKResult(
            query=query,
            k=k,
            measure_name=measure.name,
            nodes=gids[top],
            values=values,
            lower=lower,
            upper=upper,
            exact=outcome.exact,
            stats=outcome.stats,
            exhausted_component=outcome.exhausted_component,
            trace=outcome.trace,
            audit=outcome.audit,
        )

    def _tht_result(
        self, outcome: EngineOutcome, query: int, k: int
    ) -> TopKResult:
        view = outcome.view
        top = outcome.top_locals
        gids = view.global_ids()
        lower = outcome.lower[top]
        upper = outcome.upper[top]
        return TopKResult(
            query=query,
            k=k,
            measure_name=self.measure.name,
            nodes=gids[top],
            values=0.5 * (lower + upper),
            lower=lower,
            upper=upper,
            exact=outcome.exact,
            stats=outcome.stats,
            exhausted_component=outcome.exhausted_component,
            trace=outcome.trace,
            audit=outcome.audit,
        )

    def _empty_result(self, query: int, k: int) -> TopKResult:
        result = TopKResult(
            query=query,
            k=k,
            measure_name=self.measure.name,
            nodes=np.empty(0, dtype=np.int64),
            values=np.empty(0),
            lower=np.empty(0),
            upper=np.empty(0),
            exact=True,
            exhausted_component=True,
        )
        result.stats.visited_nodes = 1
        return result

    # ------------------------------------------------------------------
    # Metrics bookkeeping
    # ------------------------------------------------------------------

    def _record_miss(self, result: TopKResult) -> None:
        stats: SearchStats = result.stats
        bucket = int(stats.visited_nodes).bit_length()
        with self._lock:
            self._queries_served += 1
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
