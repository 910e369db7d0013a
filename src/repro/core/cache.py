"""The result cache shared by every serving layer: :class:`ResultCache`.

FLoS answers are certified exact (Algs 2–6), so an exact
:class:`~repro.core.result.TopKResult` depends only on its key —
``(query, k, exclude, audit)``, see :func:`result_key` — and on the
graph it was computed on.  That lets any layer that can see the graph's
version reuse one: :class:`~repro.core.session.QuerySession` caches in
process, and :class:`~repro.serve.ShardedServer` caches in the
dispatcher, in front of the worker pipes (its workers cache nothing).
Both use this class, so there is one validation rule:

* an entry is stamped (:meth:`ResultCache.stamp`) with the graph state
  the result was computed at — the update-log version, and
  ``max_degree`` where the Sec. 5.6 RWR guard reads it — taken *before*
  the computation, so a mutation racing it leaves the stamp
  conservatively old;
* a lookup replays the update log since the stamp against the entry's
  closed visited ball (:meth:`ResultCache._is_current`) and evicts the
  entry on any doubt.

The cache is not thread safe: callers serialize access (the session
under its lock, the dispatcher by being single threaded).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.result import TopKResult
from repro.errors import SearchError
from repro.graph.base import GraphAccess
from repro.graph.memory import CSRGraph
from repro.measures.base import Measure, PHPFamilyMeasure

__all__ = ["ResultCache", "result_key"]


def result_key(query, k, exclude, audit) -> tuple:
    """Cache key of one request.

    ``audit`` (the per-call override, ``None`` to inherit) changes the
    result payload — the attached audit report — so it partitions the
    cache; budget overrides do not, because a cached exact answer
    satisfies any budget.
    """
    excluded = frozenset(int(v) for v in exclude) if exclude else frozenset()
    return (int(query), int(k), excluded, audit)


@dataclass
class _Entry:
    """One cached result plus the graph state it was computed at.

    ``version`` is fast-forwarded on access when no event touched the
    ball.  ``ball`` is the closed visited ball (sorted ``int32``,
    read-only) and ``max_degree`` the graph's max degree — the Sec. 5.6
    RWR guard read it, so a kept hit must see it unchanged.
    """

    result: TopKResult
    version: int
    max_degree: float
    ball: np.ndarray | None


class ResultCache:
    """Bounded LRU of exact results, validated against graph mutations.

    Parameters
    ----------
    maxsize:
        Capacity in results (0 disables caching; negative raises
        :class:`~repro.errors.SearchError`).
    graph:
        The graph the cached results are computed on.  A graph with an
        ``update_log`` (:class:`~repro.graph.dynamic.DynamicGraph`) gets
        ball-localized invalidation.  A graph without one — or
        ``None`` — is immutable: its entries never go stale.
    measure:
        The resolved measure; degree-weighted PHP-family measures (RWR)
        on a non-CSR graph with an update log add the ``max_degree``
        guard.
    """

    def __init__(
        self, maxsize: int, graph: GraphAccess | None, measure: Measure
    ):
        if maxsize < 0:
            raise SearchError("cache_size must be >= 0")
        self.maxsize = maxsize
        self.graph = graph
        self.update_log = getattr(graph, "update_log", None)
        # Without a CSR DegreeIndex the Sec. 5.6 guard reads
        # ``graph.max_degree``; a kept hit must see that value unchanged.
        self.degree_guard = (
            self.update_log is not None
            and isinstance(measure, PHPFamilyMeasure)
            and measure.uses_degree_weighting()
            and not isinstance(graph, CSRGraph)
        )
        #: Entries dropped as stale on lookup.
        self.invalidations = 0
        self._store: OrderedDict[tuple, _Entry] = OrderedDict()

    def stamp(self) -> tuple:
        """The graph state to store with a result computed from now on."""
        log = self.update_log
        if log is None or self.maxsize <= 0:
            return (0, 0.0)
        return (
            log.version,
            float(self.graph.max_degree) if self.degree_guard else 0.0,
        )

    def lookup(self, key: tuple) -> TopKResult | None:
        """An independent copy of the cached result, or ``None``.

        A stale entry is evicted and counted in :attr:`invalidations`.
        """
        entry = self._store.get(key)
        if entry is None:
            return None
        if not self._is_current(entry):
            del self._store[key]
            self.invalidations += 1
            return None
        self._store.move_to_end(key)
        return entry.result.copy()

    def store(self, key: tuple, result: TopKResult, stamp: tuple) -> None:
        """Keep a private copy of an exact ``result`` computed at
        ``stamp``; anytime results (``exact=False``) are never kept —
        they depend on the budget, and on scheduling for deadlines."""
        if self.maxsize <= 0 or not result.exact:
            return
        ball = result.stats.visited_ball
        if ball is not None:
            # Copies share the ball by reference (TopKResult.copy).
            ball.flags.writeable = False
        version, max_degree = stamp
        self._store[key] = _Entry(result.copy(), version, max_degree, ball)
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    def _is_current(self, entry: _Entry) -> bool:
        """Whether a cached entry still answers its key exactly.

        The decision tree, justified in ``docs/serving.md``:

        * no update log (an immutable graph) → current;
        * version current → current;
        * events fell off the replay window (or ``compact()`` ran) →
          stale, nothing is known about what changed;
        * no event endpoint intersects the entry's **closed** ball
          (visited ∪ one-hop boundary — the boundary's degrees entered
          the star-to-mesh tightening, so the open ball is not enough) →
          current, and the entry's version fast-forwards so later
          lookups skip the replay.  The ``max_degree`` guard must also
          hold;
        * anything else → stale.
        """
        log = self.update_log
        if log is None:
            return True
        events = log.events_since(entry.version)
        if events is None:
            return False
        if not events:
            return True
        if entry.ball is None:
            return False
        touched = np.fromiter(
            (x for e in events for x in (e.u, e.v)),
            dtype=np.int64,
            count=2 * len(events),
        )
        if np.isin(np.unique(touched), entry.ball).any():
            return False
        if self.degree_guard and (
            float(self.graph.max_degree) != entry.max_degree
        ):
            return False
        entry.version = log.version
        return True
