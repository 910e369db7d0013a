"""Aggregated metrics for the multi-process serving tier.

:class:`ServeMetrics` is the dispatcher-level counterpart of
:class:`~repro.core.session.SessionMetrics`: one immutable snapshot
combining the dispatcher's own counters (dispatch/rejection/crash/cache
accounting, end-to-end latency percentiles measured submit→completion,
so queueing time counts) with one ``SessionMetrics.to_dict()`` per
worker slot, recorded in the dispatcher from the answers that slot
sent.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ServeMetrics:
    """Immutable snapshot of a :class:`~repro.serve.ShardedServer`.

    Dispatcher counters:

    * ``requests_dispatched`` / ``requests_completed`` — requests that
      entered a worker queue / were resolved (answered, failed, or given
      up after two crashes), each counted once.  A cache hit is answered
      in the dispatcher: it counts as completed, never as dispatched.
    * ``cache_hits`` / ``cache_invalidations`` — requests answered from
      the dispatcher's result cache, and cached entries dropped as stale
      after an edge update touched their ball (``mutable=True``).
      Workers keep no cache, so their own ``cache_hits`` stay 0.
    * ``rejected`` — refused by admission control before dispatch
      (``on_budget="raise"`` and an unmeetable deadline).
    * ``degraded_admissions`` — admitted *despite* an unmeetable
      deadline because the policy was ``"degrade"``; the anytime
      machinery bounds their cost.  A degraded admission usually (not
      necessarily) produces a degraded result; the per-worker
      ``degraded_results`` counters say what actually happened.
    * ``retried`` / ``respawns`` — crash-recovery accounting: requests
      re-dispatched after their worker died, and workers restarted.
    * ``qps`` — completed requests divided by the wall-clock span from
      first dispatch to last completion (0.0 before two data points).
    * ``p50_wall_seconds`` / ``p95_wall_seconds`` — end-to-end request
      latency percentiles over a sliding window, measured at the
      dispatcher (submit→completion, queueing included, cache hits
      included) — the number a client would see, unlike the engine-side
      percentiles in ``SessionMetrics``.

    ``per_worker`` holds one dict per worker slot:
    ``{"worker", "pid", "respawns", "ewma_seconds", **session}`` where
    ``session`` is the slot's ``SessionMetrics.to_dict()``
    (``queries_served``, ``degraded_results``, …) over every answer its
    processes sent — the counters survive a respawn, and include
    answers nobody collected (an aborted batch's stragglers).
    ``degraded_results`` at the top level is the sum over workers.
    """

    workers: int
    requests_dispatched: int
    requests_completed: int
    rejected: int
    degraded_admissions: int
    degraded_results: int
    retried: int
    respawns: int
    cache_hits: int
    qps: float
    p50_wall_seconds: float
    p95_wall_seconds: float
    #: Edge updates applied through :meth:`ShardedServer.apply_updates`
    #: (counted once per update, not per worker broadcast).
    updates_applied: int = 0
    cache_invalidations: int = 0
    per_worker: tuple[dict, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """JSON-serializable mapping of every counter."""
        return {
            "workers": self.workers,
            "requests_dispatched": self.requests_dispatched,
            "requests_completed": self.requests_completed,
            "rejected": self.rejected,
            "degraded_admissions": self.degraded_admissions,
            "degraded_results": self.degraded_results,
            "retried": self.retried,
            "respawns": self.respawns,
            "cache_hits": self.cache_hits,
            "qps": self.qps,
            "p50_wall_seconds": self.p50_wall_seconds,
            "p95_wall_seconds": self.p95_wall_seconds,
            "updates_applied": self.updates_applied,
            "cache_invalidations": self.cache_invalidations,
            "per_worker": [dict(w) for w in self.per_worker],
        }
