"""Public entry point and the unified query contract.

Every way of asking this library a top-k question — the one-shot
:func:`flos_top_k`, a held :class:`~repro.core.session.QuerySession`,
and the multi-process :class:`~repro.serve.ShardedServer` — accepts the
same request shape, defined here:

* :class:`QueryOverrides` — the per-call knobs a *request* may carry on
  top of the session-level :class:`~repro.core.flos.FLoSOptions`:
  ``deadline_seconds``, ``on_budget``, ``audit``.  Overrides
  are applied with :meth:`QueryOverrides.apply`, which re-validates the
  resulting options, so a bad override fails with
  :class:`~repro.errors.ConfigurationError` before any engine runs.
* :class:`QueryRequest` — ``(query, k, exclude, overrides)``: the full
  picklable request, used verbatim as the wire format between the
  serving dispatcher and its worker processes.

:func:`flos_top_k` accepts any supported measure — an instance or a name
string — and answers one query through a throwaway
:class:`~repro.core.session.QuerySession`, which owns the engine
dispatch:

* PHP / EI / DHT / RWR → the FLoS driver over the PHP-space bound model
  (:class:`~repro.core.flos.PHPSpaceEngine`) with the measure's
  equivalent PHP decay (Theorems 2 and 6), then converts the PHP-space
  bounds into measure-native value bounds;
* THT → the same driver over the finite-horizon bound model
  (:class:`~repro.core.flos_tht.THTEngine`).

Applications that issue many queries against the same graph should hold
a :class:`~repro.core.session.QuerySession` instead: it amortises the
per-graph setup, caches recent results, and reports serving metrics.
For parallel serving hold a :class:`repro.serve.ShardedServer` (same
constructor surface, N worker processes attached zero-copy to one
shared graph); threads in one process contend for the GIL.

The returned :class:`~repro.core.result.TopKResult` carries the certified
top-k set (closest first), native value bounds for each returned node, and
search statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping

from repro.core.flos import FLoSOptions
from repro.core.result import TopKResult
from repro.errors import SearchError
from repro.graph.base import GraphAccess
from repro.measures.resolve import MeasureSpec

__all__ = ["QueryOverrides", "QueryRequest", "flos_top_k"]


@dataclass(frozen=True)
class QueryOverrides:
    """Per-request overrides of the session-level :class:`FLoSOptions`.

    Every field defaults to ``None`` ("inherit the session setting").
    The three knobs are exactly the ones a *request* may reasonably
    carry — a latency budget and what to do when it fires, plus the
    runtime audit mode:

    ``deadline_seconds``
        Wall-clock budget for this query.  ``float("inf")`` lifts a
        session-level deadline for one call.  The serving dispatcher
        additionally treats a value ``<= 0`` as an already-expired
        deadline at admission time (in-process entry points reject it
        as a configuration error, like :class:`FLoSOptions` does).
    ``on_budget``
        ``"raise"`` or ``"degrade"`` (see :class:`FLoSOptions`).
    ``audit``
        Runtime invariant audit: ``"off"``, ``"record"``, ``"check"``.

    Instances are frozen, hashable, and picklable — they ride inside
    :class:`QueryRequest` across the process boundary unchanged.
    """

    deadline_seconds: float | None = None
    on_budget: str | None = None
    audit: str | None = None

    def is_empty(self) -> bool:
        """True when every field inherits the session setting."""
        return all(
            getattr(self, f.name) is None for f in fields(self)
        )

    def apply(self, options: FLoSOptions) -> FLoSOptions:
        """Session options with the non-``None`` overrides applied.

        Rebuilds the frozen :class:`FLoSOptions` via
        :func:`dataclasses.replace`, which re-runs its validation — a
        bad override raises :class:`~repro.errors.ConfigurationError`
        here, before any engine runs.
        """
        if self.is_empty():
            return options
        updates: dict = {}
        if self.deadline_seconds is not None:
            updates["deadline_seconds"] = float(self.deadline_seconds)
        if self.on_budget is not None:
            updates["on_budget"] = str(self.on_budget)
        if self.audit is not None:
            updates["audit"] = str(self.audit)
        return replace(options, **updates)

    def to_dict(self) -> dict:
        """JSON-serializable mapping of the non-``None`` fields."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QueryOverrides":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SearchError(
                f"unknown QueryOverrides field(s) {unknown}; "
                f"valid fields are {sorted(known)}"
            )
        return cls(**dict(payload))


#: Shared empty instance — the common "no overrides" case allocates
#: nothing per request.
NO_OVERRIDES = QueryOverrides()


@dataclass(frozen=True)
class QueryRequest:
    """One top-k request: the wire format of the serving tier.

    ``(query, k, exclude, overrides)`` is everything a request carries;
    graph and measure are session state.  Instances are frozen and
    picklable — the multi-process dispatcher ships them to workers
    verbatim, so the in-process and sharded paths cannot drift.
    """

    query: int
    k: int
    exclude: frozenset[int] = frozenset()
    overrides: QueryOverrides = field(default_factory=QueryOverrides)

    def __post_init__(self) -> None:
        object.__setattr__(self, "query", int(self.query))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(
            self,
            "exclude",
            frozenset(int(v) for v in self.exclude),
        )
        if self.k < 1:
            raise SearchError("k must be >= 1")

    def to_dict(self) -> dict:
        """JSON-serializable request (the HTTP-facing shape)."""
        return {
            "query": self.query,
            "k": self.k,
            "exclude": sorted(self.exclude),
            "overrides": self.overrides.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QueryRequest":
        """Inverse of :meth:`to_dict`."""
        return cls(
            query=payload["query"],
            k=payload["k"],
            exclude=frozenset(payload.get("exclude", ())),
            overrides=QueryOverrides.from_dict(
                payload.get("overrides", {})
            ),
        )


def flos_top_k(
    graph: GraphAccess,
    measure: MeasureSpec,
    query: int,
    k: int,
    *,
    options: FLoSOptions | None = None,
    exclude: set[int] | frozenset[int] | Iterable[int] | None = None,
    overrides: QueryOverrides | None = None,
    **measure_params,
) -> TopKResult:
    """Exact top-k proximity query by fast local search (Algorithm 2).

    Parameters
    ----------
    graph:
        Any :class:`~repro.graph.base.GraphAccess` — in-memory or
        disk-resident.
    measure:
        One of :class:`~repro.measures.PHP`, :class:`~repro.measures.EI`,
        :class:`~repro.measures.DHT`, :class:`~repro.measures.RWR`,
        :class:`~repro.measures.THT` — or the measure's name string
        (``"php"``, ``"ei"``, ``"dht"``, ``"rwr"``, ``"tht"``) with its
        constructor parameters passed as extra keyword arguments, e.g.
        ``flos_top_k(graph, "rwr", q, 10, c=0.9)``.
    query:
        Query node id.
    k:
        Number of nearest neighbors to certify.
    options:
        :class:`~repro.core.flos.FLoSOptions`; defaults replicate the
        paper's setup.
    exclude:
        Node ids barred from the answer (e.g. items the user already
        owns).  Excluded nodes still carry walk mass — they are removed
        from the candidate set, not from the graph.
    overrides:
        :class:`QueryOverrides` — per-call ``deadline_seconds`` /
        ``on_budget`` / ``audit`` on top of ``options``.
        The same object is accepted by
        :meth:`QuerySession.top_k <repro.core.session.QuerySession.top_k>`
        and the :class:`~repro.serve.ShardedServer` dispatcher, so a
        request shape written once flows through every serving tier.
        With ``on_budget="degrade"`` an exhausted budget returns an
        *anytime* result — the current best-k with certified bounds,
        ``exact=False``, and ``stats.termination`` naming the budget
        that fired — instead of raising.

    Returns
    -------
    TopKResult
        Certified exact top-k (unless the query's component holds fewer
        than ``k`` other nodes, flagged by ``exhausted_component``, or a
        soft budget degraded the search, flagged by ``exact=False``).

    See Also
    --------
    repro.core.session.QuerySession : hold one session for many queries
        against the same graph (amortised setup, LRU cache, metrics).
    repro.serve.ShardedServer : the multi-process serving tier — same
        constructor surface as :class:`QuerySession`
        (``ShardedServer(graph, measure, options=..., cache_size=...,
        workers=N)``), workers attached zero-copy to
        one shared graph; switching a service from in-process to
        sharded serving is a one-line change.
    repro.serve.open_shared : publish a graph's CSR arrays once via
        shared memory (or mmap of the ``.flos`` disk format) for
        external worker fleets.
    """
    # Imported here (not at module top) so the request contract above
    # stays importable from the session module without a cycle.
    from repro.core.session import QuerySession

    session = QuerySession(
        graph, measure, options=options, cache_size=0, **measure_params
    )
    return session.top_k(query, k, exclude=exclude, overrides=overrides)
