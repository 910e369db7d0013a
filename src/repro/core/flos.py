"""The FLoS driver (paper Algorithms 2–6) and its PHP-space bound model.

:class:`FLoSDriver` is the one local-search loop every measure runs:
best-first expansion, bound refresh, and the termination certificate.  A
subclass supplies only the bounds, as a *bound model*; the driver reads
them in one orientation, where larger means closer.  There are two
models: :class:`PHPSpaceEngine` below and
:class:`~repro.core.flos_tht.THTEngine`.

``PHPSpaceEngine`` serves four measures.  PHP is computed natively; EI,
DHT and RWR are PHP re-scalings (Theorems 2 and 6), so the model always
maintains *PHP* lower/upper bounds over the visited set and the
measure-specific wrapper in :mod:`repro.core.api` converts them to
native values afterwards.  The only measure-dependent piece is the
**ranking weight** ``ω_i`` — 1 for PHP/EI/DHT, the weighted degree
``w_i`` for RWR (Sec. 5.6, since ``RWR(i) ∝ w_i · PHP(i)``) — which also
scales the cap on unvisited nodes: ``max_{δS} ub`` (Corollary 1), or
``w(S̄) · max_{δS} ub`` for RWR.

One round ``t`` of Algorithm 2 (:meth:`FLoSDriver.rounds` yields a
:class:`Round` per round; :meth:`FLoSDriver.run` applies the stop rules):

1. **LocalExpansion** (Alg. 3): expand the boundary node maximising
   ``ω_i (lb_i + ub_i) / 2``.
2. **UpdateLowerBound** (Alg. 4): Jacobi-solve ``r = c T_S r + e_q`` on the
   visited subgraph, warm-started from the previous lower bound (new nodes
   start at 0).  Deleting every transition touching S̄ can only lower
   proximities (Theorem 3), so the result lower-bounds the true values.
3. **UpdateUpperBound** (Alg. 5): same system plus the dummy column — the
   boundary mass rerouted to a node ``d`` pinned at
   ``r_d^t = max_{i ∈ δS^{t-1}} ub^{t-1}_i``, warm-started from the
   previous upper bound (new nodes start at 1).  Destination change to a
   dominating node can only raise proximities (Theorem 5).
4. **CheckTerminationCriteria** (Alg. 6): pick the ``k`` settled nodes
   (all neighbors visited) with largest ``ω·lb``; stop when their minimum
   clears every other eligible visited node's ``ω·ub`` and the model's
   cap on unvisited nodes.  ``Round.blocked`` names the check that failed.

Optionally both bounds are tightened with star-to-mesh self-loops
(Sec. 5.3, Lemmas 3–4); ``FLoSOptions.tighten`` controls this and the
ablation benchmark measures its effect.

A bound model with a cheap exact global solve (THT's ``L``-step DP) may
also finish globally: :meth:`FLoSDriver.run` counts the local work of
each round and, once it reaches the global solve's cost, switches to it
(ski rental; ``docs/performance.md``).  The PHP-space model has no
global finish and never switches.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.kernels import DualBoundKernel
from repro.core.localgraph import LocalView
from repro.core.result import SearchStats
from repro.nputil import top_k_indices
from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    DeadlineExceededError,
    SearchError,
)
from repro.graph.base import GraphAccess

# The expansion schedule (Alg. 3; see ``FLoSOptions.adaptive_batching``).
# Read at call time, so a test may set them to drive other schedules.
#: Boundary nodes expanded per round (paper: 1); the adaptive
#: schedule's floor.
EXPAND_BATCH = 1
#: Upper limit on one round's expansion batch.
MAX_BATCH = 4096
#: Divisor of the growth rule, ``|S| // GROWTH_DIVISOR``: a warm-started
#: refresh costs what changed, so a large divisor keeps the ball tight,
#: and blocker rounds cover the searches it would slow down.
GROWTH_DIVISOR = 24
#: The doubling cap's floor: a round's extra nodes may reach
#: ``max(|S|, MIN_REACH)`` unvisited neighbors, so a small ball is not
#: held to doubling rounds.
MIN_REACH = 64
#: Ski rental (:meth:`FLoSDriver.run`), in the currency of the switch
#: rule, entries of a global CSR product; both measured in
#: ``docs/performance.md`` ("Global finish").  The fixed cost of one
#: round; minus infinity never switches, which pins a search to the
#: local path.
ROUND_CHARGE = 160_000
#: The cost of restoring one adjacency entry.
RESTORE_WEIGHT = 50


@dataclass(frozen=True)
class FLoSOptions:
    """Tuning knobs of the FLoS engines.

    Defaults follow the paper's experimental setup (Sec. 6.1–6.2) —
    ``tau = 1e-5``, self-loop tightening on — except the expansion
    schedule: the paper expands one node per iteration, while the
    default ``adaptive_batching=True`` sizes each round by the visited
    set and by what blocks Alg. 6 (see ``adaptive_batching``).
    ``adaptive_batching=False`` restores the single-node schedule.
    """

    #: Termination threshold of the inner Jacobi solver (Algorithm 7).
    tau: float = 1e-5
    #: Apply the star-to-mesh self-loop tightening of Sec. 5.3.
    tighten: bool = True
    #: Size each expansion round by three rules.  Growth: the base batch
    #: is ``max(EXPAND_BATCH, |S| // GROWTH_DIVISOR)``, which keeps the
    #: number of bound refreshes logarithmic in the visited-set size.
    #: Shortfall: Alg. 6 cannot close before ``k`` eligible nodes are
    #: settled, so while fewer are, a round expands at least the missing
    #: count ``k - settled``.  Blockers: after a round whose certificate
    #: a visited rival kept open, a round expands at least as many nodes
    #: as there were eligible boundary nodes whose upper score beat the
    #: k-th lower score (K-dash's pruning rule: only those need exact
    #: work).  Nodes are taken best-first; the extra nodes of the last
    #: two rules are cut before the chosen nodes' unvisited neighbors
    #: outnumber ``max(|S|, MIN_REACH)``, so such a round at most
    #: doubles a ball past ``MIN_REACH`` nodes.  All are capped at
    #: ``MAX_BATCH``.  The paper's C++ implementation expands one node
    #: per iteration; re-solving the bounds after every single expansion
    #: is what a Python reproduction cannot afford.  Exactness is
    #: unaffected (bounds and termination are checked identically); the
    #: only cost is a bounded overshoot in visited nodes.  Set to False
    #: to reproduce the paper's expansion schedule verbatim.
    adaptive_batching: bool = True
    #: Visited-node budget (soft under ``on_budget="degrade"``).
    max_visited: int | None = None
    #: Wall-clock deadline per query, in seconds.  Checked between
    #: expansions, so the overshoot is bounded by one expansion batch
    #: plus one bound refresh — not by the whole search.
    deadline_seconds: float | None = None
    #: What to do when a budget (visited / deadline) is exhausted before
    #: the certificate closes.  ``"raise"`` aborts with
    #: :class:`~repro.errors.BudgetExceededError` /
    #: :class:`~repro.errors.DeadlineExceededError`; ``"degrade"``
    #: returns an *anytime* result — the current best-k by the ranking
    #: midpoint ``ω·(lb+ub)/2`` with ``exact=False``, certified
    #: per-node bounds, and ``stats.termination`` / ``stats.bound_gap``
    #: recording which budget fired and the residual certificate gap.
    on_budget: str = "raise"
    #: Tie tolerance of the termination certificate.  With the default 0
    #: the returned set is strictly exact, but an *exact tie* between the
    #: k-th and (k+1)-th proximity values can only be resolved by
    #: visiting the query's entire component (the bounds must collapse
    #: to the tied values).  A small positive epsilon certifies a top-k
    #: that is exact up to swaps among values closer than epsilon —
    #: the same tolerance regime as the paper's τ-converged ground
    #: truth.  Applies in ranking-score space (PHP-space, possibly
    #: degree-weighted; hitting-time space for THT).
    tie_epsilon: float = 0.0
    #: Runtime certification audit (see :mod:`repro.audit` and
    #: ``docs/correctness.md``).  ``"off"`` (default) adds no work;
    #: ``"record"`` checks every invariant (bound ordering, monotone
    #: bound evolution, local-view state, termination-certificate
    #: replay) after each refresh and attaches the full audit trail to
    #: the result (``result.audit``), one bound snapshot per refresh
    #: (the Figure 4 / Table 3 view); ``"check"`` additionally raises
    #: :class:`~repro.errors.AuditError` on the first violation, at the
    #: iteration that introduced it.
    audit: str = "off"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, k: int | None = None) -> "FLoSOptions":
        """Check every option once, up front.

        Raises :class:`~repro.errors.ConfigurationError` (a
        :class:`~repro.errors.SearchError`) on bad values instead of
        failing deep inside the engine loop.  ``k`` enables the checks
        that relate options to the query (``max_visited >= k``); it is
        supplied by :class:`~repro.core.session.QuerySession` and the
        per-query entry points.  Returns ``self`` for chaining.
        """
        # NaN fails every comparison, so each check is phrased to
        # reject it: a NaN tie tolerance would close Alg. 6 at once, a
        # NaN tau never stops the solver, a NaN deadline never fires.
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigurationError("tau must be positive and finite")
        if not (math.isfinite(self.tie_epsilon) and self.tie_epsilon >= 0):
            raise ConfigurationError(
                "tie_epsilon must be non-negative and finite"
            )
        if self.max_visited is not None:
            if self.max_visited < 1:
                raise ConfigurationError("max_visited must be >= 1")
            if k is not None and self.max_visited < k:
                raise ConfigurationError(
                    f"max_visited ({self.max_visited}) must be >= k ({k}): "
                    "the search can never certify more nodes than it may visit"
                )
        if self.deadline_seconds is not None and not self.deadline_seconds > 0:
            # ``+inf`` passes: it is the "no deadline" value.
            raise ConfigurationError("deadline_seconds must be positive")
        if self.on_budget not in ("raise", "degrade"):
            raise ConfigurationError(
                f"on_budget must be 'raise' or 'degrade', got "
                f"{self.on_budget!r}"
            )
        if self.audit not in ("off", "record", "check"):
            raise ConfigurationError(
                f"audit must be 'off', 'record' or 'check', got "
                f"{self.audit!r}"
            )
        return self


@dataclass
class EngineOutcome:
    """Raw engine output in the model's bound space (PHP space or
    hitting time); wrappers convert to native values."""

    #: The frame the bound vectors are indexed by: the visited set, or
    #: every node after a global finish.
    view: "LocalView | GlobalFrame"
    top_locals: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    exact: bool
    exhausted_component: bool
    stats: SearchStats
    #: Audit trail when ``FLoSOptions.audit != "off"`` (see
    #: :mod:`repro.audit.invariants`).
    audit: "object | None" = None


@dataclass(frozen=True, slots=True)
class Round:
    """One round of Algorithm 2: expand, refresh, certify.

    ``expanded`` holds local ids.  ``lower``/``upper`` are the refresh's
    raw bounds, before the driver's ``min(lower, upper)`` clamp, which
    would hide the bound-order inversions the audit exists to catch.
    ``restored`` counts the adjacency entries the expansion read and
    ``stored`` the entries of the symmetric store each of the refresh's
    ``sweeps`` applied: the round's local work (:meth:`FLoSDriver.run`).
    ``residuals`` is the model's convergence claim: ``None``, or a
    zero-argument callable returning ``(lower_residual, upper_residual,
    tolerance)`` that only the audit calls.  ``blocked`` names the Alg.-6
    check that kept the certificate for ``top`` open (``"unsettled"``:
    fewer than ``k`` eligible settled nodes; ``"rival"``: a visited
    node's upper score; ``"cap"``: the cap on unvisited nodes), ``None``
    once it closed.  ``blockers`` counts, on a ``"rival"`` round, the
    eligible boundary nodes whose upper score is above the bar (0 on
    every other outcome); the next round expands at least that many.
    ``exhausted`` marks the last round, run on an empty boundary, which
    expands nothing.
    """

    expanded: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    dummy_value: float
    sweeps: int
    residuals: Callable[[], tuple[float, float, float]] | None
    top: np.ndarray
    blocked: str | None
    blockers: int
    exhausted: bool
    restored: int
    stored: int


class GlobalFrame:
    """The frame of a global finish: every node, in global ids.

    It stands in for the :class:`~repro.core.localgraph.LocalView` once
    the bounds are the exact values of every node, and answers the reads
    the finish and the session make of a view: every node is visited
    and settled, and the boundary is empty.  Only a ``CSRGraph``, which
    never changes, finishes globally, so no cached result needs its
    visited ball.
    """

    def __init__(self, num_nodes: int, neighbor_queries: int):
        self.size = num_nodes
        self.neighbor_queries = neighbor_queries

    def global_ids(self) -> np.ndarray:
        return np.arange(self.size)

    def settled_mask(self) -> np.ndarray:
        return np.ones(self.size, dtype=bool)

    def boundary_mask(self) -> np.ndarray:
        return np.zeros(self.size, dtype=bool)


class FLoSDriver:
    """The measure-independent FLoS loop (Algorithms 2, 3 and 6).

    The driver owns every step that is the same for all measures: the
    soft-budget schedule, the excluded-locals mask, best-first
    expansion, growing and clamping the bound vectors, the termination
    certificate, the round stream (:meth:`rounds`), the stop rules
    (:meth:`run`) and the one finish (:meth:`_finish`: anytime gap and
    audit seal).  A subclass is a *bound model*: it computes fresh
    bounds after each expansion and exposes them to the driver in one
    orientation, where larger means closer.

    * :meth:`_refresh` — Algorithms 4 and 5 (or their THT analogue):
      returns raw ``(lb, ub, sweeps, residuals)``, where a sweep touches
      every visited row once and ``residuals`` is the convergence claim
      of :class:`Round`.  ``boundary`` is ``δS`` *before* this round's
      expansion, which the PHP-space dummy of Alg. 5 line 7 reads.
    * :meth:`_ranking_bounds` — ``(lo, hi)`` ranking scores bracketing
      each visited node.
    * :meth:`_expansion_scores` — the best-first key of Algorithm 3.
    * :meth:`_unvisited_cap` — an upper bound on the ranking score of
      every unvisited node, given the current boundary.
    * :meth:`_global_cost` and :meth:`_global_solve` — optional: the
      exact values of every node and their cost, for the global finish
      (:meth:`run`).

    Deadlines are measured on ``time.monotonic()`` — the contract for
    every deadline check in this library.  A wall-clock source
    (``time.time()``) can jump under NTP adjustment and fire a deadline
    early or never, and mixing clock sources between the session layer
    and the engines would make per-call deadline accounting
    inconsistent.
    """

    def __init__(
        self,
        graph: GraphAccess,
        query: int,
        k: int,
        *,
        options: FLoSOptions,
        exclude: frozenset[int],
        trivial: tuple[float, float],
        query_value: float,
        track_tightening: bool,
        audit_slack: float,
    ):
        if k < 1:
            raise SearchError("k must be >= 1")
        self.graph = graph
        self.query = query
        self.k = k
        self.options = options
        # Excluded nodes still participate in the walk structure and the
        # bounds (excluding them from the *graph* would change every
        # proximity); they are only barred from the answer set K.
        self.exclude = exclude
        # Bounds of a freshly visited node, before any refresh.
        self._trivial = trivial
        # The value the recorded dummy column carries; the PHP-space
        # model lowers it as the search proceeds (Alg. 5 line 7).
        self._dummy_value = trivial[1]
        self._query_value = query_value

        self.view = LocalView(graph, query, track_tightening=track_tightening)
        # The query is local id 0, with a constant value by definition
        # (PHP 1, hitting time 0; Sec. 3.2).
        self._lb = np.array([query_value])
        self._ub = np.array([query_value])
        # Ineligible-locals mask (the query, local 0, and the excluded
        # nodes), extended as nodes are visited, so the termination
        # check never rescans the whole visited set.
        self._ineligible = np.array([True])
        # Eligible settled nodes and boundary blockers as of the last
        # termination check (the query itself is never eligible).
        self._settled = 0
        self._blockers = 0
        self.stats = SearchStats()
        # Lazy import keeps audit="off" runs free of the audit package
        # (and avoids a core <-> audit import cycle at module load).
        self._auditor = None
        if self.options.audit != "off":
            from repro.audit.trace import AuditRecorder

            self._auditor = AuditRecorder(
                mode=self.options.audit,
                monotone_slack=audit_slack,
                order_slack=audit_slack,
                context=f"{type(self).__name__} (query={query}, k={k})",
            )

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------

    def run(self) -> EngineOutcome:
        """Execute Algorithm 2 until the top-k set is certified.

        Consumes :meth:`rounds`, feeds each to the audit, and stops on
        the first rule that fires, in this order: the component is
        exhausted, the visited budget is exceeded, the certificate
        closed, the deadline passed, the local work reached the cost of
        the model's global solve.  Budgets are checked after the
        round's refresh, so a degraded result carries solved bounds, and
        only once the query's neighborhood is in the view.

        The last rule is ski rental.  Each round's work is the entries
        it restored, weighted by :data:`RESTORE_WEIGHT`, plus its sweeps
        times the entries of the store they applied, plus
        :data:`ROUND_CHARGE`; once the sum reaches the global solve's
        cost (:meth:`_switch_budget`), the search finishes globally
        (:meth:`_global_finish`).  A search whose certificate closes
        first never pays for the global solve, and one that switches
        pays at most about twice the cheaper path, plus one round.
        """
        opts = self.options
        started = time.monotonic()
        budget = self._switch_budget()
        work = 0
        for step in self.rounds():
            if self._auditor is not None:
                self._auditor.observe(step, self.view)
            if step.exhausted:
                # Component fully visited: the bounds are its τ-solution.
                return self._finish(step.top, "exact")
            if (
                opts.max_visited is not None
                and self.view.size > opts.max_visited
            ):
                if opts.on_budget == "raise":
                    raise BudgetExceededError(self.view.size, opts.max_visited)
                return self._finish(None, "visited_budget")
            if step.blocked is None:
                return self._finish(step.top, "exact")
            if opts.deadline_seconds is not None:
                elapsed = time.monotonic() - started
                if elapsed >= opts.deadline_seconds:
                    if opts.on_budget == "raise":
                        raise DeadlineExceededError(
                            elapsed, opts.deadline_seconds
                        )
                    return self._finish(None, "deadline")
            if budget is not None:
                work += RESTORE_WEIGHT * step.restored + ROUND_CHARGE
                work += step.sweeps * step.stored
                if work >= budget:
                    return self._global_finish()

    def rounds(self) -> Iterator[Round]:
        """Algorithm 2 as a stream of :class:`Round` records.

        Each round expands, refreshes and clamps the bounds, evaluates
        Alg. 6 and yields; stop rules are the consumer's (:meth:`run`).
        Once the boundary is empty the dummy mass is zero and both bound
        systems coincide: that round expands nothing and ends the stream.
        """
        while True:
            boundary = np.flatnonzero(self.view.boundary_mask())
            exhausted = len(boundary) == 0
            expanded = boundary
            restored = self.view.restored_entries
            if not exhausted:
                expanded = self._select_expansion(boundary)
                self._expand(expanded)
            restored = self.view.restored_entries - restored
            lb, ub, sweeps, residuals = self._refresh(boundary)
            self.stats.solver_iterations += sweeps
            self.stats.rows_swept += self.view.size * sweeps
            # Both bounds sandwich one fixed point: clamp off solver noise
            # into fresh arrays, so the record keeps the raw ones.  The
            # query's value is a constant by definition.
            self._lb, self._ub = np.minimum(lb, ub), ub.copy()
            self._lb[0] = self._ub[0] = self._query_value
            top, blocked = self._certify()
            yield Round(
                expanded=expanded, lower=lb, upper=ub,
                dummy_value=self._dummy_value, sweeps=sweeps,
                residuals=residuals, top=top, blocked=blocked,
                blockers=self._blockers, exhausted=exhausted,
                restored=restored, stored=self.view.stored_entries,
            )
            if exhausted:
                return

    # ------------------------------------------------------------------
    # Algorithm 3 — LocalExpansion
    # ------------------------------------------------------------------

    def _round_batches(self, size: int) -> tuple[int, int]:
        """``(base, batch)`` of a round over ``size`` visited nodes.

        ``base`` is the growth rule; ``batch`` also covers the settle
        shortfall and the last check's blockers.  The paper's schedule
        expands ``EXPAND_BATCH``.
        """
        if not self.options.adaptive_batching:
            return EXPAND_BATCH, EXPAND_BATCH
        base = min(max(EXPAND_BATCH, size // GROWTH_DIVISOR), MAX_BATCH)
        # Alg. 6 cannot close before k eligible nodes are settled, nor
        # while a boundary node's upper score beats the bar: expand at
        # least as many boundary nodes as are missing or blocking.
        need = max(base, self.k - self._settled, self._blockers)
        return base, min(need, MAX_BATCH)

    def _select_expansion(self, boundary: np.ndarray) -> np.ndarray:
        size = self.view.size
        base, batch = self._round_batches(size)
        batch = min(batch, len(boundary))
        scores = self._expansion_scores()[boundary]
        if batch < len(boundary):
            # Pre-select the batch best with argpartition, then order the
            # small batch deterministically (score desc, local id asc).
            part = np.argpartition(-scores, batch - 1)[:batch]
            boundary, scores = boundary[part], scores[part]
        chosen = boundary[np.lexsort((boundary, -scores))]
        if batch > base:
            # Cap the extra nodes so the round at most doubles a ball
            # past MIN_REACH: keep them only while the chosen nodes'
            # unvisited neighbors (an over-count of the new nodes)
            # number <= max(|S|, MIN_REACH).
            reach = np.cumsum(self.view.unvisited_counts()[chosen])
            limit = max(size, MIN_REACH)
            keep = int(np.searchsorted(reach, limit, side="right"))
            chosen = chosen[: max(base, keep)]
        return chosen

    def _expand(self, locals_: np.ndarray) -> None:
        newly = self.view.expand_batch(locals_)
        self.stats.expansions += len(locals_)
        grow = self.view.size - len(self._lb)
        if grow > 0:
            # Algorithm 4 line 3 / Algorithm 5 line 5: fresh nodes start
            # at the model's trivial bounds.
            lo, hi = self._trivial
            self._lb = np.concatenate([self._lb, np.full(grow, lo)])
            self._ub = np.concatenate([self._ub, np.full(grow, hi)])
            self._ineligible = np.concatenate(
                [
                    self._ineligible,
                    np.fromiter(
                        (gid in self.exclude for gid in newly),
                        dtype=bool,
                        count=grow,
                    )
                    if self.exclude
                    else np.zeros(grow, dtype=bool),
                ]
            )

    # ------------------------------------------------------------------
    # Algorithm 6 — CheckTerminationCriteria
    # ------------------------------------------------------------------

    def _eligible_mask(self, base: np.ndarray | None = None) -> np.ndarray:
        """``base`` (default: every visited node) minus the query and the
        excluded nodes."""
        if base is None:
            return ~self._ineligible
        return base & ~self._ineligible

    def _top(self, candidates: np.ndarray, score: np.ndarray) -> np.ndarray:
        """The ``k`` of ``candidates`` (local ids) with the largest
        ``score``, best first.

        Ties break by *global* node id: local ids reflect visitation
        order, which depends on the expansion schedule, so breaking score
        ties on them would let the returned set at an exact rank-k tie
        depend on the schedule.
        """
        gids = self.view.global_ids()
        return candidates[
            top_k_indices(score[candidates], gids[candidates], self.k)
        ]

    def _rival(self, top: np.ndarray, hi: np.ndarray) -> float | None:
        """Best upper score of a visited node that could displace a
        member of ``top`` (excluded nodes cannot); ``None`` if none."""
        others = self._eligible_mask()
        others[top] = False
        return float(hi[others].max()) if others.any() else None

    def _cap(self) -> float | None:
        """The model's cap on every unvisited node (Corollary 1, Sec.
        5.6, Lemma 7); ``None`` once the boundary is empty.

        A settled top-k puts every eligible boundary node among the
        visited rivals, but an *excluded* boundary node is no rival and
        still leads to unvisited ones, so the cap always counts.
        """
        boundary = np.flatnonzero(self.view.boundary_mask())
        return self._unvisited_cap(boundary) if len(boundary) else None

    def _certify(self) -> tuple[np.ndarray, str | None]:
        """Alg. 6: ``(top, blocked)`` of :class:`Round`.

        ``top`` is the best ``k`` eligible settled nodes by lower score.
        The certificate closes when the k-th lower score plus
        ``tie_epsilon`` (the bar) clears the best visited rival, then the
        unvisited cap; the first check that blocks decides, so the cap is
        read only when no visited rival blocks.
        """
        candidates = np.flatnonzero(
            self._eligible_mask(self.view.settled_mask())
        )
        # The next round's shortfall and blockers (:meth:`_round_batches`).
        self._settled = len(candidates)
        self._blockers = 0
        lo, hi = self._ranking_bounds()
        top = self._top(candidates, lo)
        if len(candidates) < self.k:
            return top, "unsettled"
        bar = float(lo[top].min()) + self.options.tie_epsilon
        rival = self._rival(top, hi)
        if rival is not None and rival > bar:
            blockers = self._eligible_mask(self.view.boundary_mask())
            self._blockers = int(np.count_nonzero(blockers & (hi > bar)))
            return top, "rival"
        cap = self._cap()
        if cap is not None and cap > bar:
            return top, "cap"
        return top, None

    # ------------------------------------------------------------------
    # The global finish (ski rental)
    # ------------------------------------------------------------------

    def _global_cost(self) -> int | None:
        """Cost of :meth:`_global_solve` in entries of a global CSR
        product, or ``None``: a model without a global solve keeps this
        and never switches."""
        return None

    def _switch_budget(self) -> int | None:
        """The local work at which :meth:`run` switches to the global
        finish, or ``None`` when this search never switches.

        It never switches without a global solve, under the paper's
        schedule (``adaptive_batching=False``, run verbatim), or under a
        visited budget smaller than the graph, which a global finish
        would exceed.
        """
        opts = self.options
        if not opts.adaptive_batching or (
            opts.max_visited is not None
            and opts.max_visited < self.graph.num_nodes
        ):
            return None
        return self._global_cost()

    def _global_finish(self) -> EngineOutcome:
        """Finish with the exact values of every node.

        The model's global solve replaces the local bounds (under the
        audit, every visited node's certified ``[lb, ub]`` must contain
        its global value), the frame becomes the whole graph
        (:class:`GlobalFrame`) and the answer is the best ``k`` eligible
        nodes of the query's connected component, the only nodes the
        local search could ever have returned.
        """
        values, sweeps = self._global_solve()
        n = len(values)
        if self._auditor is not None:
            gids = self.view.global_ids()
            self._auditor.bracket(self._lb, self._ub, values[gids], gids)
        self.stats.solver_iterations += sweeps
        self.stats.rows_swept += n * sweeps
        self.stats.global_finish = True
        labels = self.graph.component_labels()
        ineligible = labels != labels[self.query]
        ineligible[self.query] = True
        barred = np.array(sorted(self.exclude), dtype=np.int64)
        ineligible[barred[(barred >= 0) & (barred < n)]] = True
        self.view = GlobalFrame(n, self.view.neighbor_queries)
        self._lb = self._ub = values
        self._ineligible = ineligible
        lo, _hi = self._ranking_bounds()
        top = self._top(np.flatnonzero(~ineligible), lo)
        return self._finish(top, "exact")

    # ------------------------------------------------------------------
    # The finish
    # ------------------------------------------------------------------

    def _finish(
        self, top: np.ndarray | None, termination: str
    ) -> EngineOutcome:
        """Build the outcome, compute the anytime gap, seal the audit.

        ``top=None`` (a soft budget fired) returns the best-k by ranking
        midpoint with ``exact=False``: its bounds stay certified
        (Theorems 3 and 5 hold for every visited set), and
        ``stats.bound_gap`` is how far the best rival, visited or
        unvisited (the cap), still overlaps the k-th lower score.
        """
        exact = termination == "exact"
        lo, hi = self._ranking_bounds()
        if top is None:
            top = self._top(
                np.flatnonzero(self._eligible_mask()), 0.5 * (lo + hi)
            )
        cap = self._cap() if not exact or self._auditor is not None else None
        if not exact and len(top):
            kth, rival = float(lo[top].min()), self._rival(top, hi)
            self.stats.bound_gap = max(
                [0.0] + [v - kth for v in (rival, cap) if v is not None]
            )
        self.stats.termination = termination
        self.stats.visited_nodes = self.view.size
        self.stats.neighbor_queries = self.view.neighbor_queries
        outcome = EngineOutcome(
            view=self.view,
            top_locals=top,
            lower=self._lb.copy(),
            upper=np.maximum(self._lb, self._ub),
            exact=exact,
            # Only an exhausted component certifies fewer than k nodes.
            exhausted_component=exact and len(top) < self.k,
            stats=self.stats,
        )
        if self._auditor is not None:
            from repro.audit.invariants import CertificateRecord

            outcome.audit = self._auditor.seal(
                CertificateRecord(
                    k=self.k,
                    tie_epsilon=self.options.tie_epsilon,
                    exact=exact,
                    exhausted=outcome.exhausted_component,
                    termination=termination,
                    bound_gap=self.stats.bound_gap,
                    top=np.array(top, dtype=np.int64),
                    lb_score=np.array(lo, dtype=np.float64),
                    ub_score=np.array(hi, dtype=np.float64),
                    eligible=self._eligible_mask(),
                    settled=self.view.settled_mask().copy(),
                    boundary=self.view.boundary_mask().copy(),
                    unvisited_cap=cap,
                )
            )
            self.stats.audit_checks = self._auditor.checks
            self.stats.audit_violations = len(self._auditor.violations)
        return outcome


class PHPSpaceEngine(FLoSDriver):
    """FLoS over the PHP recursion ``r = decay · T r + e_q``."""

    def __init__(
        self,
        graph: GraphAccess,
        query: int,
        k: int,
        *,
        decay: float,
        degree_weighted: bool = False,
        unvisited_degree_bound=None,
        options: FLoSOptions | None = None,
        exclude: frozenset[int] = frozenset(),
    ):
        if not 0.0 < decay < 1.0:
            raise SearchError("decay must lie in (0, 1)")
        options = options or FLoSOptions()
        self.decay = decay
        self.degree_weighted = degree_weighted
        self._unvisited_degree_bound = unvisited_degree_bound
        super().__init__(
            graph,
            query,
            k,
            options=options,
            exclude=exclude,
            trivial=(0.0, 1.0),
            query_value=1.0,
            track_tightening=options.tighten,
            # Each refresh stops on a tau update norm, leaving bounds
            # within tau/(1-decay) of their fixed point (contraction);
            # two consecutive refreshes can therefore disagree by twice
            # that without any invariant being violated.
            audit_slack=2.0 * options.tau / (1.0 - decay) + 1e-12,
        )
        self._kernel = DualBoundKernel(self.view, decay)

    # Bound here, not only inherited, so each model class has its own
    # ``run`` entry that per-class wrappers (e.g. span tracers) can swap.
    run = FLoSDriver.run

    def _expansion_scores(self) -> np.ndarray:
        # Algorithm 3: the ranking midpoint ω_i (lb_i + ub_i) / 2.
        mid = 0.5 * (self._lb + self._ub)
        if self.degree_weighted:
            return mid * self.view.degrees_array()
        return mid

    def _ranking_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper bounds in ranking-score space (``ω·lb``, ``ω·ub``)."""
        if self.degree_weighted:
            weights = self.view.degrees_array()
            return self._lb * weights, self._ub * weights
        return self._lb, self._ub

    def _unvisited_cap(self, boundary: np.ndarray) -> float:
        # Corollary 1: every unvisited node's PHP is at most the largest
        # boundary upper bound.  Sec. 5.6 weights it for RWR:
        # w_i PHP(i) ≤ w(S̄) · max_{δS} ub.
        ub_max = float(self._ub[boundary].max())
        if not self.degree_weighted:
            return ub_max
        if self._unvisited_degree_bound is not None:
            w_out = float(self._unvisited_degree_bound(self.view))
        else:
            w_out = float(self.graph.max_degree)
        return w_out * ub_max

    # ------------------------------------------------------------------
    # Algorithms 4, 5 — bound refresh
    # ------------------------------------------------------------------

    def _refresh(self, boundary: np.ndarray):
        opts = self.options
        # r_d^t = max upper bound on the boundary of the *previous*
        # iteration (Algorithm 5 line 7); monotone non-increasing.
        if len(boundary):
            self._dummy_value = min(
                self._dummy_value, float(self._ub[boundary].max())
            )
        m = self.view.size
        e_lower = np.zeros(m)
        e_lower[0] = 1.0  # e_q: the query is local id 0

        if opts.tighten:
            loop_locals, loop_probs, tight_mass = self.view.self_loop_terms(
                self.decay
            )
            diag = np.zeros(m)
            diag[loop_locals] = self.decay * loop_probs
            dummy_probs = np.zeros(m)
            dummy_probs[loop_locals] = tight_mass
        else:
            diag = None
            dummy_probs = self.view.dummy_mass()

        e_upper = e_lower + self.decay * dummy_probs * self._dummy_value

        lb, ub, sweeps = self._kernel.refresh(
            self._lb, self._ub, diag, e_lower, e_upper, tau=opts.tau
        )

        def residuals() -> tuple[float, float, float]:
            # The convergence claim, checked by an independent operator
            # application: a tau-stopped solve leaves at most decay * tau.
            res_lb, res_ub = self._kernel.residual_norms(
                lb, ub, diag, e_lower, e_upper
            )
            return res_lb, res_ub, opts.tau * (1.0 + self.decay) + 1e-12

        return lb, ub, sweeps, residuals
