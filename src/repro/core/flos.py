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

Loop structure per iteration ``t`` (Algorithm 2):

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
   cap on unvisited nodes.

Optionally both bounds are tightened with star-to-mesh self-loops
(Sec. 5.3, Lemmas 3–4); ``FLoSOptions.tighten`` controls this and the
ablation benchmark measures its effect.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels import DualBoundKernel
from repro.core.localgraph import LocalView
from repro.core.result import IterationSnapshot, SearchStats
from repro.nputil import top_k_indices
from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    DeadlineExceededError,
    IterationBudgetError,
    SearchError,
)
from repro.graph.base import GraphAccess


@dataclass(frozen=True)
class FLoSOptions:
    """Tuning knobs of the FLoS engines.

    Defaults follow the paper's experimental setup (Sec. 6.1–6.2) —
    ``tau = 1e-5``, self-loop tightening on — except the expansion
    schedule: the paper expands one node per iteration, while the
    default ``adaptive_batching=True`` sizes each round by the visited
    set and by the Alg.-6 settle shortfall (see ``adaptive_batching``).
    ``adaptive_batching=False`` restores the single-node schedule.
    """

    #: Termination threshold of the inner Jacobi solver (Algorithm 7).
    tau: float = 1e-5
    #: Apply the star-to-mesh self-loop tightening of Sec. 5.3.
    tighten: bool = True
    #: Number of boundary nodes expanded per iteration (paper: 1).
    #: Larger batches trade extra visited nodes for fewer bound solves.
    expand_batch: int = 1
    #: Size each expansion round by two rules.  Growth: the base batch is
    #: ``max(expand_batch, |S| // adaptive_divisor)``, which keeps the
    #: number of bound refreshes logarithmic in the visited-set size.
    #: Shortfall: Alg. 6 cannot close before ``k`` eligible nodes are
    #: settled, so while fewer are, a round expands at least the missing
    #: count ``k - settled``; the extra nodes are cut before the chosen
    #: nodes' unvisited neighbors outnumber ``|S|``, so such a round at
    #: most doubles the ball.  Both are capped at ``max_batch``.  The
    #: paper's C++ implementation expands one node per iteration;
    #: re-solving the bounds after every single expansion is what a
    #: Python reproduction cannot afford.  Exactness is unaffected
    #: (bounds and termination are checked identically); the only cost
    #: is a bounded overshoot in visited nodes.  Set to False to
    #: reproduce the paper's expansion schedule verbatim.
    adaptive_batching: bool = True
    #: Divisor of the adaptive schedule; smaller = more aggressive.
    adaptive_divisor: int = 24
    #: Upper limit on one iteration's expansion batch.
    max_batch: int = 4096
    #: Visited-node budget (soft under ``on_budget="degrade"``).
    max_visited: int | None = None
    #: Outer expansion-iteration budget (soft under ``on_budget="degrade"``).
    max_iterations: int | None = None
    #: Wall-clock deadline per query, in seconds.  Checked between
    #: expansions, so the overshoot is bounded by one expansion batch
    #: plus one bound refresh — not by the whole search.
    deadline_seconds: float | None = None
    #: What to do when a budget (visited / iteration / deadline) is
    #: exhausted before the certificate closes.  ``"raise"`` aborts with
    #: :class:`~repro.errors.BudgetExceededError` /
    #: :class:`~repro.errors.IterationBudgetError` /
    #: :class:`~repro.errors.DeadlineExceededError`; ``"degrade"``
    #: returns an *anytime* result — the current best-k by the ranking
    #: midpoint ``ω·(lb+ub)/2`` with ``exact=False``, certified
    #: per-node bounds, and ``stats.termination`` / ``stats.bound_gap``
    #: recording which budget fired and the residual certificate gap.
    on_budget: str = "raise"
    #: Inner-solver iteration cap.
    max_inner_iterations: int = 10_000
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
    #: Record per-iteration bound snapshots (Figure 4).
    record_trace: bool = False
    #: Runtime certification audit (see :mod:`repro.audit` and
    #: ``docs/correctness.md``).  ``"off"`` (default) adds no work;
    #: ``"record"`` checks every invariant (bound ordering, monotone
    #: bound evolution, local-view state, termination-certificate
    #: replay) after each refresh and attaches the full audit trail to
    #: the result (``result.audit``); ``"check"`` additionally raises
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
        if self.tau <= 0:
            raise ConfigurationError("tau must be positive")
        if self.expand_batch < 1:
            raise ConfigurationError("expand_batch must be >= 1")
        if self.adaptive_divisor < 1:
            raise ConfigurationError("adaptive_divisor must be >= 1")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.tie_epsilon < 0:
            raise ConfigurationError("tie_epsilon must be non-negative")
        if self.max_visited is not None:
            if self.max_visited < 1:
                raise ConfigurationError("max_visited must be >= 1")
            if k is not None and self.max_visited < k:
                raise ConfigurationError(
                    f"max_visited ({self.max_visited}) must be >= k ({k}): "
                    "the search can never certify more nodes than it may visit"
                )
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError("deadline_seconds must be positive")
        if self.on_budget not in ("raise", "degrade"):
            raise ConfigurationError(
                f"on_budget must be 'raise' or 'degrade', got "
                f"{self.on_budget!r}"
            )
        if self.max_inner_iterations < 1:
            raise ConfigurationError("max_inner_iterations must be >= 1")
        if self.audit not in ("off", "record", "check"):
            raise ConfigurationError(
                f"audit must be 'off', 'record' or 'check', got "
                f"{self.audit!r}"
            )
        return self

    def batch_size(self, visited: int) -> int:
        """Expansion batch for the current visited-set size."""
        if not self.adaptive_batching:
            return self.expand_batch
        return min(
            max(self.expand_batch, visited // self.adaptive_divisor),
            self.max_batch,
        )


@dataclass
class EngineOutcome:
    """Raw engine output in the model's bound space (PHP space or
    hitting time); wrappers convert to native values."""

    view: LocalView
    top_locals: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    exact: bool
    exhausted_component: bool
    stats: SearchStats
    trace: list[IterationSnapshot] = field(default_factory=list)
    #: Audit trail when ``FLoSOptions.audit != "off"`` (see
    #: :mod:`repro.audit.invariants`).
    audit: "object | None" = None


class FLoSDriver:
    """The measure-independent FLoS loop (Algorithms 2, 3 and 6).

    The driver owns every step that is the same for all measures: the
    soft-budget schedule, the excluded-locals mask, best-first
    expansion, growing the bound vectors, the termination certificate,
    the anytime and exhausted-component finalizers, the audit seal and
    the per-iteration trace.  A subclass is a *bound
    model*: it refreshes ``self._lb`` / ``self._ub`` after each
    expansion and exposes them to the driver in one orientation, where
    larger means closer.

    * :meth:`_refresh` — Algorithms 4 and 5 (or their THT analogue).
      ``boundary`` is ``δS`` *before* this round's expansion, which the
      PHP-space dummy of Alg. 5 line 7 reads.
    * :meth:`_ranking_bounds` — ``(lo, hi)`` ranking scores bracketing
      each visited node.
    * :meth:`_expansion_scores` — the best-first key of Algorithm 3.
    * :meth:`_unvisited_cap` — an upper bound on the ranking score of
      every unvisited node, given the current boundary.

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

        self.view = LocalView(graph, query, track_tightening=track_tightening)
        # The query is local id 0, with a constant value by definition
        # (PHP 1, hitting time 0; Sec. 3.2).
        self._lb = np.array([query_value])
        self._ub = np.array([query_value])
        # Excluded-locals mask, extended as nodes are visited, so the
        # termination check never rescans the whole visited set.
        self._excluded = np.array([query in exclude])
        # Eligible settled nodes as of the last termination check (the
        # query itself is never eligible).
        self._settled = 0
        self.stats = SearchStats()
        self.trace: list[IterationSnapshot] = []
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

        Budgets (``max_visited``, ``max_iterations``,
        ``deadline_seconds``) are checked once per expansion round.  The
        deadline and iteration budgets are checked at the *top* of the
        loop — right after the previous round's bound refresh, so the
        anytime bounds returned under ``on_budget="degrade"`` are
        current without extra work; the visited budget is checked right
        after expansion, followed by one bound refresh so the freshly
        discovered nodes carry solved rather than trivial bounds.  The
        first round always runs, guaranteeing the query's neighborhood
        is in the view before any degraded result is assembled.
        """
        opts = self.options
        self._started = time.monotonic()
        iteration = 0
        while True:
            iteration += 1
            if iteration > 1:
                reason = self._budget_reason(iteration)
                if reason is not None:
                    if opts.on_budget == "raise":
                        self._raise_budget(reason, iteration)
                    return self._finalize_degraded(reason, iteration)

            boundary = np.flatnonzero(self.view.boundary_mask())
            if len(boundary) == 0:
                # The query's component is fully visited: bounds coincide
                # with the exact (τ-converged) solution on the component.
                return self._finalize_exhausted(iteration, boundary)
            expanded = self._select_expansion(boundary)
            newly = self._expand(expanded)
            if (
                opts.max_visited is not None
                and self.view.size > opts.max_visited
            ):
                if opts.on_budget == "raise":
                    raise BudgetExceededError(self.view.size, opts.max_visited)
                self._refresh(boundary)
                return self._finalize_degraded("visited_budget", iteration)

            self._refresh(boundary)
            done, top_locals = self._check_termination()
            if opts.record_trace:
                self._record(iteration, expanded, newly, done)
            if done:
                return self._outcome(top_locals, exact=True)

    def _budget_reason(self, iteration: int) -> str | None:
        """Budget exhausted before this iteration may start, or ``None``."""
        opts = self.options
        if (
            opts.max_iterations is not None
            and iteration > opts.max_iterations
        ):
            return "iteration_budget"
        if (
            opts.deadline_seconds is not None
            and time.monotonic() - self._started >= opts.deadline_seconds
        ):
            return "deadline"
        return None

    def _raise_budget(self, reason: str, iteration: int) -> None:
        opts = self.options
        if reason == "iteration_budget":
            raise IterationBudgetError(iteration - 1, opts.max_iterations)
        raise DeadlineExceededError(
            time.monotonic() - self._started, opts.deadline_seconds
        )

    # ------------------------------------------------------------------
    # Algorithm 3 — LocalExpansion
    # ------------------------------------------------------------------

    def _select_expansion(self, boundary: np.ndarray) -> np.ndarray:
        opts = self.options
        size = self.view.size
        base = opts.batch_size(size)
        batch = base
        if opts.adaptive_batching:
            # Settle-shortfall round: Alg. 6 cannot close before k
            # eligible nodes are settled, so expand at least as many
            # boundary nodes as are still missing.
            batch = min(max(base, self.k - self._settled), opts.max_batch)
        batch = min(batch, len(boundary))
        scores = self._expansion_scores()[boundary]
        if batch < len(boundary):
            # Pre-select the batch best with argpartition, then order the
            # small batch deterministically (score desc, local id asc).
            part = np.argpartition(-scores, batch - 1)[:batch]
            boundary, scores = boundary[part], scores[part]
        chosen = boundary[np.lexsort((boundary, -scores))]
        if batch > base:
            # Cap the shortfall's extra nodes so the round at most doubles
            # the ball: keep them only while the chosen nodes' unvisited
            # neighbors (an over-count of the new nodes) number <= |S|.
            reach = np.cumsum(self.view.unvisited_counts()[chosen])
            keep = int(np.searchsorted(reach, size, side="right"))
            chosen = chosen[: max(base, keep)]
        return chosen

    def _expand(self, locals_: np.ndarray) -> list[int]:
        newly = self.view.expand_batch(locals_)
        self.stats.expansions += len(locals_)
        grow = self.view.size - len(self._lb)
        if grow > 0:
            # Algorithm 4 line 3 / Algorithm 5 line 5: fresh nodes start
            # at the model's trivial bounds.
            lo, hi = self._trivial
            self._lb = np.concatenate([self._lb, np.full(grow, lo)])
            self._ub = np.concatenate([self._ub, np.full(grow, hi)])
            self._excluded = np.concatenate(
                [
                    self._excluded,
                    np.fromiter(
                        (gid in self.exclude for gid in newly),
                        dtype=bool,
                        count=grow,
                    )
                    if self.exclude
                    else np.zeros(grow, dtype=bool),
                ]
            )
        return newly

    # ------------------------------------------------------------------
    # Algorithm 6 — CheckTerminationCriteria
    # ------------------------------------------------------------------

    def _eligible_mask(self, base: np.ndarray) -> np.ndarray:
        mask = base.copy()
        mask[0] = False  # the query itself
        if self.exclude:
            mask &= ~self._excluded
        return mask

    def _rivals(self, top: np.ndarray) -> np.ndarray:
        """Visited nodes that could still displace a member of ``top`` —
        excluded nodes cannot, by definition of the query."""
        others = self._eligible_mask(np.ones(self.view.size, dtype=bool))
        others[top] = False
        return np.flatnonzero(others)

    def _check_termination(self) -> tuple[bool, np.ndarray]:
        settled = self._eligible_mask(self.view.settled_mask())
        candidates = np.flatnonzero(settled)
        # The next round's shortfall (:meth:`_select_expansion`).
        self._settled = len(candidates)
        if len(candidates) < self.k:
            return False, candidates

        lo, hi = self._ranking_bounds()
        # Deterministic tie-breaking by *global* node id: local ids
        # reflect visitation order, which depends on the expansion
        # schedule, so breaking score ties on them would let the
        # returned set at an exact rank-k tie depend on the schedule.
        gids = self.view.global_ids()
        top = candidates[
            top_k_indices(lo[candidates], gids[candidates], self.k)
        ]
        min_top = float(lo[top].min()) + self.options.tie_epsilon

        rest = self._rivals(top)
        if len(rest) and float(hi[rest].max()) > min_top:
            return False, top
        # Unvisited rivals are reached only through the boundary.  The
        # settled top-k puts every eligible boundary node among the
        # rivals above, but an *excluded* boundary node is no rival and
        # still leads to unvisited ones — so the model's cap (Corollary
        # 1, Sec. 5.6, Lemma 7) is always checked.
        boundary = np.flatnonzero(self.view.boundary_mask())
        if len(boundary) and self._unvisited_cap(boundary) > min_top:
            return False, top
        return True, top

    # ------------------------------------------------------------------
    # Finalizers
    # ------------------------------------------------------------------

    def _finalize_degraded(self, reason: str, iteration: int) -> EngineOutcome:
        """Assemble the anytime result after a soft budget fired.

        The current best-k by the ranking midpoint ``(lo + hi) / 2`` is
        returned with ``exact=False``.  The per-node bounds stay
        certified — Theorems 3 and 5 hold for *every* visited set, not
        only the final one — and ``stats.bound_gap`` records how far the
        best rival (visited, or unvisited via the model's cap) still
        overlaps the k-th returned lower score (0 means the certificate
        closed and the result is exact in all but name).
        """
        lo, hi = self._ranking_bounds()
        eligible = np.flatnonzero(
            self._eligible_mask(np.ones(self.view.size, dtype=bool))
        )
        mid = 0.5 * (lo + hi)
        gids = self.view.global_ids()
        top = eligible[
            top_k_indices(mid[eligible], gids[eligible], self.k)
        ]

        gap = 0.0
        if len(top):
            min_top = float(lo[top].min())
            rest = self._rivals(top)
            if len(rest):
                gap = float(hi[rest].max()) - min_top
            boundary = np.flatnonzero(self.view.boundary_mask())
            if len(boundary):
                gap = max(gap, self._unvisited_cap(boundary) - min_top)
            gap = max(0.0, gap)

        self.stats.termination = reason
        self.stats.bound_gap = gap
        if self.options.record_trace:
            self._record(iteration, np.empty(0, np.int64), [], True)
        return self._outcome(top, exact=False)

    def _finalize_exhausted(
        self, iteration: int, boundary: np.ndarray
    ) -> EngineOutcome:
        # No boundary left: the dummy mass is zero everywhere, so lower
        # and upper systems coincide; refresh once more and rank.
        self._refresh(boundary)
        lo, _ = self._ranking_bounds()
        candidates = np.flatnonzero(
            self._eligible_mask(np.ones(self.view.size, dtype=bool))
        )
        gids = self.view.global_ids()
        top = candidates[
            top_k_indices(lo[candidates], gids[candidates], self.k)
        ]
        if self.options.record_trace:
            self._record(iteration, np.empty(0, np.int64), [], True)
        return self._outcome(top, exact=True, exhausted=len(top) < self.k)

    def _outcome(
        self, top: np.ndarray, *, exact: bool, exhausted: bool = False
    ) -> EngineOutcome:
        self.stats.visited_nodes = self.view.size
        self.stats.neighbor_queries = self.view.neighbor_queries
        outcome = EngineOutcome(
            view=self.view,
            top_locals=top,
            lower=self._lb.copy(),
            upper=np.maximum(self._lb, self._ub),
            exact=exact,
            exhausted_component=exhausted,
            stats=self.stats,
            trace=self.trace,
        )
        self._seal_audit(outcome)
        return outcome

    # ------------------------------------------------------------------
    # Audit hooks (no-ops when ``FLoSOptions.audit == "off"``)
    # ------------------------------------------------------------------

    def _seal_audit(self, outcome: EngineOutcome) -> None:
        """Replay the termination certificate and attach the audit trail."""
        if self._auditor is None:
            return
        from repro.audit.invariants import CertificateRecord

        lo, hi = self._ranking_bounds()
        boundary = self.view.boundary_mask()
        self._auditor.on_certificate(
            CertificateRecord(
                k=self.k,
                tie_epsilon=self.options.tie_epsilon,
                exact=outcome.exact,
                exhausted=outcome.exhausted_component,
                termination=self.stats.termination,
                bound_gap=self.stats.bound_gap,
                top=np.asarray(outcome.top_locals, dtype=np.int64).copy(),
                lb_score=np.array(lo, dtype=np.float64),
                ub_score=np.array(hi, dtype=np.float64),
                eligible=self._eligible_mask(
                    np.ones(self.view.size, dtype=bool)
                ),
                settled=self.view.settled_mask().copy(),
                boundary=boundary.copy(),
                unvisited_cap=(
                    self._unvisited_cap(np.flatnonzero(boundary))
                    if boundary.any()
                    else None
                ),
            )
        )
        self.stats.audit_checks = self._auditor.checks
        self.stats.audit_violations = len(self._auditor.violations)
        outcome.audit = self._auditor.report()

    def _record(
        self,
        iteration: int,
        expanded: np.ndarray,
        newly: list[int],
        terminated: bool,
    ) -> None:
        gids = self.view.global_ids()
        self.trace.append(
            IterationSnapshot(
                iteration=iteration,
                expanded=tuple(int(gids[i]) for i in expanded),
                newly_visited=tuple(newly),
                lower={int(g): float(v) for g, v in zip(gids, self._lb)},
                upper={int(g): float(v) for g, v in zip(gids, self._ub)},
                dummy_value=self._dummy_value,
                terminated=terminated,
            )
        )


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

    def _refresh(self, boundary: np.ndarray) -> None:
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

        self._lb, self._ub, sweeps = self._kernel.refresh(
            self._lb,
            self._ub,
            diag,
            e_lower,
            e_upper,
            tau=opts.tau,
            max_iterations=opts.max_inner_iterations,
        )
        self.stats.solver_iterations += sweeps
        self.stats.rows_swept += m * sweeps
        # Audit before the consistency clamp below — clamping would mask
        # exactly the bound-order inversions the audit exists to catch.
        if self._auditor is not None:
            self._auditor.on_refresh(
                self._lb, self._ub, self._dummy_value, self.view
            )
            res_lb, res_ub = self._kernel.residual_norms(
                self._lb, self._ub, diag, e_lower, e_upper
            )
            self._auditor.on_solver_residuals(
                res_lb,
                res_ub,
                opts.tau * (1.0 + self.decay) + 1e-12,
            )
        # The bounds sandwich the same fixed point; keep them consistent
        # against solver-tolerance noise.
        np.minimum(self._lb, self._ub, out=self._lb)
        # The query's proximity is the constant 1 by definition.
        self._lb[0] = self._ub[0] = 1.0
