"""FLoS for L-truncated hitting time (paper Sec. 5 + Appendix 10.4).

THT is a finite-horizon dynamic program rather than a stationary linear
system, so it gets its own engine.  Structure mirrors
:class:`repro.core.flos.PHPSpaceEngine` with the direction flipped
(smaller = closer) and DP bound updates:

* **lower bound** — reroute the boundary mass to a dummy node whose value
  follows the *step-indexed* sequence

      D⁰ = 0,   Dᵗ = 1 + min(Dᵗ⁻¹, min_{i ∈ δS} lbᵗ⁻¹_i)

  computed alongside the DP.  This is the mirror image of Algorithm 5
  line 7, adapted to the finite horizon: for a smaller-is-closer measure
  the *lower* bound of non-top-k nodes is what must clear the
  certificate, so the adaptive dummy goes on the lower side — and because
  the DP at step ``t`` consumes continuation values at horizon ``t-1``
  (which are smaller than full-horizon values), the dummy must be
  per-step rather than a single constant.  Soundness is a joint
  induction: every unvisited node's step-``t`` value is
  ``1 + Σ p · (step t-1 values of its neighbors)``, its neighbors are
  unvisited (≥ Dᵗ⁻¹ inductively) or on the boundary (≥ the DP's own
  lbᵗ⁻¹), hence ≥ Dᵗ.  With ``D ≡ 0`` this degenerates to the plain
  transition *deletion* of Appendix 10.4, which is also valid but lets
  every freshly visited boundary node sit at ``lb ≈ 1`` and block
  termination until the whole graph is visited;
* **upper bound** — reroute the boundary mass to a dummy node pinned at
  the maximal possible value ``L``; since every true continuation value
  is at most ``L``, the result upper-bounds the true values.  Bounds are
  additionally clamped at ``L``, the measure's range maximum.

The DP runs exactly ``L`` steps from zero each iteration — that *is* the
measure's definition, so no warm starting or tolerance is involved; with
the paper's ``L = 10`` the refresh costs ten sparse mat-vecs.

Termination inverts Algorithm 6: choose the ``k`` settled nodes with the
*smallest* upper bound and stop when their maximum is at most every other
visited node's lower bound.  By the no-local-minimum property (Lemma 7),
unvisited nodes within the horizon are dominated by the boundary minimum
(contained in "every other visited node"), and unvisited nodes beyond the
horizon sit at exactly ``L``, which can never beat a certified top-k node
whose upper bound is below ``L``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.flos import (
    EngineOutcome,
    FLoSOptions,
    SoftBudgetMixin,
    WarmStart,
)
from repro.core.kernels import THTDPKernel
from repro.core.localgraph import LocalView
from repro.core.result import IterationSnapshot, SearchStats
from repro.errors import BudgetExceededError, SearchError
from repro.graph.base import GraphAccess
from repro.nputil import top_k_indices


class THTEngine(SoftBudgetMixin):
    """FLoS for truncated hitting time with horizon ``L``."""

    def __init__(
        self,
        graph: GraphAccess,
        query: int,
        k: int,
        *,
        horizon: int,
        options: FLoSOptions | None = None,
        exclude: frozenset[int] = frozenset(),
        warm_start: WarmStart | None = None,
    ):
        if k < 1:
            raise SearchError("k must be >= 1")
        if horizon < 1:
            raise SearchError("horizon must be >= 1")
        self.graph = graph
        self.query = query
        self.k = k
        self.horizon = int(horizon)
        self.options = options or FLoSOptions()
        self.exclude = exclude

        # THT uses the plain deletion/dummy bounds of Appendix 10.4; the
        # star-to-mesh tightening is specific to the decayed measures.
        self.view = LocalView(graph, query, track_tightening=False)
        if warm_start is not None:
            if int(warm_start.nodes[0]) != query:
                raise SearchError(
                    "warm-start seed must lead with the query node"
                )
            self.view.visit_sequence(warm_start.nodes[1:])
            if self.view.size != len(warm_start.nodes):
                raise SearchError("warm-start seed contains duplicate nodes")
            # Prior hitting-time lower bounds stay valid under the
            # WarmStart contract (the DP induction only reads ``T_S``,
            # the dummy mass and the boundary — all unchanged when every
            # event is an insertion outside the seeded set) and persist
            # through the monotone envelope of ``_update_bounds``.
            # Upper bounds restart at the trivial ``L``.
            self._lb = np.clip(warm_start.lower, 0.0, float(horizon))
            self._ub = np.full(self.view.size, float(horizon))
            self._lb[0] = self._ub[0] = 0.0
        else:
            self._lb = np.array([0.0])  # hitting time of q is 0 by definition
            self._ub = np.array([0.0])
        self._kernel = THTDPKernel(self.view)
        if warm_start is not None and exclude:
            self._excluded = np.fromiter(
                (int(gid) in exclude for gid in warm_start.nodes),
                dtype=bool,
                count=self.view.size,
            )
        else:
            self._excluded = np.zeros(self.view.size, dtype=bool)
            self._excluded[0] = query in exclude
        self.stats = SearchStats(warm_started=warm_start is not None)
        self.trace: list[IterationSnapshot] = []
        # Lazy import: audit="off" runs never load the audit package.
        self._auditor = None
        if self.options.audit != "off":
            from repro.audit.trace import AuditRecorder

            # The DP is exact (no tau truncation) — the only refresh-to-
            # refresh noise is float summation order as the view grows,
            # so the slack is a pure round-off allowance scaled to the
            # measure's range [0, L].
            slack = 1e-9 * max(1.0, float(horizon))
            self._auditor = AuditRecorder(
                mode=self.options.audit,
                kind="tht",
                monotone_slack=slack,
                order_slack=slack,
                context=f"tht engine (query={query}, k={k})",
            )

    # ------------------------------------------------------------------

    def run(self) -> EngineOutcome:
        """Run until certified, with the same soft-budget schedule as
        :meth:`repro.core.flos.PHPSpaceEngine.run` (deadline/iteration
        budgets at the top of the loop, visited budget after expansion
        followed by one bound refresh)."""
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
            expanded = self._select_expansion()
            if len(expanded) == 0:
                return self._finalize_exhausted(iteration)
            newly = self._expand(expanded)
            if (
                opts.max_visited is not None
                and self.view.size > opts.max_visited
            ):
                if opts.on_budget == "raise":
                    raise BudgetExceededError(self.view.size, opts.max_visited)
                self._update_bounds()
                return self._finalize_degraded("visited_budget", iteration)
            self._update_bounds()
            done, top_locals = self._check_termination()
            if opts.record_trace:
                self._record(iteration, expanded, newly, done)
            if done:
                self.stats.visited_nodes = self.view.size
                self.stats.neighbor_queries = self.view.neighbor_queries
                outcome = EngineOutcome(
                    view=self.view,
                    top_locals=top_locals,
                    lower=self._lb.copy(),
                    upper=self._ub.copy(),
                    exact=True,
                    exhausted_component=False,
                    stats=self.stats,
                    trace=self.trace,
                )
                self._seal_audit(outcome)
                return outcome

    # ------------------------------------------------------------------

    def _select_expansion(self) -> np.ndarray:
        boundary = np.flatnonzero(self.view.boundary_mask())
        if len(boundary) == 0:
            return boundary
        # Best-first toward *small* hitting time.
        scores = (0.5 * (self._lb + self._ub))[boundary]
        batch = min(self.options.batch_size(self.view.size), len(boundary))
        if batch < len(boundary):
            part = np.argpartition(scores, batch - 1)[:batch]
            boundary, scores = boundary[part], scores[part]
        order = np.lexsort((boundary, scores))
        return boundary[order]

    def _expand(self, locals_: np.ndarray) -> list[int]:
        newly = self.view.expand_batch(locals_)
        self.stats.expansions += len(locals_)
        grow = self.view.size - len(self._lb)
        if grow > 0:
            # Trivial THT bounds for fresh nodes: [0, L].
            self._lb = np.concatenate([self._lb, np.zeros(grow)])
            self._ub = np.concatenate(
                [self._ub, np.full(grow, float(self.horizon))]
            )
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

    def _update_bounds(self) -> None:
        m = self.view.size
        mass = self.view.dummy_mass()
        boundary = np.flatnonzero(self.view.boundary_mask())
        e = np.ones(m)
        e[0] = 0.0  # the query's hitting time is identically zero

        lb, ub = self._kernel.run(e, mass, boundary, self.horizon)
        self.stats.rows_swept += 2 * self.horizon * m
        # Domain clamps first (the measure's range is [0, L] by
        # definition), then the monotone envelope, then audit *before*
        # the cross-clamp below — that clamp would mask exactly the
        # lower>upper inversions the audit exists to catch.
        np.minimum(ub, float(self.horizon), out=ub)
        np.maximum(lb, 0.0, out=lb)
        # Monotone envelope: the previous refresh's bounds stay valid
        # for the grown view (Theorem 5 certifies every visited set),
        # so keep the tighter of old and new.  The raw upper DP alone
        # is *not* monotone — it charges a full L on every boundary
        # crossing, so pushing the boundary one hop out delays the
        # same penalty by a step and can raise the raw value.
        # ``self._lb``/``self._ub`` were already grown to the current
        # size with trivial [0, L] entries in ``_expand``.
        np.maximum(lb, self._lb, out=lb)
        np.minimum(ub, self._ub, out=ub)
        self._lb = lb
        self._ub = ub
        if self._auditor is not None:
            self._auditor.on_refresh(
                self._lb, self._ub, float(self.horizon), self.view
            )
        np.minimum(self._lb, self._ub, out=self._lb)
        self.stats.solver_iterations += 2 * self.horizon

    def _eligible_mask(self, base: np.ndarray) -> np.ndarray:
        mask = base.copy()
        mask[0] = False
        if self.exclude:
            mask &= ~self._excluded
        return mask

    def _check_termination(self) -> tuple[bool, np.ndarray]:
        settled = self._eligible_mask(self.view.settled_mask())
        candidates = np.flatnonzero(settled)
        if len(candidates) < self.k:
            return False, candidates
        # Tie-break by global node id, not local id (visitation order),
        # so tied ranks agree across LocalView paths — see the PHP
        # engine's _check_termination.
        gids = self.view.global_ids()
        top = candidates[
            top_k_indices(
                self._ub[candidates],
                gids[candidates],
                self.k,
                descending=False,
            )
        ]
        max_top = float(self._ub[top].max()) - self.options.tie_epsilon
        others = self._eligible_mask(np.ones(self.view.size, dtype=bool))
        others[top] = False
        rest = np.flatnonzero(others)
        if len(rest) and float(self._lb[rest].min()) < max_top:
            return False, top
        return True, top

    def _finalize_degraded(self, reason: str, iteration: int) -> EngineOutcome:
        """Anytime result after a soft budget fired (mirror of the
        PHP-space engine with the direction flipped: rank by the
        midpoint ascending, gap = how far the worst returned upper bound
        still exceeds the best rival's lower bound)."""
        eligible = np.flatnonzero(
            self._eligible_mask(np.ones(self.view.size, dtype=bool))
        )
        mid = 0.5 * (self._lb + self._ub)
        gids = self.view.global_ids()
        top = eligible[
            top_k_indices(
                mid[eligible], gids[eligible], self.k, descending=False
            )
        ]

        gap = 0.0
        if len(top):
            max_top = float(self._ub[top].max())
            others = self._eligible_mask(np.ones(self.view.size, dtype=bool))
            others[top] = False
            rest = np.flatnonzero(others)
            if len(rest):
                gap = max_top - float(self._lb[rest].min())
            # Unvisited rivals (Lemma 7): within the horizon they are
            # bounded below by the boundary's own lower bounds, which may
            # not all be in ``rest`` when the degraded top-k includes
            # boundary nodes.
            boundary = np.flatnonzero(self.view.boundary_mask())
            if len(boundary):
                gap = max(gap, max_top - float(self._lb[boundary].min()))
            gap = max(0.0, gap)

        self.stats.visited_nodes = self.view.size
        self.stats.neighbor_queries = self.view.neighbor_queries
        self.stats.termination = reason
        self.stats.bound_gap = gap
        if self.options.record_trace:
            self._record(iteration, np.empty(0, np.int64), [], True)
        outcome = EngineOutcome(
            view=self.view,
            top_locals=top,
            lower=self._lb.copy(),
            upper=np.maximum(self._lb, self._ub),
            exact=False,
            exhausted_component=False,
            stats=self.stats,
            trace=self.trace,
        )
        self._seal_audit(outcome)
        return outcome

    def _finalize_exhausted(self, iteration: int) -> EngineOutcome:
        self._update_bounds()
        candidates = np.flatnonzero(
            self._eligible_mask(np.ones(self.view.size, dtype=bool))
        )
        gids = self.view.global_ids()
        top = candidates[
            top_k_indices(
                self._ub[candidates],
                gids[candidates],
                self.k,
                descending=False,
            )
        ]
        self.stats.visited_nodes = self.view.size
        self.stats.neighbor_queries = self.view.neighbor_queries
        if self.options.record_trace:
            self._record(iteration, np.empty(0, np.int64), [], True)
        outcome = EngineOutcome(
            view=self.view,
            top_locals=top,
            lower=self._lb.copy(),
            upper=np.maximum(self._lb, self._ub),
            exact=True,
            exhausted_component=len(top) < self.k,
            stats=self.stats,
            trace=self.trace,
        )
        self._seal_audit(outcome)
        return outcome

    def _seal_audit(self, outcome: EngineOutcome) -> None:
        """Replay the termination certificate and attach the audit trail."""
        if self._auditor is None:
            return
        from repro.audit.invariants import CertificateRecord

        self._auditor.on_certificate(
            CertificateRecord(
                kind="tht",
                k=self.k,
                tie_epsilon=self.options.tie_epsilon,
                exact=outcome.exact,
                exhausted=outcome.exhausted_component,
                termination=self.stats.termination,
                bound_gap=self.stats.bound_gap,
                top=np.asarray(outcome.top_locals, dtype=np.int64).copy(),
                lb_score=self._lb.copy(),
                ub_score=self._ub.copy(),
                upper_raw=self._ub.copy(),
                eligible=self._eligible_mask(
                    np.ones(self.view.size, dtype=bool)
                ),
                settled=self.view.settled_mask().copy(),
                boundary=self.view.boundary_mask().copy(),
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
                dummy_value=float(self.horizon),
                terminated=terminated,
            )
        )
