"""The THT bound model of the FLoS driver (paper Sec. 5 + Appendix 10.4).

L-truncated hitting time is a finite-horizon dynamic program rather than
a stationary linear system, and smaller means closer.  The driver
(:class:`repro.core.flos.FLoSDriver`) ranks by negated bounds, so its one
certificate reads "the worst returned upper bound is at most every
rival's lower bound".  The bounds:

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

Unvisited nodes (Lemma 7, no local minimum): within the horizon they are
bounded below by the boundary's smallest lower bound; beyond it they sit
at exactly ``L``, which can never beat a certified top-k node whose upper
bound is below ``L``.
"""

from __future__ import annotations

import numpy as np

from repro.core.flos import FLoSDriver, FLoSOptions
from repro.core.kernels import THTDPKernel
from repro.errors import SearchError
from repro.graph.base import GraphAccess


class THTEngine(FLoSDriver):
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
    ):
        if horizon < 1:
            raise SearchError("horizon must be >= 1")
        self.horizon = int(horizon)
        super().__init__(
            graph,
            query,
            k,
            options=options or FLoSOptions(),
            exclude=exclude,
            # Trivial THT bounds [0, L]; the query's hitting time is 0.
            trivial=(0.0, float(horizon)),
            query_value=0.0,
            # The plain deletion/dummy bounds of Appendix 10.4; the
            # star-to-mesh tightening is specific to the decayed measures.
            track_tightening=False,
            # The DP is exact (no tau truncation) — the only refresh-to-
            # refresh noise is float summation order as the view grows,
            # so the slack is a pure round-off allowance scaled to the
            # measure's range [0, L].
            audit_slack=1e-9 * max(1.0, float(horizon)),
        )
        self._kernel = THTDPKernel(self.view)

    # Bound here, not only inherited, so each model class has its own
    # ``run`` entry that per-class wrappers (e.g. span tracers) can swap.
    run = FLoSDriver.run

    def _expansion_scores(self) -> np.ndarray:
        # Best-first toward *small* hitting time.
        return -(0.5 * (self._lb + self._ub))

    def _ranking_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return -self._ub, -self._lb

    def _unvisited_cap(self, boundary: np.ndarray) -> float:
        # Lemma 7: unvisited hitting times are at least min_{δS} lb.
        return -float(self._lb[boundary].min())

    def _refresh(self, prior_boundary: np.ndarray) -> None:
        # The step-indexed dummy reads the boundary *after* expansion,
        # not the prior one the driver passes.
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
        # size with trivial [0, L] entries by the driver's expansion.
        np.maximum(lb, self._lb, out=lb)
        np.minimum(ub, self._ub, out=ub)
        self._lb = lb
        self._ub = ub
        if self._auditor is not None:
            self._auditor.on_refresh(
                self._lb, self._ub, self._dummy_value, self.view
            )
        np.minimum(self._lb, self._ub, out=self._lb)
        self.stats.solver_iterations += 2 * self.horizon
