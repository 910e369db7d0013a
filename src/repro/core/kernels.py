"""Hot-path solver kernels for the bound refreshes.

The legacy refresh path (``solver="jacobi"``) runs two independent
warm-started Jacobi solves per expansion round
(:mod:`repro.core.iterative`).  That is already O(E) per sweep, but it
leaves three structural savings on the table, which the kernels here
collect:

* **fused dual-bound solve** (``solver="fused"``) — the lower and upper
  systems share the operator ``c·T_S`` and differ only in the constant
  term, so both are iterated as one ``(m, 2)`` block sweep: one
  operator application per iteration instead of two, with per-column
  convergence (a converged column is frozen, so each column's iterate
  sequence is exactly what an independent solve would produce);
* **Gauss–Seidel** (``solver="gauss_seidel"``) — split ``A = L + D + U``
  by local-id order and iterate ``r ← (I − L − D)⁻¹ (U r + e)`` via a
  cached triangular factorization.  Using within-sweep values typically
  cuts the sweep count by a third or more.  One-sided safety survives:
  ``(I − L − D)⁻¹ = Σ (L + D)ᵏ`` is entrywise non-negative, so the
  Gauss–Seidel map is monotone and a start vector below (above) the
  fixed point stays below (above) it, exactly as argued for Jacobi in
  :mod:`repro.core.iterative`;
* **selective refresh** (``solver="selective"``) — after an expansion
  batch only rows near the new boundary actually move, so the sweep is
  confined to an *active set*: seeded with the new rows, their
  in-neighbors, and rows whose constant term or self-loop changed by
  at least ``tau``, then grown along the dependency structure (a row is
  re-swept only while its max-norm update exceeds ``tau``).  When the
  active set stops being sparse (``SELECTIVE_FULL_FRACTION`` of ``|S|``)
  the kernel falls back to full fused sweeps.  Safety follows from
  monotonicity twice over: partial sweeps are a particular
  *asynchronous* update schedule of the same monotone map, so iterates
  never cross the fixed point; and the constant terms only ever shrink
  (the dummy value and the tightening masses are non-increasing in
  ``|S|``), so a row whose sub-``tau`` constant change goes unswept
  keeps an upper bound that is merely looser, never invalid.  A final
  full verification pass (repeated until the global max-norm update is
  below ``tau``) closes every refresh, so the returned bounds satisfy
  the *same* convergence criterion as the legacy path.

Every mode, the legacy path included, applies one operator,
:class:`~repro.core.localgraph.TransitionOperator`, straight from the
view's append-only store of symmetric edge weights (each undirected edge
written once, in the CSR row of its later-visited endpoint, so the store
is strictly lower-triangular ``L`` and restoration only appends rows):
``c·T_S x = s ⊙ (L x + Lᵀ x)`` with ``s = c / w`` and the query row
zeroed — one compiled CSR product plus one compiled CSC product over the
same three arrays.  Nothing is ever re-assembled on the hot path: the
store *is* the operator, so a refresh costs its sweeps and nothing else.
The self-loop tightening terms change value without changing structure
and are kept out of the store, applied as a separate diagonal vector.
The Gauss–Seidel and selective modes need row access to ``c·T_S``
itself; they assemble it from the store on demand, once per change of
the visited set.

:class:`THTDPKernel` is the finite-horizon analogue for the truncated
hitting time engine: the DP is run fused over both columns with the same
operator.  Gauss–Seidel and selective refresh do not apply
there — the DP's ``L`` steps are the *definition* of the measure, not an
iteration converging to a fixed point, so every row must be swept
exactly ``L`` times; requesting those modes silently uses the fused DP.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import ConvergenceError

#: Recognised values of :attr:`repro.core.flos.FLoSOptions.solver`.
SOLVERS = ("jacobi", "fused", "gauss_seidel", "selective")

#: Selective refresh falls back to full sweeps once the active set
#: reaches this fraction of the visited set — past that point the
#: gather/scatter bookkeeping costs more than the rows it skips.
SELECTIVE_FULL_FRACTION = 0.5


class DualBoundKernel:
    """Fused lower/upper bound refresh over the view's store.

    One instance lives on a :class:`~repro.core.flos.PHPSpaceEngine` for
    the whole search; it owns the operator, the Gauss–Seidel/selective
    matrix caches and (for selective refresh) the previous refresh's
    constant terms.
    """

    def __init__(self, view, decay: float, solver: str):
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver {solver!r}")
        self.view = view
        self.decay = decay
        self.solver = solver
        self.rows_swept = 0

        self._op = view.transition_operator(decay)
        # ``c·T_S`` assembled from the store for the Gauss–Seidel and
        # selective modes, rebuilt when the visited set grows (the store
        # only changes then).
        self._csr: sp.csr_matrix | None = None
        # Gauss–Seidel split (no diagonal: transition matrices of simple
        # graphs have none; tightening arrives as a separate vector and
        # is merged into the triangular factor).
        self._lower: sp.csr_matrix | None = None
        self._upper_tri: sp.csr_matrix | None = None
        self._gs_factor = None
        # Selective refresh: constant terms of the previous refresh, used
        # to seed the active set with rows whose system changed in value
        # (not just in structure).
        self._prev_e_upper: np.ndarray | None = None
        self._prev_diag: np.ndarray | None = None

    # ------------------------------------------------------------------

    def refresh(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        diag: np.ndarray | None,
        e_lower: np.ndarray,
        e_upper: np.ndarray,
        *,
        tau: float,
        max_iterations: int,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Solve both bound systems; returns ``(lb, ub, column_sweeps)``.

        ``column_sweeps`` counts one per column per sweep — the same unit
        as the legacy path's two ``jacobi_solve`` iteration counts — and
        :attr:`rows_swept` accumulates actual row updates (a full fused
        sweep adds ``2m``; selective passes add only the active rows).
        """
        m = self.view.size
        prev_m = len(self._prev_e_upper) if self._prev_e_upper is not None else 0
        self._op.sync()
        if diag is None:
            diag = np.zeros(m)
        R = np.column_stack([lb, ub])
        E = np.column_stack([e_lower, e_upper])

        if self.solver == "selective" and prev_m > 0:
            sweeps = self._selective(
                R, E, diag, prev_m, tau=tau, max_iterations=max_iterations
            )
        elif self.solver == "gauss_seidel":
            self._ensure_split(diag)
            sweeps = self._iterate_dual(
                self._gs_step, R, E, diag, tau=tau, max_iterations=max_iterations
            )
        else:  # "fused", or the first selective refresh (nothing to seed)
            sweeps = self._iterate_dual(
                self._jacobi_step, R, E, diag, tau=tau, max_iterations=max_iterations
            )

        self._prev_e_upper = E[:, 1].copy()
        self._prev_diag = diag.copy()
        return R[:, 0].copy(), R[:, 1].copy(), sweeps

    def residual_norms(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        diag: np.ndarray | None,
        e_lower: np.ndarray,
        e_upper: np.ndarray,
    ) -> tuple[float, float]:
        """Fixed-point residual inf-norms ``||x - (Ax + Dx + e)||`` of
        both bound systems.

        An independent convergence certificate for the audit layer: one
        exact operator application, no sweep-loop state involved.  A
        solver that stopped on a ``tau`` update norm leaves a residual
        of at most ``decay * tau`` (contraction), so anything larger
        means convergence was claimed but not reached — the failure
        mode the selective solver's active-set bookkeeping could hit
        silently.
        """
        m = self.view.size
        self._op.sync()
        if diag is None:
            diag = np.zeros(m)
        R = np.column_stack([lb, ub])
        E = np.column_stack([e_lower, e_upper])
        res = np.abs(R - (self._op.apply(R) + diag[:, None] * R + E))
        return float(res[:, 0].max()), float(res[:, 1].max())

    # ------------------------------------------------------------------
    # Matrix caches (Gauss–Seidel, selective)
    # ------------------------------------------------------------------

    def _full_csr(self) -> sp.csr_matrix:
        """``c·T_S`` as a CSR matrix, assembled once per visited-set size."""
        m = self.view.size
        if self._csr is None or self._csr.shape[0] != m:
            self._csr = self.decay * self.view.transition_csr()
        return self._csr

    def _dependents(self, rows: np.ndarray) -> np.ndarray:
        """Rows whose sweep reads any of ``rows``.

        ``T_S`` has the symmetric structure of ``L + Lᵀ`` apart from the
        zeroed query row, so the columns of ``rows`` cover every true
        in-neighbor; the only over-approximation is occasionally
        including row 0, whose sweep is a no-op.
        """
        return np.unique(self._full_csr()[rows].indices)

    def _ensure_split(self, diag: np.ndarray) -> None:
        m = self.view.size
        if self._lower is None or self._lower.shape[0] != m:
            csr = self._full_csr()
            self._lower = sp.tril(csr, k=-1, format="csr")
            self._upper_tri = sp.triu(csr, k=1, format="csr")
        # The triangular factor I − L − D depends on the tightening
        # diagonal, whose *values* change every refresh.  Natural-order
        # SuperLU on a triangular matrix incurs no fill, and its
        # compiled solve is far cheaper per sweep than a generic sparse
        # triangular solve.
        factor_matrix = (sp.diags(1.0 - diag, format="csr") - self._lower).tocsc()
        self._gs_factor = spla.splu(
            factor_matrix, permc_spec="NATURAL", options={"DiagPivotThresh": 0.0}
        )

    # ------------------------------------------------------------------
    # Sweep bodies
    # ------------------------------------------------------------------

    def _jacobi_step(
        self, R: np.ndarray, E: np.ndarray, diag: np.ndarray
    ) -> np.ndarray:
        y = self._op.apply(R)
        y += (diag[:, None] if R.ndim == 2 else diag) * R
        y += E
        return y

    def _gs_step(
        self, R: np.ndarray, E: np.ndarray, diag: np.ndarray
    ) -> np.ndarray:
        return self._gs_factor.solve(self._upper_tri @ R + E)

    def _iterate_dual(
        self,
        step,
        R: np.ndarray,
        E: np.ndarray,
        diag: np.ndarray,
        *,
        tau: float,
        max_iterations: int,
    ) -> int:
        """Iterate ``step`` with per-column convergence; mutates ``R``.

        Both columns ride one ``(m, 2)`` sweep until the first converges;
        the survivor continues alone as a 1-D iteration.  A converged
        column is frozen, so each column runs through exactly the iterate
        sequence its independent solve would, and the two columns' sweep
        counts match the legacy pair of ``jacobi_solve`` calls.
        """
        m = R.shape[0]
        remaining = max_iterations
        paired = 0
        d_lower = d_upper = np.inf
        cur = R
        while remaining > 0:
            nxt = step(cur, E, diag)
            remaining -= 1
            paired += 1
            self.rows_swept += 2 * m
            diff = nxt - cur
            np.abs(diff, out=diff)
            d_lower, d_upper = np.maximum.reduce(diff, axis=0).tolist()
            cur = nxt
            if d_lower < tau or d_upper < tau:
                break
        else:
            raise ConvergenceError(max_iterations, max(d_lower, d_upper), tau)
        R[:] = cur
        if d_lower < tau and d_upper < tau:
            return 2 * paired

        col = 1 if d_lower < tau else 0
        r = R[:, col].copy()
        e = E[:, col].copy()
        single = 0
        delta = np.inf
        while remaining > 0:
            nxt = step(r, e, diag)
            remaining -= 1
            single += 1
            self.rows_swept += m
            diff = nxt - r
            np.abs(diff, out=diff)
            delta = float(np.maximum.reduce(diff))
            r = nxt
            if delta < tau:
                R[:, col] = r
                return 2 * paired + single
        raise ConvergenceError(max_iterations, delta, tau)

    # ------------------------------------------------------------------
    # Selective refresh
    # ------------------------------------------------------------------

    def _selective(
        self,
        R: np.ndarray,
        E: np.ndarray,
        diag: np.ndarray,
        prev_m: int,
        *,
        tau: float,
        max_iterations: int,
    ) -> int:
        m = R.shape[0]
        csr = self._full_csr()

        # Seed: new rows, their dependents, and old rows whose constant
        # term or self-loop moved by at least tau since the previous
        # refresh.  Sub-tau shrinkage (the dummy value and tightening
        # masses only ever decrease) is deliberately left to the final
        # verification pass — see the module docstring's safety argument.
        seed = np.zeros(m, dtype=bool)
        seed[prev_m:] = True
        changed = np.flatnonzero(
            (np.abs(E[:prev_m, 1] - self._prev_e_upper) >= tau)
            | (np.abs(diag[:prev_m] - self._prev_diag) >= tau)
        )
        seed[changed] = True
        seed[self._dependents(np.arange(prev_m, m, dtype=np.int64))] = True

        sweeps = 0
        active = np.flatnonzero(seed)
        for _ in range(max_iterations):
            if len(active) == 0:
                break
            if len(active) >= SELECTIVE_FULL_FRACTION * m:
                # Dense active set: partial-sweep bookkeeping no longer
                # pays; finish with full fused sweeps (which also serve
                # as the verification pass).
                return sweeps + self._iterate_dual(
                    self._jacobi_step,
                    R,
                    E,
                    diag,
                    tau=tau,
                    max_iterations=max_iterations,
                )
            nxt = (
                csr[active] @ R
                + diag[active, None] * R[active]
                + E[active]
            )
            deltas = np.abs(nxt - R[active]).max(axis=1)
            R[active] = nxt
            self.rows_swept += 2 * len(active)
            sweeps += 2
            moved = active[deltas >= tau]
            if len(moved) == 0:
                break
            # A row that moved must be re-swept (its self-loop feeds
            # back) along with every row that reads it.
            nxt_active = np.zeros(m, dtype=bool)
            nxt_active[moved] = True
            nxt_active[self._dependents(moved)] = True
            active = np.flatnonzero(nxt_active)
        else:
            raise ConvergenceError(max_iterations, float("inf"), tau)

        # Verification: full fused sweeps until the *global* update is
        # below tau — the exact convergence criterion of the legacy
        # path, so selective results are interchangeable with it.
        return sweeps + self._iterate_dual(
            self._jacobi_step,
            R,
            E,
            diag,
            tau=tau,
            max_iterations=max_iterations,
        )


class THTDPKernel:
    """Fused finite-horizon DP for the THT engine (non-jacobi solvers).

    Runs the lower and upper DP columns through one operator application
    per step.  The lower column carries the step-indexed dummy sequence
    ``Dᵗ`` of :mod:`repro.core.flos_tht`; the upper column's dummy is the
    constant horizon.
    """

    def __init__(self, view):
        self.view = view
        self.rows_swept = 0
        self._op = view.transition_operator()

    def run(
        self, e: np.ndarray, mass: np.ndarray, boundary: np.ndarray, horizon: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(lb, ub)`` after exactly ``horizon`` fused DP steps."""
        m = self._op.sync()
        R = np.zeros((m, 2))
        # Constant terms: the upper column's dummy never changes, the
        # lower column adds ``Dᵗ · mass`` on top of ``e`` each step.
        const = np.column_stack([e, e + mass * float(horizon)])
        lower_dummy = 0.0
        for _ in range(horizon):
            step_min = (
                float(R[boundary, 0].min()) if len(boundary) else np.inf
            )
            R = self._op.apply(R)
            R += const
            R[:, 0] += lower_dummy * mass
            R[0] = 0.0  # the query's hitting time is identically zero
            lower_dummy = 1.0 + min(lower_dummy, step_min)
        self.rows_swept += 2 * horizon * m
        return R[:, 0], R[:, 1]
