"""The bound-refresh kernels of both bound models.

:class:`DualBoundKernel` is the paper's refresh (Alg. 7, Sec. 5.1–5.2)
for the PHP-space bound model: one warm-started Jacobi solve
(:func:`~repro.core.iterative.jacobi_solve`) for the lower bound, then
one for the upper bound.  Both systems share the operator ``c·T_S``
(plus the self-loop tightening diagonal) and differ only in their
constant term.

:class:`THTDPKernel` is the finite-horizon analogue for the truncated
hitting time bound model: two 1-D DP loops of exactly ``L`` steps each.  The
DP's steps are the *definition* of the measure, not an iteration
converging to a fixed point, so there is nothing to converge and no
tolerance.

Both kernels apply one operator,
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

The two columns are solved one after the other rather than as one
``(m, 2)`` block: scipy's multi-vector products cost more per apply than
two 1-D products, and each column's iterate sequence is the same either
way (see ``docs/performance.md``).
"""

from __future__ import annotations

import numpy as np

from repro.core.iterative import jacobi_solve


class DualBoundKernel:
    """Lower/upper bound refresh of the PHP-space bound model.

    One instance lives on a :class:`~repro.core.flos.PHPSpaceEngine` for
    the whole search and owns its operator.
    """

    def __init__(self, view, decay: float):
        self._op = view.transition_operator(decay)

    def refresh(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        diag: np.ndarray | None,
        e_lower: np.ndarray,
        e_upper: np.ndarray,
        *,
        tau: float,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Solve both bound systems; returns ``(lb, ub, sweeps)``.

        Each system ``r = (c·T_S + diag) r + e`` is iterated from its
        warm start until the max-norm update falls below ``tau`` (at
        most :data:`~repro.core.iterative.DEFAULT_MAX_ITERATIONS` sweeps
        each); ``sweeps`` is the sum of both solves' iteration counts.
        """
        op = self._bind(diag)
        lb, it_lb = jacobi_solve(op, e_lower, lb, tau=tau)
        ub, it_ub = jacobi_solve(op, e_upper, ub, tau=tau)
        return lb, ub, it_lb + it_ub

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
        means convergence was claimed but not reached.
        """
        op = self._bind(diag)
        return (
            float(np.abs(lb - (op @ lb + e_lower)).max()),
            float(np.abs(ub - (op @ ub + e_upper)).max()),
        )

    def _bind(self, diag: np.ndarray | None):
        self._op.sync()
        self._op.diag = diag
        return self._op


class THTDPKernel:
    """Finite-horizon DP of the THT bound model.

    The lower DP carries the step-indexed dummy sequence ``Dᵗ`` of
    :mod:`repro.core.flos_tht`; the upper DP's dummy is the constant
    horizon.
    """

    def __init__(self, view):
        self._op = view.transition_operator()

    def run(
        self, e: np.ndarray, mass: np.ndarray, boundary: np.ndarray, horizon: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(lb, ub)`` after exactly ``horizon`` DP steps each."""
        m = self._op.sync()
        lb = np.zeros(m)
        dummy = 0.0
        for _ in range(horizon):
            step_min = float(lb[boundary].min()) if len(boundary) else np.inf
            nxt = self._op.apply(lb) + e + mass * dummy
            nxt[0] = 0.0  # the query's hitting time is identically zero
            dummy = 1.0 + min(dummy, step_min)
            lb = nxt

        e_upper = e + mass * float(horizon)
        e_upper[0] = 0.0
        ub = np.zeros(m)
        for _ in range(horizon):
            ub = self._op.apply(ub) + e_upper
        return lb, ub
