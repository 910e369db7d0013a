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

:func:`tht_global_dp` is the THT bound model's global finish: the same
``L``-step DP over every node, on the graph's own CSR.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

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


def tht_global_dp(graph, query: int, horizon: int) -> np.ndarray:
    """THT of every node of a :class:`~repro.graph.memory.CSRGraph`.

    The ``L``-step DP ``r ← 1 + (A r) / w`` from ``r = 0``, with
    ``r[q] = 0`` throughout and zero-degree nodes pinned at ``L``
    (:class:`~repro.measures.tht.THT`).  The steps are the measure's
    definition, so the result is exact, not converged.  Each step is
    one compiled product over the graph's CSR arrays in place: no
    per-query matrix is built.  Values are clamped to ``[0, L]``, the
    measure's range, as the local bounds are.
    """
    indptr, indices, weights = graph._indptr, graph._indices, graph._weights
    degrees = graph.degrees
    n = len(degrees)
    has_edges = degrees > 0
    # ``s = 1 / w`` turns ``A r`` into ``T r``; zero on the query row,
    # which ``T`` zeroes, and on zero-degree rows.
    scale = np.zeros(n)
    np.divide(1.0, degrees, out=scale, where=has_edges)
    scale[query] = 0.0
    e = np.where(has_edges, 1.0, float(horizon))
    e[query] = 0.0
    r, nxt = np.zeros(n), np.empty(n)
    for _ in range(horizon):
        nxt.fill(0.0)
        _sparsetools.csr_matvec(n, n, indptr, indices, weights, r, nxt)
        nxt *= scale
        nxt += e
        r, nxt = nxt, r
    return np.minimum(r, float(horizon), out=r)
