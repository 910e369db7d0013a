"""The iterative linear solver of the paper's Algorithm 7.

Solves ``r = A r + e`` by Jacobi iteration ``rⁿ = A rⁿ⁻¹ + e`` until the
max-norm update falls below ``tau``.

The solver is *one-sided safe* for bound computations (Sec. 5.1–5.2):
``A`` is entrywise non-negative, so when the start vector is below
(resp. above) the fixed point, every iterate — including a truncated one —
remains below (resp. above) it.  FLoS exploits this twice:

* lower bounds start at the previous iteration's lower bound (which the
  monotonicity argument of Sec. 5.2 places below the new fixed point), so
  truncation at ``tau`` still yields a valid lower bound;
* upper bounds start at the previous upper bound (above the new fixed
  point), so truncation still yields a valid upper bound.

This is why the paper can warm-start Algorithm 7 aggressively — "between
two adjacent iterations the proximity values of visited nodes are very
close" — without ever compromising exactness.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError

DEFAULT_TAU = 1e-5
DEFAULT_MAX_ITERATIONS = 10_000


def jacobi_solve(
    a,
    e: np.ndarray,
    initial: np.ndarray,
    *,
    tau: float = DEFAULT_TAU,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> tuple[np.ndarray, int]:
    """Iterate ``r ← A r + e`` from ``initial`` until ``‖Δr‖∞ < tau``.

    ``a`` is anything that supports ``a @ r``: a scipy sparse matrix or
    the engines' :class:`~repro.core.localgraph.TransitionOperator`.
    Returns ``(r, iterations)``; raises
    :class:`~repro.errors.ConvergenceError` past ``max_iterations``.
    """
    r = np.array(initial, dtype=np.float64, copy=True)
    delta = np.inf
    for iteration in range(1, max_iterations + 1):
        nxt = a @ r + e
        delta = float(np.abs(nxt - r).max()) if len(r) else 0.0
        r = nxt
        if delta < tau:
            return r, iteration
    raise ConvergenceError(max_iterations, delta, tau)
