"""Unit tests for the Jacobi solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.iterative import jacobi_solve
from repro.errors import ConvergenceError


def random_contraction(n: int, seed: int, norm: float = 0.6):
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) * (rng.random((n, n)) < 0.2)
    rowsum = dense.sum(axis=1, keepdims=True)
    rowsum[rowsum == 0] = 1.0
    dense = dense / rowsum * norm
    return sp.csr_matrix(dense)


class TestJacobi:
    def test_matches_direct_solve(self):
        a = random_contraction(30, 1)
        e = np.arange(30, dtype=float) / 30
        r, _ = jacobi_solve(a, e, np.zeros(30), tau=1e-12)
        expected = np.linalg.solve(np.eye(30) - a.toarray(), e)
        np.testing.assert_allclose(r, expected, atol=1e-9)

    def test_warm_start_fewer_iterations(self):
        a = random_contraction(30, 2)
        e = np.ones(30)
        r, cold = jacobi_solve(a, e, np.zeros(30), tau=1e-10)
        _, warm = jacobi_solve(a, e, r, tau=1e-10)
        assert warm < cold

    def test_one_sided_from_below(self):
        """Starting below the fixed point, every iterate stays below —
        the invariant FLoS's truncated lower-bound solves rely on."""
        a = random_contraction(25, 3)
        e = np.ones(25)
        exact = np.linalg.solve(np.eye(25) - a.toarray(), e)
        r = np.zeros(25)
        for _ in range(10):
            r = a @ r + e
            assert np.all(r <= exact + 1e-12)

    def test_one_sided_from_above(self):
        a = random_contraction(25, 4)
        e = np.ones(25)
        exact = np.linalg.solve(np.eye(25) - a.toarray(), e)
        r = np.full(25, exact.max() + 1.0)
        for _ in range(10):
            r = a @ r + e
            assert np.all(r >= exact - 1e-12)

    def test_convergence_error(self):
        a = random_contraction(10, 5, norm=0.999)
        with pytest.raises(ConvergenceError) as err:
            jacobi_solve(a, np.ones(10), np.zeros(10), tau=1e-15, max_iterations=5)
        assert err.value.iterations == 5

    def test_empty_system(self):
        a = sp.csr_matrix((0, 0))
        r, it = jacobi_solve(a, np.zeros(0), np.zeros(0))
        assert len(r) == 0 and it == 1
