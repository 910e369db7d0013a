"""Kernel layer: vectorized restoration, fused/GS/selective solvers.

Three contracts are pinned here:

* the vectorized ``LocalView`` restoration path produces exactly the
  same visited-subgraph state as the scalar reference path (same local
  ids, same restored transitions, same dummy/boundary/tightening sums);
* every solver mode of :mod:`repro.core.kernels` returns certified
  bounds that sandwich the exact proximity values, and ``flos_top_k``
  returns the same certified top-k under every mode — with ``"fused"``
  bit-identical to the legacy ``"jacobi"`` path (same iterate sequence);
* the store-backed ``TransitionOperator`` equals dense ``decay·T_S``
  built straight from the graph at every growth stage, on both
  restoration paths, and refuses a mis-sized store instead of handing
  it to the compiled products.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FLoSOptions, flos_top_k
from repro.core.kernels import SOLVERS, DualBoundKernel, THTDPKernel
from repro.core.localgraph import LocalView
from repro.errors import ConfigurationError, TransitionStoreError
from repro.graph.generators import erdos_renyi, rmat
from repro.graph.memory import CSRGraph
from repro.measures import PHP, RWR, THT, solve_direct

from .conftest import ALL_MEASURES, assert_topk_matches_oracle

NEW_SOLVERS = [s for s in SOLVERS if s != "jacobi"]


# ----------------------------------------------------------------------
# Vectorized vs scalar restoration
# ----------------------------------------------------------------------


def lockstep_views(graph, query, rounds=6):
    """Grow a vectorized and a scalar view with identical schedules."""
    vec = LocalView(graph, query, vectorized=True)
    ref = LocalView(graph, query, vectorized=False)
    rng = np.random.default_rng(0)
    for _ in range(rounds):
        if vec.size == 0:
            break
        frontier = np.flatnonzero(vec.boundary_mask())
        if len(frontier) == 0:
            break
        batch = rng.choice(frontier, size=min(3, len(frontier)), replace=False)
        batch = np.sort(batch)
        new_vec = vec.expand_batch(batch)
        new_ref = ref.expand_batch(batch)
        assert new_vec == new_ref, "expansion must discover identical nodes"
    return vec, ref


def assert_views_equal(vec, ref, atol=1e-12):
    assert vec.size == ref.size
    np.testing.assert_array_equal(vec.global_ids(), ref.global_ids())
    np.testing.assert_allclose(
        vec.transition_csr().toarray(), ref.transition_csr().toarray(), atol=atol
    )
    np.testing.assert_allclose(vec.dummy_mass(), ref.dummy_mass(), atol=atol)
    np.testing.assert_array_equal(vec.boundary_mask(), ref.boundary_mask())
    np.testing.assert_allclose(vec.degrees_array(), ref.degrees_array())
    lv, loops_v, tight_v = vec.self_loop_terms(0.5)
    lr, loops_r, tight_r = ref.self_loop_terms(0.5)
    np.testing.assert_array_equal(lv, lr)
    np.testing.assert_allclose(loops_v, loops_r, atol=atol)
    np.testing.assert_allclose(tight_v, tight_r, atol=atol)


class TestRestorationEquivalence:
    def test_any_graph(self, any_graph):
        vec, ref = lockstep_views(any_graph, query=1)
        assert_views_equal(vec, ref)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weighted_rmat(self, seed):
        g = rmat(8, 1200, seed=seed, weighted=True)
        vec, ref = lockstep_views(g, query=3, rounds=8)
        assert_views_equal(vec, ref)

    def test_search_results_identical_either_path(self, er_graph):
        """End-to-end: flipping DEFAULT_VECTORIZED changes nothing."""
        results = []
        try:
            for flag in (True, False):
                LocalView.DEFAULT_VECTORIZED = flag
                results.append(flos_top_k(er_graph, RWR(0.5), 5, 6))
        finally:
            LocalView.DEFAULT_VECTORIZED = True
        a, b = results
        assert list(a.nodes) == list(b.nodes)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)
        assert a.stats.visited_nodes == b.stats.visited_nodes

    def test_global_ids_cached_view_is_readonly(self, er_graph):
        view = LocalView(er_graph, 0)
        ids = view.global_ids()
        with pytest.raises(ValueError):
            ids[0] = 99
        view.expand(0)
        grown = view.global_ids()
        assert len(grown) == view.size
        np.testing.assert_array_equal(grown[: len(ids)], ids)


# ----------------------------------------------------------------------
# Solver modes: end-to-end agreement
# ----------------------------------------------------------------------


class TestSolverModes:
    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigurationError, match="solver"):
            FLoSOptions(solver="sor")

    def test_all_modes_same_topk(self, er_graph, measure):
        """Identical certified top-k on all five measures, every solver."""
        baseline = flos_top_k(
            er_graph, measure, 5, 6, options=FLoSOptions(solver="jacobi")
        )
        assert_topk_matches_oracle(er_graph, measure, baseline, 5, 6)
        for solver in NEW_SOLVERS:
            result = flos_top_k(
                er_graph, measure, 5, 6, options=FLoSOptions(solver=solver)
            )
            assert list(result.nodes) == list(baseline.nodes), solver
            assert result.exact == baseline.exact
            assert result.stats.solver == solver

    def test_fused_matches_jacobi_exactly(self, rmat_graph):
        """Fused freezes converged columns, so each column runs the same
        iterate sequence as the legacy pair of solves over the same
        store-backed operator — node lists are identical and values
        agree to rounding."""
        for measure in (PHP(0.5), RWR(0.9), THT(10)):
            a = flos_top_k(
                rmat_graph, measure, 7, 8, options=FLoSOptions(solver="jacobi")
            )
            b = flos_top_k(
                rmat_graph, measure, 7, 8, options=FLoSOptions(solver="fused")
            )
            assert list(a.nodes) == list(b.nodes)
            np.testing.assert_allclose(a.values, b.values, atol=1e-12)
            np.testing.assert_allclose(a.lower, b.lower, atol=1e-12)
            np.testing.assert_allclose(a.upper, b.upper, atol=1e-12)
            assert a.stats.visited_nodes == b.stats.visited_nodes

    def test_stats_counters(self, er_graph):
        for solver in SOLVERS:
            stats = flos_top_k(
                er_graph, PHP(0.5), 5, 6, options=FLoSOptions(solver=solver)
            ).stats
            assert stats.solver == solver
            assert stats.solver_iterations >= 2
            assert stats.rows_swept > 0
            # A full sweep touches every visited row once per column.
            assert stats.rows_swept <= stats.solver_iterations * stats.visited_nodes


# ----------------------------------------------------------------------
# Property: solver bounds sandwich the legacy fixed point
# ----------------------------------------------------------------------

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def connected_graph_query(draw, max_nodes: int = 30):
    n = draw(st.integers(min_value=4, max_value=max_nodes))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    edges = {(p, c) for c, p in enumerate(parents, start=1)}
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edge_arr = np.array(sorted(edges), dtype=np.int64)
    weights = (
        rng.uniform(0.1, 2.0, size=len(edge_arr))
        if draw(st.booleans())
        else None
    )
    graph = CSRGraph.from_edges(n, edge_arr, weights)
    q = draw(st.integers(0, n - 1))
    k = draw(st.integers(1, min(6, n - 1)))
    return graph, q, k


class TestSandwichProperty:
    @SETTINGS
    @given(connected_graph_query())
    def test_bounds_sandwich_exact_values(self, case):
        """Every mode's certified [lower, upper] contains the exact
        proximity, and every mode certifies the same top-k value set as
        the tightly-converged legacy jacobi run.

        The intervals are *not* compared between modes: two modes may
        certify after expanding different visited sets, and the
        better-converged mode's interval can then sit entirely inside
        the other's bound gap — in particular below the other run's
        value estimate (the bound midpoint), which is
        subgraph-dependent and can exceed the true value.
        """
        graph, q, k = case
        exact = solve_direct(PHP(0.5), graph, q)
        fixed_point = flos_top_k(
            graph, PHP(0.5), q, k, options=FLoSOptions(solver="jacobi", tau=1e-13)
        )
        want = np.sort(exact[fixed_point.nodes])
        for solver in NEW_SOLVERS:
            result = flos_top_k(
                graph, PHP(0.5), q, k, options=FLoSOptions(solver=solver)
            )
            got = np.sort(exact[result.nodes])
            np.testing.assert_allclose(got, want, atol=1e-7)
            for i, node in enumerate(result.nodes):
                truth = exact[int(node)]
                assert result.lower[i] <= truth + 1e-7, solver
                assert result.upper[i] >= truth - 1e-7, solver

    @SETTINGS
    @given(connected_graph_query())
    def test_restoration_paths_agree(self, case):
        graph, q, _ = case
        vec, ref = lockstep_views(graph, q, rounds=4)
        assert_views_equal(vec, ref)


# ----------------------------------------------------------------------
# TransitionOperator: symmetric store == dense decay·T_S
# ----------------------------------------------------------------------


def dense_transition(graph, view):
    """``T_S`` over the view's visited set, straight from the graph."""
    gids = [int(g) for g in view.global_ids()]
    local_of = {g: i for i, g in enumerate(gids)}
    t = np.zeros((len(gids), len(gids)))
    for i, g in enumerate(gids[1:], start=1):  # the query row stays zero
        ids, probs = graph.transition_probabilities(g)
        for v, p in zip(ids, probs):
            if int(v) in local_of:
                t[i, local_of[int(v)]] += p
    return t


class TestTransitionOperator:
    @SETTINGS
    @given(
        connected_graph_query(),
        st.booleans(),
        st.integers(0, 2**31),
        st.sampled_from([0.5, 0.9, 1.0]),
    )
    def test_matches_dense_through_growth(self, case, vectorized, seed, decay):
        """1-D and ``(m, 2)`` products, both restoration paths, random
        expansion orders; row 0 (the query) always comes out zero."""
        graph, q, _ = case
        view = LocalView(graph, q, vectorized=vectorized)
        op = view.transition_operator(decay)
        rng = np.random.default_rng(seed)
        for _ in range(8):
            m = op.sync()
            dense = decay * dense_transition(graph, view)
            x = rng.standard_normal((m, 2))
            y = op.apply(x)
            np.testing.assert_allclose(y, dense @ x, atol=1e-12)
            np.testing.assert_allclose(
                op.apply(x[:, 0]), dense @ x[:, 0], atol=1e-12
            )
            assert not y[0].any()
            diag = rng.random(m)
            np.testing.assert_allclose(
                view.transition_operator(decay, diag) @ x[:, 1],
                dense @ x[:, 1] + diag * x[:, 1],
                atol=1e-12,
            )
            frontier = np.flatnonzero(view.boundary_mask())
            if len(frontier) == 0:
                break
            order = rng.permutation(frontier)
            view.expand_batch(order[: rng.integers(1, len(order) + 1)])
        np.testing.assert_allclose(
            view.transition_csr().toarray(),
            dense_transition(graph, view),
            atol=1e-12,
        )

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_zero_degree_query(self, vectorized):
        graph = CSRGraph.from_edges(4, np.array([[0, 1], [1, 2]]))
        view = LocalView(graph, 3, vectorized=vectorized)
        op = view.transition_operator(0.5)
        assert op.sync() == 1
        np.testing.assert_array_equal(op.apply(np.ones(1)), [0.0])
        np.testing.assert_array_equal(op.apply(np.ones((1, 2))), [[0.0, 0.0]])
        assert view.check_invariants() == []

    def test_dependents_cover_in_neighbors(self):
        """The selective mode's dependency closure, now read from the
        matrix assembled out of the store, still covers every row whose
        sweep reads one of the given rows."""
        g = erdos_renyi(100, 300, seed=5)
        view = LocalView(g, 0)
        for _ in range(5):
            frontier = np.flatnonzero(view.boundary_mask())
            if len(frontier) == 0:
                break
            view.expand_batch(frontier[:3])
        kernel = DualBoundKernel(view, 0.5, "selective")
        m = view.size
        full = view.transition_csr().tocsc()
        rows = np.arange(m // 2, m, dtype=np.int64)
        deps = set(map(int, kernel._dependents(rows)))
        true_deps = set(map(int, full[:, rows].tocoo().row))
        assert true_deps <= deps


# Ways a restoration bug could leave the store out of step with the view.


def _drop_store_row(view):
    view._gids.append_scalar(int(view.global_ids()[-1]))


def _short_columns(view):
    view._indices._size -= 1


def _short_weights(view):
    view._weights._size -= 1


def _wide_columns(view):
    view._indices._data = view._indices._data.astype(np.int64)


class TestStoreGuard:
    """A mis-sized store must raise before the compiled products run —
    unchecked, they read out of bounds and can take the process down."""

    @pytest.fixture
    def view(self):
        view = LocalView(erdos_renyi(60, 200, seed=1), 0)
        view.expand_batch(np.arange(view.size))
        view.expand_batch(np.flatnonzero(view.boundary_mask())[:4])
        return view

    @pytest.mark.parametrize(
        "corrupt", [_drop_store_row, _short_columns, _short_weights, _wide_columns]
    )
    def test_mis_sized_store_raises(self, view, corrupt):
        corrupt(view)
        with pytest.raises(TransitionStoreError):
            view.transition_operator(0.5)
        with pytest.raises(TransitionStoreError):
            DualBoundKernel(view, 0.5, "fused")
        with pytest.raises(TransitionStoreError):
            THTDPKernel(view)
        assert view.check_invariants()

    def test_stale_store_caught_at_refresh(self, view):
        kernel = DualBoundKernel(view, 0.5, "fused")
        _drop_store_row(view)
        m = view.size
        e = np.zeros(m)
        with pytest.raises(TransitionStoreError):
            kernel.refresh(
                np.zeros(m), np.ones(m), None, e, e, tau=1e-5, max_iterations=50
            )

    def test_wrong_length_vector_raises(self, view):
        op = view.transition_operator(0.5)
        with pytest.raises(TransitionStoreError):
            op.apply(np.ones(view.size + 1))
        with pytest.raises(TransitionStoreError):
            op.apply(np.ones((view.size - 1, 2)))
