"""Kernel layer: batched restoration, the bound-refresh kernels.

Three contracts are pinned here:

* ``LocalView``'s batched restoration produces exactly the same
  visited-subgraph state as the one-node-at-a-time oracle
  ``tests.references.ScalarLocalView`` (same local ids, same store,
  same dummy/boundary/tightening sums);
* both kernels of :mod:`repro.core.kernels` compute what a dense numpy
  reference computes on ``view.transition_csr().toarray()`` — the same
  sweep count and the same bounds — and the certified bounds sandwich
  the exact proximity values;
* the store-backed ``TransitionOperator`` equals dense ``decay·T_S``
  built straight from the graph at every growth stage, under both
  restorations, and refuses a mis-sized store instead of handing
  it to the compiled products.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FLoSOptions, flos_top_k
from repro.core import flos
from repro.core.kernels import DualBoundKernel, THTDPKernel
from repro.core.localgraph import LocalView
from repro.errors import TransitionStoreError
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi, rmat
from repro.graph.memory import CSRGraph
from repro.measures import PHP, RWR, solve_direct

from .conftest import assert_topk_matches_oracle
from .references import ScalarLocalView


def make_view(vectorized, graph, query, **kwargs):
    """The library view, or the scalar oracle when ``vectorized`` is False."""
    cls = LocalView if vectorized else ScalarLocalView
    return cls(graph, query, **kwargs)


# ----------------------------------------------------------------------
# Batched restoration vs the scalar oracle
# ----------------------------------------------------------------------


def lockstep_views(graph, query, rounds=6):
    """Grow the library view and the scalar oracle with identical schedules."""
    vec = LocalView(graph, query)
    ref = ScalarLocalView(graph, query)
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
    (vp, vi, vw), (rp, ri, rw) = vec.symmetric_store(), ref.symmetric_store()
    np.testing.assert_array_equal(vp, rp)
    np.testing.assert_array_equal(vi, ri)
    np.testing.assert_allclose(vw, rw, rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        vec.transition_csr().toarray(), ref.transition_csr().toarray(), atol=atol
    )
    np.testing.assert_allclose(vec.dummy_mass(), ref.dummy_mass(), atol=atol)
    np.testing.assert_array_equal(vec.boundary_mask(), ref.boundary_mask())
    np.testing.assert_array_equal(vec.unvisited_counts(), ref.unvisited_counts())
    np.testing.assert_allclose(vec.degrees_array(), ref.degrees_array())
    if vec.track_tightening:
        lv, loops_v, tight_v = vec.self_loop_terms(0.5)
        lr, loops_r, tight_r = ref.self_loop_terms(0.5)
        np.testing.assert_array_equal(lv, lr)
        np.testing.assert_allclose(loops_v, loops_r, atol=atol)
        np.testing.assert_allclose(tight_v, tight_r, atol=atol)


@st.composite
def restoration_cases(draw):
    """A graph (ER or R-MAT, weighted or not, optionally behind a
    ``DynamicGraph`` with edits), a query and an expansion schedule."""
    kind = draw(st.sampled_from(["er", "rmat"]))
    weighted = draw(st.booleans())
    seed = draw(st.integers(0, 2**31))
    if kind == "rmat":
        graph = rmat(
            draw(st.integers(3, 7)), draw(st.integers(8, 300)),
            seed=seed, weighted=weighted,
        )
    else:
        n = draw(st.integers(4, 60))
        m = draw(st.integers(n - 1, min(3 * n, n * (n - 1) // 2)))
        graph = erdos_renyi(n, m, seed=seed, weighted=weighted)
    if draw(st.booleans()):
        graph = DynamicGraph(graph)
        n = graph.num_nodes
        edits = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.booleans(),
                    st.floats(0.1, 5.0, allow_nan=False),
                ),
                max_size=20,
            )
        )
        for u, v, remove, w in edits:
            if u == v:
                continue
            if remove:
                if graph.has_edge(u, v):
                    graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v, w)
    query = draw(st.integers(0, graph.num_nodes - 1))
    # Each round expands a drawn share of the boundary, in drawn order.
    schedule = draw(
        st.lists(
            st.tuples(st.integers(0, 2**31), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=6,
        )
    )
    return graph, query, schedule, draw(st.booleans())


class TestRestorationEquivalence:
    def test_any_graph(self, any_graph):
        vec, ref = lockstep_views(any_graph, query=1)
        assert_views_equal(vec, ref)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weighted_rmat(self, seed):
        g = rmat(8, 1200, seed=seed, weighted=True)
        vec, ref = lockstep_views(g, query=3, rounds=8)
        assert_views_equal(vec, ref)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(restoration_cases())
    def test_oracle_equivalence_on_drawn_graphs(self, case):
        """Library view and scalar oracle grown in lockstep under drawn
        expansion batches end in the same state after every round."""
        graph, query, schedule, tighten = case
        vec = LocalView(graph, query, track_tightening=tighten)
        ref = ScalarLocalView(graph, query, track_tightening=tighten)
        assert_views_equal(vec, ref)
        for seed, share in schedule:
            frontier = np.flatnonzero(vec.boundary_mask())
            if len(frontier) == 0:
                break
            take = max(1, int(round(share * len(frontier))))
            batch = np.random.default_rng(seed).permutation(frontier)[:take]
            assert vec.expand_batch(batch) == ref.expand_batch(batch)
            assert_views_equal(vec, ref)
        assert vec.neighbor_queries == ref.neighbor_queries
        assert vec.check_invariants() == ref.check_invariants() == []

    def test_visit_sequence_matches_oracle(self, er_graph):
        vec, ref = LocalView(er_graph, 0), ScalarLocalView(er_graph, 0)
        nodes = np.arange(1, 40)
        vec.visit_sequence(nodes)
        ref.visit_sequence(nodes)
        assert_views_equal(vec, ref)

    def test_search_results_identical_either_path(self, er_graph, monkeypatch):
        """End-to-end: the driver on the scalar oracle changes nothing."""
        results = [flos_top_k(er_graph, RWR(0.5), 5, 6)]
        monkeypatch.setattr(flos, "LocalView", ScalarLocalView)
        results.append(flos_top_k(er_graph, RWR(0.5), 5, 6))
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
# Both kernels against a dense numpy reference
# ----------------------------------------------------------------------


def dense_jacobi(a, e, start, tau, max_iterations=10_000):
    """``r ← A r + e`` on a dense ``A`` until ``‖Δr‖∞ < tau``."""
    r = start.copy()
    for sweep in range(1, max_iterations + 1):
        nxt = a @ r + e
        delta = np.abs(nxt - r).max()
        r = nxt
        if delta < tau:
            return r, sweep
    raise AssertionError("dense reference did not converge")


def dense_tht_dp(t, e, mass, boundary, horizon):
    """The THT engine's two DP loops, written out on a dense ``T_S``."""
    lb, dummy = np.zeros(len(e)), 0.0
    for _ in range(horizon):
        step_min = lb[boundary].min() if len(boundary) else np.inf
        lb = t @ lb + e + mass * dummy
        lb[0] = 0.0
        dummy = 1.0 + min(dummy, step_min)
    e_upper = e + mass * horizon
    e_upper[0] = 0.0
    ub = np.zeros(len(e))
    for _ in range(horizon):
        ub = t @ ub + e_upper
    return lb, ub


def grow(view, rounds=6):
    """Expand ``view`` by a few random boundary batches, yielding after
    each; returns early once the component is exhausted."""
    rng = np.random.default_rng(1)
    for _ in range(rounds):
        frontier = np.flatnonzero(view.boundary_mask())
        if len(frontier) == 0:
            return
        view.expand_batch(rng.permutation(frontier)[: max(1, view.size // 3)])
        yield


RESTORATION = pytest.mark.parametrize(
    "vectorized", [True, False], ids=["vectorized", "scalar"]
)


class TestRefreshPath:
    @RESTORATION
    @pytest.mark.parametrize("tighten", [True, False], ids=["tight", "plain"])
    def test_dual_refresh_matches_dense_jacobi(
        self, rmat_graph, vectorized, tighten
    ):
        """Warm-started across growth, exactly as the PHP engine drives
        it: same sweep count, bounds equal to 1e-12, at every round."""
        decay, tau, dummy_value = 0.5, 1e-5, 0.9
        view = make_view(
            vectorized, rmat_graph, 7, track_tightening=tighten
        )
        kernel = DualBoundKernel(view, decay)
        lb = ub = np.ones(1)
        for _ in grow(view):
            m = view.size
            lb = np.concatenate([lb, np.zeros(m - len(lb))])
            ub = np.concatenate([ub, np.ones(m - len(ub))])
            e_lower = np.zeros(m)
            e_lower[0] = 1.0
            diag = np.zeros(m)
            if tighten:
                locals_, loops, tight = view.self_loop_terms(decay)
                diag[locals_] = decay * loops
                dummy = np.zeros(m)
                dummy[locals_] = tight
            else:
                dummy = view.dummy_mass()
            e_upper = e_lower + decay * dummy * dummy_value
            a = decay * view.transition_csr().toarray() + np.diag(diag)
            want_lb, it_lb = dense_jacobi(a, e_lower, lb, tau)
            want_ub, it_ub = dense_jacobi(a, e_upper, ub, tau)

            lb, ub, sweeps = kernel.refresh(
                lb, ub, diag if tighten else None, e_lower, e_upper,
                tau=tau, max_iterations=10_000,
            )
            assert sweeps == it_lb + it_ub
            np.testing.assert_allclose(lb, want_lb, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ub, want_ub, rtol=0, atol=1e-12)
            res_lb, res_ub = kernel.residual_norms(
                lb, ub, diag, e_lower, e_upper
            )
            assert max(res_lb, res_ub) <= decay * tau + 1e-12
        assert view.size > 1

    @RESTORATION
    def test_tht_dp_matches_dense_dp(self, rmat_graph, vectorized):
        horizon = 10
        view = make_view(
            vectorized, rmat_graph, 7, track_tightening=False
        )
        kernel = THTDPKernel(view)
        for _ in grow(view):
            m = view.size
            e = np.ones(m)
            e[0] = 0.0
            mass = view.dummy_mass()
            boundary = np.flatnonzero(view.boundary_mask())
            want = dense_tht_dp(
                view.transition_csr().toarray(), e, mass, boundary, horizon
            )
            got = kernel.run(e, mass, boundary, horizon)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
        assert view.size > 1


# ----------------------------------------------------------------------
# The one refresh path under every expansion schedule
# ----------------------------------------------------------------------

#: How the engine drives the refresh: how many rows each warm start
#: adds, and how far each solve converges.
SCHEDULES = {
    "default": {},
    "paper": {"adaptive_batching": False},  # one refresh per expansion
    "batched": {"expand_batch": 8},
    "tight": {"tau": 1e-9},
}


class TestSolverModes:
    def test_all_modes_same_topk(self, er_graph, measure):
        """The same certified top-k on all five measures, every schedule.

        Compared by exact value: the schedules visit different subgraphs,
        so a tie at rank k (THT's hitting times tie here) may be
        completed by a different member.
        """
        for name, options in SCHEDULES.items():
            result = flos_top_k(
                er_graph, measure, 5, 6, options=FLoSOptions(**options)
            )
            assert result.exact, name
            assert_topk_matches_oracle(er_graph, measure, result, 5, 6)

    def test_stats_counters(self, er_graph):
        for name, options in SCHEDULES.items():
            stats = flos_top_k(
                er_graph, PHP(0.5), 5, 6, options=FLoSOptions(**options)
            ).stats
            assert stats.solver_iterations >= 2, name
            assert stats.rows_swept > 0
            # A sweep touches every visited row once.
            assert stats.rows_swept <= stats.solver_iterations * stats.visited_nodes


# ----------------------------------------------------------------------
# Property: certified bounds sandwich the exact values
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
        """The default run's certified [lower, upper] contains the exact
        proximity, and it certifies the same top-k value set as a run
        converged to ``tau=1e-13``.

        The intervals are *not* compared between the two runs: they may
        certify after expanding different visited sets, and the
        better-converged run's interval can then sit entirely inside
        the other's bound gap — in particular below the other run's
        value estimate (the bound midpoint), which is
        subgraph-dependent and can exceed the true value.
        """
        graph, q, k = case
        exact = solve_direct(PHP(0.5), graph, q)
        fixed_point = flos_top_k(
            graph, PHP(0.5), q, k, options=FLoSOptions(tau=1e-13)
        )
        want = np.sort(exact[fixed_point.nodes])
        result = flos_top_k(graph, PHP(0.5), q, k)
        got = np.sort(exact[result.nodes])
        np.testing.assert_allclose(got, want, atol=1e-7)
        for i, node in enumerate(result.nodes):
            truth = exact[int(node)]
            assert result.lower[i] <= truth + 1e-7
            assert result.upper[i] >= truth - 1e-7

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
        """1-D and ``(m, 2)`` products, the library view and the scalar
        oracle, random expansion orders; row 0 (the query) always comes
        out zero."""
        graph, q, _ = case
        view = make_view(vectorized, graph, q)
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
        view = make_view(vectorized, graph, 3)
        op = view.transition_operator(0.5)
        assert op.sync() == 1
        np.testing.assert_array_equal(op.apply(np.ones(1)), [0.0])
        np.testing.assert_array_equal(op.apply(np.ones((1, 2))), [[0.0, 0.0]])
        assert view.check_invariants() == []


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
            DualBoundKernel(view, 0.5)
        with pytest.raises(TransitionStoreError):
            THTDPKernel(view)
        assert view.check_invariants()

    def test_stale_store_caught_at_refresh(self, view):
        kernel = DualBoundKernel(view, 0.5)
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
