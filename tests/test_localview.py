"""Unit tests for the incremental visited-subgraph bookkeeping.

Every incremental quantity maintained by ``LocalView`` is cross-checked
against a from-scratch reference computation on random graphs.
"""

import numpy as np
import pytest

from repro.core.localgraph import LocalView
from repro.graph.generators import erdos_renyi, paper_example_graph, rmat

from .references import ScalarLocalView


def make_view(vectorized, graph, query):
    """The library view, or the scalar oracle when ``vectorized`` is False."""
    return (LocalView if vectorized else ScalarLocalView)(graph, query)


def reference_state(graph, visited: list[int], decay: float):
    """Brute-force recomputation of everything LocalView maintains."""
    vset = set(visited)
    local_of = {g: i for i, g in enumerate(visited)}
    m = len(visited)
    t = np.zeros((m, m))
    dummy = np.zeros(m)
    unvisited_count = np.zeros(m, dtype=int)
    loop = np.zeros(m)
    tight = np.zeros(m)
    q = visited[0]
    for g_id in visited:
        i = local_of[g_id]
        ids, probs = graph.transition_probabilities(g_id)
        w_i = graph.degree(g_id)
        for v, p in zip(ids, probs):
            v = int(v)
            if v in vset:
                if g_id != q:
                    t[i, local_of[v]] = p
            else:
                unvisited_count[i] += 1
                if g_id != q:
                    dummy[i] += p
                w_j = graph.degree(v)
                p_ji = p * w_i / w_j if w_j > 0 else 0.0
                loop[i] += p * p_ji
                tight[i] += p * (1.0 - p_ji)
    loop *= decay
    tight *= decay
    return t, dummy, unvisited_count, loop, tight


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_incremental_matches_reference(seed):
    g = erdos_renyi(60, 200, seed=seed)
    q = 3
    view = LocalView(g, q, track_tightening=True)
    rng = np.random.default_rng(seed)
    for _ in range(6):
        boundary = np.flatnonzero(view.boundary_mask())
        if len(boundary) == 0:
            break
        view.expand(int(rng.choice(boundary)))

    visited = [int(x) for x in view.global_ids()]
    t_ref, dummy_ref, count_ref, loop_ref, tight_ref = reference_state(
        g, visited, decay=0.5
    )
    t_inc = view.transition_csr().toarray()
    np.testing.assert_allclose(t_inc, t_ref, atol=1e-12)
    np.testing.assert_allclose(view.dummy_mass(), dummy_ref, atol=1e-12)
    np.testing.assert_array_equal(
        view.boundary_mask(), count_ref > 0
    )
    locals_out, loops, tight = view.self_loop_terms(0.5)
    full_loops = np.zeros(view.size)
    full_tight = np.zeros(view.size)
    full_loops[locals_out] = loops
    full_tight[locals_out] = tight
    mask = (count_ref > 0)
    mask[0] = False
    np.testing.assert_allclose(full_loops[mask], loop_ref[mask], atol=1e-12)
    np.testing.assert_allclose(full_tight[mask], tight_ref[mask], atol=1e-12)


def test_initial_state_is_query_only():
    g = paper_example_graph()
    view = LocalView(g, 0)
    assert view.size == 1
    assert view.is_visited(0)
    assert view.boundary_mask().tolist() == [True]
    assert view.dummy_mass()[0] == 0.0  # query row of T is zero


def test_expand_returns_new_nodes():
    g = paper_example_graph()
    view = LocalView(g, 0)
    newly = view.expand(0)
    assert sorted(newly) == [1, 2]
    assert view.size == 3
    assert view.expand(0) == []  # no-op: all neighbors visited


def test_query_row_stays_zero():
    g = paper_example_graph()
    view = LocalView(g, 0)
    view.expand(0)
    t = view.transition_csr().toarray()
    assert np.all(t[0] == 0.0)


def test_settled_mask_complement():
    g = erdos_renyi(40, 120, seed=3)
    view = LocalView(g, 0)
    for _ in range(4):
        boundary = np.flatnonzero(view.boundary_mask())
        if not len(boundary):
            break
        view.expand(int(boundary[0]))
    assert np.array_equal(view.settled_mask(), ~view.boundary_mask())


def test_transition_rows_sum_to_at_most_one():
    g = rmat(7, 400, seed=4)
    view = LocalView(g, 1)
    for _ in range(5):
        boundary = np.flatnonzero(view.boundary_mask())
        if not len(boundary):
            break
        view.expand(int(boundary[-1]))
    rowsums = np.asarray(view.transition_csr().sum(axis=1)).ravel()
    total = rowsums + view.dummy_mass()
    assert np.all(total <= 1.0 + 1e-9)
    # Non-query rows of nodes with neighbors account for all their mass.
    for i in range(1, view.size):
        assert total[i] == pytest.approx(1.0)


def test_tightening_disabled_raises():
    g = paper_example_graph()
    view = LocalView(g, 0, track_tightening=False)
    with pytest.raises(RuntimeError, match="track_tightening"):
        view.self_loop_terms(0.5)


def test_degrees_array_matches_graph():
    g = erdos_renyi(30, 90, seed=6, weighted=True)
    view = LocalView(g, 2)
    view.expand(0)
    for local, gid in enumerate(view.global_ids()):
        assert view.local_degree(local) == pytest.approx(g.degree(int(gid)))


@pytest.mark.parametrize("vectorized", [True, False])
def test_local_id_raises_for_unvisited(vectorized):
    g = erdos_renyi(40, 120, seed=3)
    view = make_view(vectorized, g, 0)
    view.expand(0)
    for local, gid in enumerate(view.global_ids()):
        assert view.local_id(int(gid)) == local
    unvisited = next(u for u in range(g.num_nodes) if not view.is_visited(u))
    with pytest.raises(KeyError):
        view.local_id(unvisited)


def grown_view(vectorized, seed=4):
    g = rmat(7, 400, seed=seed, weighted=True)
    view = make_view(vectorized, g, 1)
    for _ in range(4):
        boundary = np.flatnonzero(view.boundary_mask())
        if not len(boundary):
            break
        view.expand_batch(boundary[:3])
    return view


@pytest.mark.parametrize("vectorized", [True, False])
def test_store_is_strictly_lower_triangular(vectorized):
    view = grown_view(vectorized)
    indptr, indices, weights = view.symmetric_store()
    assert len(indptr) == view.size + 1
    rows = np.repeat(np.arange(view.size), np.diff(indptr))
    assert (indices < rows).all()
    assert (weights > 0).all()
    assert view.check_invariants() == []


def _column_above_row(view):
    indptr, indices, _ = view.symmetric_store()
    row = int(np.flatnonzero(np.diff(indptr))[0])
    indices[indptr[row]] = row


def _pointers_not_monotone(view):
    indptr, _, _ = view.symmetric_store()
    row = int(np.flatnonzero(np.diff(indptr))[-1])
    indptr[row], indptr[row + 1] = indptr[row + 1], indptr[row]


def _weight_drift(view):
    view.symmetric_store()[2][-1] *= 1.5


def _query_dummy(view):
    view.dummy_mass()[0] = 0.25


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_column_above_row, "below the diagonal"),
        (_pointers_not_monotone, "mis-shaped"),
        (_weight_drift, "transition mass"),
        (_query_dummy, "transition mass of local 0"),
    ],
)
def test_invariants_catch_store_corruption(corrupt, message):
    view = grown_view(vectorized=True)
    corrupt(view)
    problems = view.check_invariants()
    assert any(message in p for p in problems), problems


def test_audit_off_never_checks_the_view(monkeypatch):
    from repro import FLoSOptions, flos_top_k
    from repro.measures import RWR

    def fail(self, **kwargs):
        raise AssertionError("check_invariants ran with audit='off'")

    monkeypatch.setattr(LocalView, "check_invariants", fail)
    g = erdos_renyi(60, 200, seed=2)
    result = flos_top_k(g, RWR(0.5), 3, 5, options=FLoSOptions(audit="off"))
    assert len(result.nodes) == 5
