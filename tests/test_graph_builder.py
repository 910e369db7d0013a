"""Unit tests for the incremental graph builder."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.memory import CSRGraph
from tests import references


def test_single_edges_accumulate():
    b = GraphBuilder(5)
    b.add_edge(0, 1)
    b.add_edge(2, 3, weight=2.5)
    g = b.build()
    assert g.num_edges == 2
    assert g.degree(2) == pytest.approx(2.5)


def test_bulk_and_dedup_sum():
    b = GraphBuilder(4, merge="sum")
    b.add_edges(np.array([[0, 1], [1, 0], [2, 3]]), np.array([1.0, 2.0, 1.0]))
    g = b.build()
    assert g.num_edges == 2
    ids, w = g.neighbors(0)
    assert w[list(ids).index(1)] == pytest.approx(3.0)


def test_dedup_max():
    b = GraphBuilder(3, merge="max")
    b.add_edges(np.array([[0, 1], [0, 1]]), np.array([1.0, 5.0]))
    g = b.build()
    _, w = g.neighbors(0)
    assert w[0] == pytest.approx(5.0)


def test_dedup_first():
    b = GraphBuilder(3, merge="first")
    b.add_edges(np.array([[0, 1], [0, 1]]), np.array([4.0, 5.0]))
    g = b.build()
    _, w = g.neighbors(0)
    assert w[0] == pytest.approx(4.0)


def test_self_loops_silently_dropped():
    b = GraphBuilder(3)
    b.add_edges(np.array([[1, 1], [0, 1]]))
    g = b.build()
    assert g.num_edges == 1


def test_empty_build():
    g = GraphBuilder(7).build()
    assert g.num_nodes == 7
    assert g.num_edges == 0


def test_pending_edge_count():
    b = GraphBuilder(4)
    b.add_edges(np.array([[0, 1], [1, 2], [1, 1]]))
    assert b.num_pending_edges == 2  # the self loop was dropped


def test_endpoint_validation():
    b = GraphBuilder(3)
    with pytest.raises(GraphError, match="out of range"):
        b.add_edge(0, 3)


def test_bad_merge_mode():
    with pytest.raises(GraphError, match="merge"):
        GraphBuilder(3, merge="median")


def test_negative_weight_rejected():
    b = GraphBuilder(3)
    with pytest.raises(GraphError, match="positive"):
        b.add_edges(np.array([[0, 1]]), np.array([-1.0]))


def test_canonical_orientation_dedups_reversed_edges():
    b = GraphBuilder(3, merge="sum")
    b.add_edge(0, 2, 1.0)
    b.add_edge(2, 0, 1.0)
    g = b.build()
    assert g.num_edges == 1
    assert g.degree(0) == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_non_finite_or_zero_weight_rejected(bad):
    b = GraphBuilder(3)
    with pytest.raises(GraphError, match="positive and finite"):
        b.add_edges(np.array([[0, 1], [1, 2]]), np.array([1.0, bad]))
    assert b.num_pending_edges == 0


def test_ingest_builds_no_scipy_matrix_and_no_argsort(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("not on the edge-list-to-CSR path")

    for name in ("coo_matrix", "csr_matrix", "coo_array", "csr_array"):
        monkeypatch.setattr(sp, name, forbidden)
    monkeypatch.setattr(np, "argsort", forbidden)
    edges = np.array([[0, 1], [2, 1], [1, 0], [3, 3]])
    b = GraphBuilder(4)
    b.add_edges(edges)
    assert b.build().num_edges == 2
    assert CSRGraph.from_edges(4, edges[:3]).num_edges == 2


# ----------------------------------------------------------------------
# The counting-sort assembly against the comparison-sort / scipy paths
# ----------------------------------------------------------------------


@st.composite
def edge_lists(draw):
    """Edge lists with duplicates, reversed duplicates, self loops and
    isolated nodes (``n`` above every endpoint), possibly empty; weights
    are integer-valued (every summation order is exact) or arbitrary."""
    n = draw(st.integers(1, 9))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=40,
        )
    )
    # Repeat a prefix, half of it reversed, so duplicate groups are common.
    repeat = draw(st.integers(0, len(pairs)))
    pairs += [
        (b, a) if i % 2 else (a, b) for i, (a, b) in enumerate(pairs[:repeat])
    ]
    if draw(st.booleans()):
        values = st.integers(1, 6).map(float)
    else:
        values = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    weights = draw(st.lists(values, min_size=len(pairs), max_size=len(pairs)))
    isolated = draw(st.integers(0, 3))
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return n + isolated, edges, np.array(weights, dtype=np.float64)


def _assert_same_graph(got, want, *, weights=True):
    np.testing.assert_array_equal(got._indptr, want._indptr)
    np.testing.assert_array_equal(got._indices, want._indices)
    if weights:
        np.testing.assert_array_equal(got._weights, want._weights)
        np.testing.assert_array_equal(got.degrees, want.degrees)


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.sampled_from(["sum", "max", "first"]))
def test_build_matches_argsort_reference(case, merge):
    n, edges, weights = case
    builder = GraphBuilder(n, merge=merge)
    builder.add_edges(edges, weights)
    got = builder.build()
    _assert_same_graph(got, references.argsort_build(n, edges, weights, merge))
    for arr in (got._indptr, got._indices):
        assert arr.dtype == np.int64
    assert got._weights.dtype == np.float64


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_from_edges_matches_scipy_reference(case):
    n, edges, weights = case
    loops = edges[:, 0] == edges[:, 1]
    if loops.any():
        with pytest.raises(GraphError, match="self loops"):
            CSRGraph.from_edges(n, edges, weights)
        edges, weights = edges[~loops], weights[~loops]
    got = CSRGraph.from_edges(n, edges, weights)
    scipy_path = references.scipy_edges_to_csr(n, edges, weights)
    integer_valued = bool((weights == np.round(weights)).all())
    _assert_same_graph(got, scipy_path, weights=integer_valued)
    # Any weights: duplicates, in either orientation, are summed in
    # input order (np.add.reduceat over each stable-sorted group).
    _assert_same_graph(got, references.argsort_build(n, edges, weights, "sum"))
