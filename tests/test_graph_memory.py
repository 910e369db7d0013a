"""Unit tests for the in-memory CSR graph substrate."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError, NodeNotFoundError
from repro.graph.memory import CSRGraph


def small_graph() -> CSRGraph:
    return CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])


class TestConstruction:
    def test_counts(self):
        g = small_graph()
        assert g.num_nodes == 4
        assert g.num_edges == 4

    def test_empty_graph(self):
        g = CSRGraph.from_edges(3, [])
        assert g.num_nodes == 3
        assert g.num_edges == 0
        assert g.max_degree == 0.0

    def test_zero_nodes(self):
        g = CSRGraph.from_edges(0, [])
        assert g.num_nodes == 0
        assert g.density == 0.0

    def test_duplicate_edges_merge_weights(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 0)], [2.0, 3.0])
        assert g.num_edges == 1
        ids, w = g.neighbors(0)
        assert list(ids) == [1]
        assert w[0] == pytest.approx(5.0)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self loop"):
            CSRGraph.from_edges(2, [(1, 1)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(GraphError, match="out of range"):
            CSRGraph.from_edges(2, [(0, 5)])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(GraphError, match="positive"):
            CSRGraph.from_edges(2, [(0, 1)], [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected_by_from_edges(self, bad):
        with pytest.raises(GraphError, match="positive and finite"):
            CSRGraph.from_edges(3, [(0, 1), (1, 2)], [1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_zero_weight_rejected_by_from_arrays(self, bad):
        indptr = np.array([0, 1, 2])
        indices = np.array([1, 0])
        with pytest.raises(GraphError, match="positive and finite"):
            CSRGraph.from_arrays(indptr, indices, np.array([bad, bad]))

    def test_bad_edge_shape(self):
        with pytest.raises(GraphError, match="pairs"):
            CSRGraph.from_edges(3, np.array([[0, 1, 2]]))

    def test_weight_length_mismatch(self):
        with pytest.raises(GraphError, match="length"):
            CSRGraph.from_edges(3, [(0, 1)], [1.0, 2.0])

    def test_from_scipy_symmetric(self):
        mat = sp.csr_matrix(
            np.array([[0, 2, 0], [2, 0, 1], [0, 1, 0]], dtype=float)
        )
        g = CSRGraph.from_scipy(mat)
        assert g.num_edges == 2
        assert g.degree(1) == pytest.approx(3.0)


class TestAccess:
    def test_neighbors_sorted_and_weighted(self):
        g = small_graph()
        ids, w = g.neighbors(2)
        assert sorted(map(int, ids)) == [0, 1, 3]
        assert np.all(w == 1.0)

    def test_neighbors_symmetry(self):
        g = small_graph()
        for u in range(g.num_nodes):
            ids, w = g.neighbors(u)
            for v, wv in zip(ids, w):
                back_ids, back_w = g.neighbors(int(v))
                pos = list(back_ids).index(u)
                assert back_w[pos] == wv

    def test_degree_and_max_degree(self):
        g = small_graph()
        assert g.degree(2) == pytest.approx(3.0)
        assert g.max_degree == pytest.approx(3.0)
        assert g.out_degree(3) == 1

    def test_degrees_of_vectorised(self):
        g = small_graph()
        np.testing.assert_allclose(
            g.degrees_of(np.array([0, 2])), [2.0, 3.0]
        )

    def test_invalid_node(self):
        g = small_graph()
        with pytest.raises(NodeNotFoundError):
            g.neighbors(99)
        with pytest.raises(NodeNotFoundError):
            g.degree(-1)

    def test_transition_probabilities_sum_to_one(self):
        g = small_graph()
        for u in range(4):
            _, probs = g.transition_probabilities(u)
            assert probs.sum() == pytest.approx(1.0)

    def test_density(self):
        g = small_graph()
        assert g.density == pytest.approx(2.0)

    def test_neighbors_are_readonly(self):
        g = small_graph()
        ids, w = g.neighbors(0)
        with pytest.raises(ValueError):
            ids[0] = 7
        with pytest.raises(ValueError):
            w[0] = 7.0


class TestDerived:
    def test_transition_matrix_row_stochastic(self):
        g = small_graph()
        p = g.transition_matrix()
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)

    def test_transition_matrix_isolated_row_zero(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        p = g.transition_matrix()
        assert p[2].nnz == 0

    def test_edge_list_roundtrip(self):
        g = small_graph()
        edges, weights = g.edge_list()
        g2 = CSRGraph.from_edges(4, edges, weights)
        assert g2.num_edges == g.num_edges
        np.testing.assert_allclose(g2.degrees, g.degrees)

    def test_to_scipy_matches(self):
        g = small_graph()
        mat = g.to_scipy()
        assert mat.shape == (4, 4)
        assert (mat != mat.T).nnz == 0  # symmetric

    def test_bfs_subgraph(self):
        g = small_graph()
        within1 = g.subgraph_nodes_within_hops(3, 1)
        assert list(within1) == [2, 3]
        within2 = g.subgraph_nodes_within_hops(3, 2)
        assert list(within2) == [0, 1, 2, 3]

    def test_is_connected(self):
        assert small_graph().is_connected()
        g = CSRGraph.from_edges(4, [(0, 1)])
        assert not g.is_connected()
