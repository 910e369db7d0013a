"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.generators import (
    RMATParams,
    chung_lu,
    community_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    paper_example_graph,
    path_graph,
    random_tree,
    rmat,
    star_graph,
)
from repro.graph.generators.chung_lu import power_law_weights
from repro.graph.generators.rmat import rmat_with_exact_edges
from tests import references


class TestErdosRenyi:
    def test_exact_edge_count(self):
        g = erdos_renyi(100, 250, seed=1)
        assert g.num_nodes == 100
        assert g.num_edges == 250

    def test_deterministic_with_seed(self):
        a = erdos_renyi(50, 100, seed=9)
        b = erdos_renyi(50, 100, seed=9)
        assert np.array_equal(a.edge_list()[0], b.edge_list()[0])

    def test_different_seeds_differ(self):
        a = erdos_renyi(50, 100, seed=1)
        b = erdos_renyi(50, 100, seed=2)
        assert not np.array_equal(a.edge_list()[0], b.edge_list()[0])

    def test_too_many_edges(self):
        with pytest.raises(GraphError, match="cannot place"):
            erdos_renyi(4, 10)

    def test_complete_graph_case(self):
        g = erdos_renyi(5, 10, seed=3)
        assert g.num_edges == 10

    def test_weighted(self):
        g = erdos_renyi(30, 60, seed=4, weighted=True)
        _, w = g.edge_list()
        assert np.all(w > 0) and np.all(w <= 1.0)
        assert len(np.unique(w)) > 1


class TestRMAT:
    def test_node_count_is_power_of_two(self):
        g = rmat(8, 1000, seed=1)
        assert g.num_nodes == 256

    def test_heavy_tail(self):
        g = rmat(12, 40_000, seed=2)
        degrees = np.diff(g._indptr)
        # Scale-free: the hub degree should far exceed the median.
        assert degrees.max() > 10 * np.median(degrees[degrees > 0])

    def test_deterministic(self):
        a = rmat(7, 400, seed=5)
        b = rmat(7, 400, seed=5)
        assert np.array_equal(a.edge_list()[0], b.edge_list()[0])

    def test_params_validation(self):
        with pytest.raises(GraphError, match="sum to 1"):
            RMATParams(0.5, 0.5, 0.5, 0.5).validate()
        with pytest.raises(GraphError, match="non-negative"):
            RMATParams(1.2, -0.2, 0.0, 0.0).validate()

    def test_scale_bounds(self):
        with pytest.raises(GraphError, match="scale"):
            rmat(-1, 10)

    def test_exact_edges_variant(self):
        g = rmat_with_exact_edges(8, 700, seed=3)
        assert g.num_edges == 700


class TestChungLu:
    def test_mean_degree_close_to_target(self):
        g = chung_lu(5000, 20_000, seed=1)
        # Spanning spine adds n-1 edges; realised mean degree should be
        # within ~25% of the naive 2m/n target.
        assert 0.7 * 8 <= g.density <= 1.6 * 8

    def test_hub_scale_respected(self):
        g = chung_lu(10_000, 40_000, exponent=2.1, seed=2)
        degrees = np.diff(g._indptr)
        assert degrees.max() >= 0.005 * g.num_nodes  # real hubs exist
        assert degrees.max() <= 0.06 * g.num_nodes  # but capped

    def test_connected_by_default(self):
        g = chung_lu(500, 1000, seed=3)
        assert g.is_connected()

    def test_exponent_validation(self):
        with pytest.raises(GraphError, match="exponent"):
            power_law_weights(10, 2.0, 1.0, 5.0)

    def test_mean_degree_validation(self):
        with pytest.raises(GraphError, match="mean_degree"):
            power_law_weights(10, 0.0, 2.1, 5.0)

    def test_minimum_size(self):
        with pytest.raises(GraphError, match="two nodes"):
            chung_lu(1, 5)


class TestCommunity:
    def test_connected(self):
        g = community_graph(300, 10, 4.0, 1.0, seed=1)
        assert g.is_connected()

    def test_size_and_density(self):
        g = community_graph(400, 8, 6.0, 1.0, seed=2)
        assert g.num_nodes == 400
        assert 4.0 <= g.density <= 10.0

    def test_single_community(self):
        g = community_graph(50, 1, 4.0, 0.0, seed=3)
        assert g.is_connected()

    def test_validation(self):
        with pytest.raises(GraphError):
            community_graph(5, 10, 1.0, 1.0)
        with pytest.raises(GraphError):
            community_graph(50, 5, -1.0, 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize(
        "args",
        [
            (10_045, 251, 2.82, 0.71),  # the 10k-node AZ stand-in
            (400, 8, 6.0, 1.0),
            (60, 3, 4.0, 1.0),
            (50, 1, 4.0, 0.0),
            (13, 13, 3.0, 1.0),  # one node per community
        ],
    )
    def test_matches_loop_reference_bitwise(self, args, seed):
        """One ``add_edges`` call and the vectorized membership lookup
        keep the RNG draw order: the graph is bit-identical."""
        got = community_graph(*args, seed=seed).to_scipy()
        want = references.community_graph_loop(*args, seed=seed).to_scipy()
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)


class TestStructured:
    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.out_degree(0) == 1
        assert g.out_degree(2) == 2

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert all(g.out_degree(u) == 2 for u in range(6))

    def test_star(self):
        g = star_graph(7)
        assert g.num_nodes == 8
        assert g.out_degree(0) == 7

    def test_complete(self):
        g = complete_graph(6)
        assert g.num_edges == 15

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_tree_connected_acyclic(self):
        g = random_tree(40, seed=1)
        assert g.num_edges == 39
        assert g.is_connected()

    def test_single_node_tree(self):
        g = random_tree(1)
        assert g.num_nodes == 1
        assert g.num_edges == 0

    def test_validation(self):
        with pytest.raises(GraphError):
            path_graph(0)
        with pytest.raises(GraphError):
            cycle_graph(2)
        with pytest.raises(GraphError):
            grid_graph(0, 3)


class TestPaperExample:
    """Structural facts the paper states about its Figure 1 graph."""

    def test_shape(self):
        g = paper_example_graph()
        assert g.num_nodes == 8
        assert g.num_edges == 10

    def test_stated_degrees(self):
        g = paper_example_graph()
        # Paper Sec. 3.2: node 3 has weighted degree 3 (p_{3,4} = 1/3);
        # Sec. 4.3: p_{4,6} = p_{4,7} = 1/4, so node 4 has degree 4.
        assert g.degree(2) == 3.0  # paper node 3
        assert g.degree(3) == 4.0  # paper node 4

    def test_stated_transition_probabilities(self):
        g = paper_example_graph()
        ids, probs = g.transition_probabilities(2)  # paper node 3
        probs_of = dict(zip(map(int, ids), probs))
        assert probs_of[3] == pytest.approx(1 / 3)  # p_{3,4}
        assert probs_of[4] == pytest.approx(1 / 3)  # p_{3,5}

    def test_boundary_sets_of_section_3(self):
        g = paper_example_graph()
        s = {0, 1, 2, 3}  # paper's S = {1, 2, 3, 4}
        delta_s = {
            u
            for u in s
            if any(int(v) not in s for v in g.neighbors(u)[0])
        }
        delta_s_bar = {
            u
            for u in range(8)
            if u not in s and any(int(v) in s for v in g.neighbors(u)[0])
        }
        assert delta_s == {2, 3}  # paper δS = {3, 4}
        assert delta_s_bar == {4, 5, 6}  # paper δS̄ = {5, 6, 7}
