"""Tests for the comparison methods of the paper's Table 5.

Exact methods (GI, NN_EI, Castanet, K-dash) must agree with the
brute-force oracle; approximate methods (DNE, LS_*, GE) are tested for
API contract and sane recall on workloads where they should do well.
"""

import numpy as np
import pytest

from repro.baselines import (
    ClusterIndex,
    EmbeddingIndex,
    KDashIndex,
    castanet_top_k,
    dne_top_k,
    global_iteration_top_k,
    ls_rwr_top_k,
    ls_tht_top_k,
    nn_ei_top_k,
)
from repro.errors import ConvergenceError, SearchError
from repro.graph.generators import erdos_renyi, rmat
from repro.measures import EI, PHP, RWR, THT, solve_direct


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(800, 3200, seed=50)


def oracle_values(graph, measure, q):
    return solve_direct(measure, graph, q)


def assert_value_match(graph, measure, result, q, k, atol=1e-6):
    exact = oracle_values(graph, measure, q)
    oracle = measure.top_k_from_vector(exact, q, k)
    np.testing.assert_allclose(
        np.sort(exact[result.nodes]), np.sort(exact[oracle]), atol=atol
    )


def recall(result, graph, measure, q, k):
    exact = oracle_values(graph, measure, q)
    oracle = set(map(int, measure.top_k_from_vector(exact, q, k)))
    return len(result.node_set() & oracle) / k


class TestGlobalIteration:
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_exact_all_measures(self, graph, measure, k):
        res = global_iteration_top_k(graph, measure, 31, k, tau=1e-9)
        assert res.exact
        assert_value_match(graph, measure, res, 31, k)

    def test_visits_whole_graph(self, graph):
        res = global_iteration_top_k(graph, PHP(0.5), 0, 5)
        assert res.stats.visited_nodes == graph.num_nodes

    def test_k_validation(self, graph):
        with pytest.raises(SearchError):
            global_iteration_top_k(graph, PHP(0.5), 0, 0)


class TestDNE:
    def test_high_recall_with_big_budget(self, graph):
        res = dne_top_k(graph, PHP(0.5), 7, 10, budget=graph.num_nodes)
        assert recall(res, graph, PHP(0.5), 7, 10) == 1.0

    def test_budget_respected(self, graph):
        res = dne_top_k(graph, PHP(0.5), 7, 10, budget=200)
        assert res.stats.visited_nodes <= 200
        assert not res.exact

    def test_near_constant_time_in_k(self, graph):
        v1 = dne_top_k(graph, PHP(0.5), 7, 1, budget=500).stats.visited_nodes
        v2 = dne_top_k(graph, PHP(0.5), 7, 16, budget=500).stats.visited_nodes
        assert v1 == v2  # fixed budget regardless of k

    def test_validation(self, graph):
        with pytest.raises(SearchError):
            dne_top_k(graph, PHP(0.5), 7, 0)
        with pytest.raises(SearchError):
            dne_top_k(graph, PHP(0.5), 7, 3, budget=0)

    def test_non_convergence_raises(self, graph):
        with pytest.raises(ConvergenceError):
            dne_top_k(graph, PHP(0.5), 7, 3, budget=50, max_iterations=1)


class TestNNEI:
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_exact_certified(self, graph, k):
        res = nn_ei_top_k(graph, EI(0.5), 19, k)
        assert res.exact
        assert_value_match(graph, EI(0.5), res, 19, k, atol=1e-9)

    def test_matches_flos_php_ranking(self, graph):
        """PHP and EI rank identically (Theorem 2), so NN_EI's answer
        must be value-equivalent to the PHP oracle ranking."""
        res = nn_ei_top_k(graph, EI(0.5), 19, 8)
        exact_php = oracle_values(graph, PHP(0.5), 19)
        oracle = PHP(0.5).top_k_from_vector(exact_php, 19, 8)
        np.testing.assert_allclose(
            np.sort(exact_php[res.nodes]),
            np.sort(exact_php[oracle]),
            atol=1e-8,
        )

    def test_local(self, graph):
        res = nn_ei_top_k(graph, EI(0.5), 19, 3)
        assert res.stats.visited_nodes < graph.num_nodes

    def test_budget_fallback_not_exact(self, graph):
        res = nn_ei_top_k(graph, EI(0.5), 19, 5, max_pushes=10)
        assert not res.exact


class TestLSRWR:
    def test_decent_recall(self, graph):
        res = ls_rwr_top_k(graph, RWR(0.5), 23, 10, epsilon=1e-6)
        assert recall(res, graph, RWR(0.5), 23, 10) >= 0.8

    def test_coarse_epsilon_is_cheaper(self, graph):
        fine = ls_rwr_top_k(graph, RWR(0.5), 23, 10, epsilon=1e-6)
        coarse = ls_rwr_top_k(graph, RWR(0.5), 23, 10, epsilon=1e-2)
        assert coarse.stats.expansions < fine.stats.expansions

    def test_validation(self, graph):
        with pytest.raises(SearchError):
            ls_rwr_top_k(graph, RWR(0.5), 0, 5, epsilon=0.0)


class TestCastanet:
    @pytest.mark.parametrize("k", [1, 5, 15])
    def test_exact(self, graph, k):
        res = castanet_top_k(graph, RWR(0.5), 47, k)
        assert res.exact
        assert_value_match(graph, RWR(0.5), res, 47, k)

    def test_fewer_sweeps_than_tau_convergence(self, graph):
        cast = castanet_top_k(graph, RWR(0.5), 47, 5)
        gi = global_iteration_top_k(graph, RWR(0.5), 47, 5, tau=1e-9)
        assert cast.stats.solver_iterations < gi.stats.solver_iterations

    def test_bounds_contain_values(self, graph):
        res = castanet_top_k(graph, RWR(0.5), 47, 5)
        exact = oracle_values(graph, RWR(0.5), 47)
        for node, lo, hi in zip(res.nodes, res.lower, res.upper):
            assert lo - 1e-9 <= exact[node] <= hi + 1e-9


class TestKDash:
    def test_exact_after_precompute(self, graph):
        idx = KDashIndex(graph, RWR(0.5))
        assert idx.preprocess_seconds > 0
        for q in (3, 99, 512):
            res = idx.top_k(q, 7)
            assert res.exact
            assert_value_match(graph, RWR(0.5), res, q, 7, atol=1e-9)

    def test_query_much_faster_than_precompute(self, graph):
        idx = KDashIndex(graph, RWR(0.5))
        res = idx.top_k(3, 7)
        assert res.stats.wall_time_seconds < idx.preprocess_seconds

    def test_full_vector(self, graph):
        idx = KDashIndex(graph, RWR(0.5))
        vec = idx.query_vector(11)
        np.testing.assert_allclose(
            vec, oracle_values(graph, RWR(0.5), 11), atol=1e-9
        )


class TestEmbedding:
    @pytest.fixture(scope="class")
    def index(self, graph):
        return EmbeddingIndex(graph, RWR(0.5), num_landmarks=64, seed=0)

    def test_reasonable_recall(self, graph, index):
        recalls = [
            recall(index.top_k(q, 10), graph, RWR(0.5), q, 10)
            for q in (3, 99, 512)
        ]
        assert np.mean(recalls) >= 0.6

    def test_not_exact_flag(self, graph, index):
        assert not index.top_k(3, 5).exact

    def test_query_avoids_iteration(self, graph, index):
        res = index.top_k(3, 5)
        assert res.stats.wall_time_seconds < index.preprocess_seconds

    def test_landmark_validation(self, graph):
        with pytest.raises(SearchError):
            EmbeddingIndex(graph, RWR(0.5), num_landmarks=0)


class TestClusterIndex:
    @pytest.fixture(scope="class")
    def index(self, graph):
        return ClusterIndex(graph, target_cluster_size=300, seed=0)

    def test_partition_covers_graph(self, graph, index):
        # Every node has a cluster, and no cluster outgrows the target.
        clusters = [index.cluster_of(u) for u in range(graph.num_nodes)]
        assert min(clusters) >= 0
        assert max(np.bincount(clusters)) <= 300

    def test_query_stays_in_cluster_scale(self, graph, index):
        res = index.top_k(EI(0.5), 101, 10)
        assert res.stats.visited_nodes < graph.num_nodes
        assert not res.exact

    def test_reasonable_recall(self, graph, index):
        recalls = [
            recall(index.top_k(EI(0.5), q, 10), graph, EI(0.5), q, 10)
            for q in (3, 99, 512)
        ]
        assert np.mean(recalls) >= 0.5

    def test_constant_query_cost_across_k(self, graph, index):
        a = index.top_k(EI(0.5), 101, 1).stats.visited_nodes
        b = index.top_k(EI(0.5), 101, 20).stats.visited_nodes
        assert a == b

    def test_non_convergence_raises(self, index):
        with pytest.raises(ConvergenceError):
            index.top_k(EI(0.5), 101, 10, max_iterations=1)


class TestLSTHT:
    def test_high_recall_small_k(self):
        g = erdos_renyi(400, 1200, seed=51)
        res = ls_tht_top_k(g, THT(10), 5, 2)
        assert recall(res, g, THT(10), 5, 2) >= 0.5

    def test_bounds_contain_exact(self):
        g = erdos_renyi(400, 1200, seed=51)
        res = ls_tht_top_k(g, THT(10), 5, 5)
        exact = oracle_values(g, THT(10), 5)
        for node, lo, hi in zip(res.nodes, res.lower, res.upper):
            assert lo - 1e-9 <= exact[node] <= hi + 1e-9

    def test_budget_respected(self):
        g = rmat(9, 2000, seed=52)
        res = ls_tht_top_k(g, THT(10), 1, 3, budget=100)
        # One full ring may overshoot the budget, but not by more than
        # the last ring's width.
        assert res.stats.visited_nodes < g.num_nodes
