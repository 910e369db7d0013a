"""Unit tests for the proximity measure definitions."""

import numpy as np
import pytest

from repro.errors import MeasureError
from repro.graph.generators import paper_example_graph, path_graph
from repro.measures import DHT, EI, PHP, RWR, THT, solve_direct
from repro.measures.base import Direction


class TestPHP:
    def test_paper_section41_example(self):
        """Sec. 4.1: path 1-2-3, c = 0.5 → r = [1, 2/7, 1/7]."""
        r = solve_direct(PHP(0.5), path_graph(3), 0)
        np.testing.assert_allclose(r, [1.0, 2 / 7, 1 / 7])

    def test_query_value_is_one(self):
        g = paper_example_graph()
        assert PHP(0.5).query_value(g, 0) == 1.0
        r = solve_direct(PHP(0.5), g, 0)
        assert r[0] == pytest.approx(1.0)

    def test_values_in_unit_interval(self):
        g = paper_example_graph()
        r = solve_direct(PHP(0.8), g, 2)
        assert np.all(r >= 0) and np.all(r <= 1.0)

    def test_decay_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(MeasureError):
                PHP(bad)

    def test_direction(self):
        assert PHP(0.5).direction is Direction.HIGHER_IS_CLOSER
        assert PHP(0.5).rank_descending()

    def test_query_row_absorbing(self):
        g = paper_example_graph()
        m, e = PHP(0.5).matrix_recursion(g, 3)
        assert m[3].nnz == 0
        assert e[3] == 1.0 and e.sum() == 1.0


class TestEI:
    def test_query_value_closed_form(self):
        g = paper_example_graph()
        r = solve_direct(EI(0.5), g, 0)
        # EI(q) = c/w_q + (1-c) Σ p_qj EI(j) — check the recursion at q.
        ids, probs = g.transition_probabilities(0)
        rhs = 0.5 / g.degree(0) + 0.5 * float(probs @ r[ids])
        assert r[0] == pytest.approx(rhs)

    def test_all_nodes_recursion(self):
        g = paper_example_graph()
        r = solve_direct(EI(0.3), g, 1)
        for i in range(8):
            if i == 1:
                continue
            ids, probs = g.transition_probabilities(i)
            assert r[i] == pytest.approx(0.7 * float(probs @ r[ids]))


class TestDHT:
    def test_direction_lower(self):
        assert DHT(0.5).direction is Direction.LOWER_IS_CLOSER
        assert not DHT(0.5).rank_descending()

    def test_query_value_zero(self):
        g = paper_example_graph()
        r = solve_direct(DHT(0.5), g, 0)
        assert r[0] == 0.0

    def test_bounded_by_sup(self):
        g = paper_example_graph()
        r = solve_direct(DHT(0.4), g, 0)
        assert np.all(r < 1 / 0.4)

    def test_isolated_node_pinned_at_sup(self):
        from repro.graph.memory import CSRGraph

        g = CSRGraph.from_edges(4, [(0, 1), (1, 2)])
        r = solve_direct(DHT(0.5), g, 0)
        assert r[3] == pytest.approx(2.0)  # 1/c, unreachable


class TestTHT:
    def test_horizon_validation(self):
        with pytest.raises(MeasureError):
            THT(0)

    def test_fixed_iterations(self):
        assert THT(7).fixed_iterations == 7

    def test_beyond_horizon_is_exactly_l(self):
        g = path_graph(20)
        r = solve_direct(THT(5), g, 0)
        assert r[10] == pytest.approx(5.0)
        assert r[19] == pytest.approx(5.0)

    def test_within_horizon_below_l(self):
        g = path_graph(20)
        r = solve_direct(THT(5), g, 0)
        assert r[1] < 5.0

    def test_monotone_in_horizon(self):
        g = paper_example_graph()
        r5 = solve_direct(THT(5), g, 0)
        r10 = solve_direct(THT(10), g, 0)
        assert np.all(r10 >= r5 - 1e-12)

    def test_isolated_node_pinned_at_horizon(self):
        from repro.graph.memory import CSRGraph

        g = CSRGraph.from_edges(4, [(0, 1), (1, 2)])
        r = solve_direct(THT(10), g, 0)
        assert r[3] == pytest.approx(10.0)


class TestRWR:
    def test_probability_mass_sums_to_one(self):
        g = paper_example_graph()
        r = solve_direct(RWR(0.5), g, 0)
        assert r.sum() == pytest.approx(1.0)

    def test_restart_probability_influence(self):
        g = paper_example_graph()
        high = solve_direct(RWR(0.9), g, 0)
        low = solve_direct(RWR(0.1), g, 0)
        assert high[0] > low[0]  # stronger restart concentrates on q

    def test_degree_weighting_flags(self):
        assert RWR(0.5).uses_degree_weighting()
        assert not PHP(0.5).uses_degree_weighting()


class TestTopKFromVector:
    def test_descending_with_tie_break(self):
        values = np.array([0.5, 0.9, 0.9, 0.1])
        top = PHP(0.5).top_k_from_vector(values, 0, 2)
        assert list(top) == [1, 2]  # ties by node id

    def test_ascending_for_dht(self):
        values = np.array([0.0, 3.0, 1.0, 2.0])
        top = DHT(0.5).top_k_from_vector(values, 0, 2)
        assert list(top) == [2, 3]

    def test_query_excluded(self):
        values = np.array([9.0, 0.2, 0.3])
        top = PHP(0.5).top_k_from_vector(values, 0, 2)
        assert 0 not in top

    def test_closer(self):
        # Larger is closer for PHP, smaller for DHT (Sec. 3.1).
        assert PHP(0.5).rank_descending()
        assert not DHT(0.5).rank_descending()
