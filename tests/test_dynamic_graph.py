"""Tests for the updatable graph overlay and FLoS-on-evolving-graphs."""

import numpy as np
import pytest

from repro import PHP, RWR, flos_top_k
from repro.errors import GraphError
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi, path_graph
from repro.measures import solve_direct


@pytest.fixture
def dyn():
    return DynamicGraph(path_graph(5))


class TestMutations:
    def test_add_new_edge(self, dyn):
        dyn.add_edge(0, 4, 2.0)
        assert dyn.has_edge(0, 4)
        assert dyn.edge_weight(4, 0) == 2.0
        assert dyn.num_edges == 5
        assert dyn.degree(0) == pytest.approx(3.0)

    def test_overwrite_weight(self, dyn):
        dyn.add_edge(0, 1, 5.0)  # base edge exists with weight 1
        assert dyn.num_edges == 4  # no new edge
        assert dyn.edge_weight(0, 1) == 5.0
        assert dyn.degree(0) == pytest.approx(5.0)
        assert dyn.degree(1) == pytest.approx(6.0)

    def test_remove_base_edge(self, dyn):
        dyn.remove_edge(1, 2)
        assert not dyn.has_edge(1, 2)
        assert dyn.num_edges == 3
        assert dyn.degree(1) == pytest.approx(1.0)
        ids, _ = dyn.neighbors(1)
        assert list(ids) == [0]

    def test_remove_delta_edge(self, dyn):
        dyn.add_edge(0, 3)
        dyn.remove_edge(0, 3)
        assert not dyn.has_edge(0, 3)
        assert dyn.num_edges == 4

    def test_re_add_after_remove(self, dyn):
        dyn.remove_edge(0, 1)
        dyn.add_edge(0, 1, 7.0)
        assert dyn.edge_weight(0, 1) == 7.0
        assert dyn.num_edges == 4

    def test_remove_missing_raises(self, dyn):
        with pytest.raises(GraphError, match="does not exist"):
            dyn.remove_edge(0, 4)

    def test_self_loop_rejected(self, dyn):
        with pytest.raises(GraphError, match="self loop"):
            dyn.add_edge(2, 2)

    def test_bad_weight_rejected(self, dyn):
        with pytest.raises(GraphError, match="positive"):
            dyn.add_edge(0, 3, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # A NaN delta weight used to read as a tombstone: the edge
        # vanished from neighbors() while degree() turned NaN.
        dyn = DynamicGraph(path_graph(4))
        with pytest.raises(GraphError, match="positive and finite"):
            dyn.add_edge(0, 2, bad)
        assert dyn.version == 0
        assert not dyn.has_edge(0, 2)
        assert list(dyn.neighbors(0)[0]) == [1]
        assert dyn.degree(0) == 1.0
        assert dyn.num_edges == 3

    def test_max_degree_tracks_updates(self, dyn):
        assert dyn.max_degree == 2.0
        dyn.add_edge(0, 2)
        dyn.add_edge(0, 3)
        dyn.add_edge(0, 4)
        assert dyn.max_degree == pytest.approx(4.0)
        dyn.remove_edge(0, 4)
        assert dyn.max_degree == pytest.approx(3.0)


class TestConsistencyWithRebuild:
    """Every query on the overlay must equal the same query on a graph
    rebuilt from scratch — the gold-standard consistency check."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_edit_sequence(self, seed):
        rng = np.random.default_rng(seed)
        base = erdos_renyi(60, 150, seed=seed)
        dyn = DynamicGraph(base)
        for _ in range(40):
            u = int(rng.integers(0, 60))
            v = int(rng.integers(0, 60))
            if u == v:
                continue
            if dyn.has_edge(u, v) and rng.random() < 0.5:
                dyn.remove_edge(u, v)
            else:
                dyn.add_edge(u, v, float(rng.uniform(0.5, 3.0)))
        rebuilt = dyn.compact()
        assert rebuilt.num_edges == dyn.num_edges
        for u in range(60):
            ids_d, w_d = dyn.neighbors(u)
            ids_r, w_r = rebuilt.neighbors(u)
            order_d = np.argsort(ids_d)
            np.testing.assert_array_equal(ids_d[order_d], ids_r)
            np.testing.assert_allclose(w_d[order_d], w_r)
            assert dyn.degree(u) == pytest.approx(rebuilt.degree(u))
        assert dyn.max_degree == pytest.approx(rebuilt.max_degree)


class TestFLoSOnDynamicGraph:
    def test_query_after_updates_matches_rebuilt_graph(self):
        base = erdos_renyi(300, 900, seed=9)
        dyn = DynamicGraph(base)
        rng = np.random.default_rng(1)
        for _ in range(30):
            u, v = (int(x) for x in rng.integers(0, 300, size=2))
            if u != v and not dyn.has_edge(u, v):
                dyn.add_edge(u, v)
        rebuilt = dyn.compact()
        q, k = 17, 6
        res_dyn = flos_top_k(dyn, PHP(0.5), q, k)
        exact = solve_direct(PHP(0.5), rebuilt, q)
        oracle = PHP(0.5).top_k_from_vector(exact, q, k)
        np.testing.assert_allclose(
            np.sort(exact[res_dyn.nodes]), np.sort(exact[oracle]), atol=1e-5
        )

    def test_update_changes_the_answer(self):
        """The headline scenario: an edge insertion immediately changes
        the certified top-1, with zero re-preprocessing."""
        g = path_graph(6)
        dyn = DynamicGraph(g)
        before = flos_top_k(dyn, PHP(0.5), 0, 1)
        assert list(before.nodes) == [1]
        # A heavy new edge makes node 5 the closest neighbor.
        dyn.add_edge(0, 5, 50.0)
        after = flos_top_k(dyn, PHP(0.5), 0, 1)
        assert list(after.nodes) == [5]

    def test_rwr_on_dynamic_graph(self):
        base = erdos_renyi(200, 600, seed=3)
        dyn = DynamicGraph(base)
        dyn.add_edge(0, 100, 4.0)
        rebuilt = dyn.compact()
        res = flos_top_k(dyn, RWR(0.5), 0, 5)
        exact = solve_direct(RWR(0.5), rebuilt, 0)
        oracle = RWR(0.5).top_k_from_vector(exact, 0, 5)
        np.testing.assert_allclose(
            np.sort(exact[res.nodes]), np.sort(exact[oracle]), atol=1e-5
        )

    def test_delta_bookkeeping(self):
        dyn = DynamicGraph(path_graph(4))
        assert dyn.num_delta_entries == 0
        dyn.add_edge(0, 2)
        assert dyn.num_delta_entries == 2  # both endpoints
