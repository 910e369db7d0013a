"""FLoS exactness against the brute-force oracle — the core guarantee.

The paper's headline claim is that FLoS returns the *exact* top-k while
visiting a small neighborhood.  These tests sweep measures × graph shapes
× parameters and require value-level agreement with the direct sparse
solve (tie tolerant, since rank order within numerically equal values is
arbitrary).
"""

import numpy as np
import pytest

from repro import FLoSOptions, flos_top_k
from repro.graph.generators import erdos_renyi, rmat
from tests.conftest import assert_topk_matches_oracle

OPTS = FLoSOptions(tau=1e-7)


class TestExactness:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_all_measures_on_er(self, measure, k):
        g = erdos_renyi(150, 450, seed=21)
        res = flos_top_k(g, measure, 7, k, options=OPTS)
        assert res.exact
        assert_topk_matches_oracle(g, measure, res, 7, k)

    @pytest.mark.parametrize("k", [2, 8])
    def test_all_measures_on_rmat(self, measure, k):
        g = rmat(8, 1200, seed=22)
        q = 5
        if g.degree(q) == 0:
            pytest.skip("isolated query in this seed")
        res = flos_top_k(g, measure, q, k, options=OPTS)
        assert_topk_matches_oracle(g, measure, res, q, k)

    def test_all_measures_on_structured(self, measure, any_graph):
        q = 0
        k = min(5, any_graph.num_nodes - 1)
        res = flos_top_k(any_graph, measure, q, k, options=OPTS)
        assert_topk_matches_oracle(any_graph, measure, res, q, k)

    @pytest.mark.parametrize("tighten", [True, False])
    @pytest.mark.parametrize("adaptive", [True, False])
    def test_option_grid_preserves_exactness(self, tighten, adaptive):
        from repro.measures import PHP

        g = erdos_renyi(120, 360, seed=23)
        opts = FLoSOptions(
            tau=1e-7, tighten=tighten, adaptive_batching=adaptive
        )
        res = flos_top_k(g, PHP(0.5), 11, 6, options=opts)
        assert_topk_matches_oracle(g, PHP(0.5), res, 11, 6)

    @pytest.mark.parametrize("batch", [1, 4, 32])
    def test_expand_batch_preserves_exactness(self, batch, monkeypatch):
        from repro.core import flos
        from repro.measures import RWR

        g = rmat(7, 500, seed=24)
        monkeypatch.setattr(flos, "EXPAND_BATCH", batch)
        opts = FLoSOptions(tau=1e-7, adaptive_batching=False)
        res = flos_top_k(g, RWR(0.5), 1, 5, options=opts)
        assert_topk_matches_oracle(g, RWR(0.5), res, 1, 5)

    @pytest.mark.parametrize("param", [0.2, 0.5, 0.9])
    def test_parameter_sweep_php(self, param):
        from repro.measures import PHP

        g = erdos_renyi(100, 300, seed=25, weighted=True)
        res = flos_top_k(g, PHP(param), 3, 5, options=OPTS)
        assert_topk_matches_oracle(g, PHP(param), res, 3, 5)

    @pytest.mark.parametrize("param", [0.2, 0.8])
    def test_parameter_sweep_rwr(self, param):
        from repro.measures import RWR

        g = erdos_renyi(100, 300, seed=26)
        res = flos_top_k(g, RWR(param), 3, 5, options=OPTS)
        assert_topk_matches_oracle(g, RWR(param), res, 3, 5)

    @pytest.mark.parametrize("horizon", [3, 6, 12])
    def test_parameter_sweep_tht(self, horizon):
        from repro.measures import THT

        g = erdos_renyi(100, 300, seed=27)
        res = flos_top_k(g, THT(horizon), 3, 4, options=OPTS)
        assert_topk_matches_oracle(g, THT(horizon), res, 3, 4)

    def test_weighted_graph_exactness(self, measure):
        g = erdos_renyi(90, 270, seed=28, weighted=True)
        res = flos_top_k(g, measure, 13, 5, options=OPTS)
        assert_topk_matches_oracle(g, measure, res, 13, 5)

    def test_many_random_query_nodes(self):
        from repro.measures import PHP

        g = rmat(8, 1500, seed=29)
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 8:
            q = int(rng.integers(0, g.num_nodes))
            if g.degree(q) == 0:
                continue
            res = flos_top_k(g, PHP(0.5), q, 4, options=OPTS)
            assert_topk_matches_oracle(g, PHP(0.5), res, q, 4)
            checked += 1


class TestLocality:
    def test_php_visits_small_fraction_on_large_graph(self):
        from repro.measures import PHP

        g = erdos_renyi(20_000, 60_000, seed=30)
        res = flos_top_k(g, PHP(0.5), 77, 10)
        assert res.exact
        assert res.stats.visited_nodes < g.num_nodes * 0.2
        assert res.stats.visited_nodes >= 11

    def test_visited_stats_populated(self):
        from repro.measures import PHP

        g = erdos_renyi(500, 1500, seed=31)
        res = flos_top_k(g, PHP(0.5), 0, 5)
        s = res.stats
        assert s.visited_nodes > 0
        assert s.expansions > 0
        assert s.solver_iterations > 0
        assert s.neighbor_queries >= s.visited_nodes
        assert s.wall_time_seconds > 0
        assert 0 < s.visited_ratio(g.num_nodes) <= 1
