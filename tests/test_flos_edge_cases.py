"""Edge cases, options validation, and failure modes of the FLoS API."""

import numpy as np
import pytest

from repro import DHT, EI, PHP, RWR, THT, FLoSOptions, flos_top_k
from repro.core import flos
from repro.core.basic_search import basic_top_k
from repro.core.flos import PHPSpaceEngine
from repro.core.flos_tht import THTEngine
from repro.errors import (
    BudgetExceededError,
    NodeNotFoundError,
    SearchError,
)
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    paper_example_graph,
    path_graph,
    star_graph,
)
from repro.graph.memory import CSRGraph
from repro.measures import solve_direct
from repro.measures.base import Direction, Measure


class TestOptionsValidation:
    def test_bad_tau(self):
        with pytest.raises(SearchError, match="tau"):
            FLoSOptions(tau=0.0)

    def test_batch_schedule(self, monkeypatch):
        g = path_graph(3)

        def engine(cls, adaptive):
            options = FLoSOptions(adaptive_batching=adaptive)
            if cls is THTEngine:
                return THTEngine(g, 0, 1, horizon=10, options=options)
            return PHPSpaceEngine(g, 0, 1, decay=0.5, options=options)

        php = engine(PHPSpaceEngine, True)
        assert php._round_batches(5)[0] == 1
        assert php._round_batches(240)[0] == 10
        assert php._round_batches(10**9)[0] == flos.MAX_BATCH == 4096
        # The growth rule is the bound model's: THT grows by |S| / 4.
        tht = engine(THTEngine, True)
        assert tht._round_batches(240)[0] == 60
        assert tht._round_batches(10**9)[0] == flos.MAX_BATCH
        fixed = [engine(cls, False) for cls in (PHPSpaceEngine, THTEngine)]
        assert [e._round_batches(10**6)[0] for e in fixed] == [1, 1]
        # The schedule constants and the divisor are read at call time.
        monkeypatch.setattr(flos, "EXPAND_BATCH", 3)
        monkeypatch.setattr(PHPSpaceEngine, "growth_divisor", 10)
        assert php._round_batches(5)[0] == 3
        assert php._round_batches(100)[0] == 10
        assert [e._round_batches(10**6)[0] for e in fixed] == [3, 3]


class TestQueryValidation:
    def test_bad_query_node(self):
        g = path_graph(5)
        with pytest.raises(NodeNotFoundError):
            flos_top_k(g, PHP(0.5), 99, 2)

    def test_bad_k(self):
        g = path_graph(5)
        with pytest.raises(SearchError, match="k must be"):
            flos_top_k(g, PHP(0.5), 0, 0)

    def test_unsupported_measure(self):
        class Weird(Measure):
            name = "weird"
            direction = Direction.HIGHER_IS_CLOSER

            def matrix_recursion(self, graph, q):
                raise NotImplementedError

        g = path_graph(5)
        with pytest.raises(SearchError, match="not supported"):
            flos_top_k(g, Weird(), 0, 2)


class TestDegenerateGraphs:
    def test_isolated_query(self):
        g = CSRGraph.from_edges(4, [(1, 2)])
        res = flos_top_k(g, PHP(0.5), 0, 3)
        assert len(res.nodes) == 0
        assert res.exhausted_component
        assert res.exact

    def test_component_smaller_than_k(self):
        g = CSRGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        res = flos_top_k(g, PHP(0.5), 0, 5)
        assert res.exhausted_component
        assert set(map(int, res.nodes)) == {1, 2}

    def test_k_equals_component(self, measure):
        g = path_graph(4)
        res = flos_top_k(g, measure, 0, 3)
        assert set(map(int, res.nodes)) == {1, 2, 3}
        assert not res.exhausted_component

    def test_two_node_graph(self, measure):
        g = path_graph(2)
        res = flos_top_k(g, measure, 0, 1)
        assert list(res.nodes) == [1]

    def test_star_hub_query(self, measure):
        g = star_graph(10)
        res = flos_top_k(g, measure, 0, 5)
        assert len(res.nodes) == 5
        assert all(1 <= n <= 10 for n in res.nodes)

    def test_complete_graph_all_tied(self):
        g = complete_graph(8)
        res = flos_top_k(g, PHP(0.5), 0, 3)
        # All non-query nodes are exactly tied; any 3 are a valid answer.
        exact = solve_direct(PHP(0.5), g, 0)
        others = np.delete(np.arange(8), 0)
        np.testing.assert_allclose(
            exact[res.nodes], exact[others[:3]], atol=1e-9
        )


class TestBudget:
    def test_budget_exceeded_raises(self):
        g = erdos_renyi(2000, 6000, seed=40)
        with pytest.raises(BudgetExceededError) as err:
            flos_top_k(
                g, RWR(0.5), 0, 20, options=FLoSOptions(max_visited=50)
            )
        assert err.value.budget == 50

    def test_generous_budget_ok(self):
        g = erdos_renyi(300, 900, seed=41)
        res = flos_top_k(
            g, PHP(0.5), 0, 3, options=FLoSOptions(max_visited=400)
        )
        assert res.exact


class TestResultContainer:
    def test_result_fields(self):
        g = paper_example_graph()
        res = flos_top_k(g, PHP(0.5), 0, 3)
        assert res.measure_name == "PHP"
        assert res.query == 0 and res.k == 3
        assert len(res) == 3
        assert np.all(res.lower <= res.upper + 1e-12)
        assert "PHP" in repr(res)

    def test_native_value_directions(self):
        g = paper_example_graph()
        php = flos_top_k(g, PHP(0.5), 0, 3)
        assert np.all(np.diff(php.values) <= 1e-9)  # descending
        dht = flos_top_k(g, DHT(0.5), 0, 3)
        assert np.all(np.diff(dht.values) >= -1e-9)  # ascending
        tht = flos_top_k(g, THT(10), 0, 3)
        assert np.all(np.diff(tht.values) >= -1e-9)

    def test_ei_native_scale(self):
        g = paper_example_graph()
        res = flos_top_k(g, EI(0.5), 0, 3, options=FLoSOptions(tau=1e-9))
        exact = solve_direct(EI(0.5), g, 0)
        for node, lo, hi in zip(res.nodes, res.lower, res.upper):
            assert lo - 1e-6 <= exact[node] <= hi + 1e-6


class TestBasicSearch:
    """Algorithm 1 with oracle proximities equals brute-force top-k."""

    def test_matches_oracle_no_local_optimum(self, measure):
        if measure.name == "RWR":
            pytest.skip("RWR has local maxima (Lemma 8)")
        g = erdos_renyi(120, 360, seed=42)
        q, k = 9, 8
        exact = solve_direct(measure, g, q)
        result = basic_top_k(g, measure, exact, q, k)
        oracle = measure.top_k_from_vector(exact, q, k)
        np.testing.assert_allclose(
            np.sort(exact[result]), np.sort(exact[oracle]), atol=1e-12
        )

    def test_rwr_counterexample(self):
        """Lemma 8: RWR has local maxima, so Algorithm 1 can fail.

        Construction: a path q - a - hub where the hub carries many
        leaves.  With a small restart probability the hub's
        degree-weighted score exceeds a's, so the true top-1 is the hub
        at distance 2 — but greedy frontier absorption must take ``a``
        first and return it as the answer.  This is exactly why
        FLoS_RWR needs the Theorem 6 detour instead of Theorem 1.
        """
        leaves = 20
        edges = [(0, 1), (1, 2)] + [(2, 3 + i) for i in range(leaves)]
        g = CSRGraph.from_edges(3 + leaves, edges)
        measure = RWR(0.1)
        exact = solve_direct(measure, g, 0)
        oracle = measure.top_k_from_vector(exact, 0, 1)
        assert list(oracle) == [2]  # the hub wins under RWR
        result = basic_top_k(g, measure, exact, 0, 1)
        assert list(result) == [1]  # greedy returns the roadblock node
        # The hub is a local maximum: it beats all of its neighbors,
        # violating the premise of Theorem 1 (Definition 1).
        ids, _ = g.neighbors(2)
        assert all(exact[2] > exact[int(v)] for v in ids)

    def test_validation(self):
        g = path_graph(4)
        exact = solve_direct(PHP(0.5), g, 0)
        with pytest.raises(SearchError, match="k must be"):
            basic_top_k(g, PHP(0.5), exact, 0, 0)
        with pytest.raises(SearchError, match="length"):
            basic_top_k(g, PHP(0.5), exact[:2], 0, 1)
