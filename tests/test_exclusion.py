"""Tests for query-time node exclusion (the recommendation use-case)."""

import numpy as np
import pytest

from repro import DHT, EI, PHP, RWR, THT, FLoSOptions, flos_top_k
from repro.graph.generators import erdos_renyi, paper_example_graph
from repro.graph.memory import CSRGraph
from repro.measures import solve_direct


def oracle_excluding(graph, measure, q, k, exclude):
    values = solve_direct(measure, graph, q)
    order = measure.top_k_from_vector(values, q, graph.num_nodes - 1)
    kept = [int(v) for v in order if int(v) not in exclude][:k]
    return kept, values


class TestExclusion:
    def test_excluded_nodes_absent(self):
        g = paper_example_graph()
        res = flos_top_k(g, PHP(0.8), 0, 2, exclude={1, 2})
        assert res.node_set().isdisjoint({1, 2})

    @pytest.mark.parametrize("measure_cls", [PHP, RWR])
    def test_matches_filtered_oracle(self, measure_cls):
        g = erdos_renyi(200, 600, seed=90)
        measure = measure_cls(0.5)
        q, k = 11, 5
        direct = flos_top_k(g, measure, q, k + 3)
        exclude = {int(direct.nodes[0]), int(direct.nodes[2])}
        res = flos_top_k(g, measure, q, k, exclude=exclude)
        oracle, values = oracle_excluding(g, measure, q, k, exclude)
        np.testing.assert_allclose(
            np.sort(values[res.nodes]), np.sort(values[oracle]), atol=1e-5
        )
        assert res.node_set().isdisjoint(exclude)

    def test_tht_exclusion(self):
        g = erdos_renyi(150, 450, seed=91)
        base = flos_top_k(g, THT(10), 4, 3)
        exclude = {int(base.nodes[0])}
        res = flos_top_k(g, THT(10), 4, 3, exclude=exclude)
        oracle, values = oracle_excluding(g, THT(10), 4, 3, exclude)
        np.testing.assert_allclose(
            np.sort(values[res.nodes]), np.sort(values[oracle]), atol=1e-6
        )

    def test_excluded_nodes_still_carry_walk_mass(self):
        """Exclusion must not alter proximity values — a path through an
        excluded node still counts."""
        g = paper_example_graph()
        full = flos_top_k(g, PHP(0.8), 0, 3)
        res = flos_top_k(g, PHP(0.8), 0, 2, exclude={int(full.nodes[0])})
        exact = solve_direct(PHP(0.8), g, 0)
        for node, lo, hi in zip(res.nodes, res.lower, res.upper):
            assert lo - 1e-6 <= exact[node] <= hi + 1e-6

    def test_exclude_everything_reachable(self):
        g = paper_example_graph()
        res = flos_top_k(g, PHP(0.5), 0, 3, exclude=set(range(1, 8)))
        assert len(res.nodes) == 0
        assert res.exhausted_component

    def test_exclude_none_is_default(self):
        g = erdos_renyi(100, 300, seed=92)
        a = flos_top_k(g, PHP(0.5), 5, 4)
        b = flos_top_k(g, PHP(0.5), 5, 4, exclude=set())
        assert list(a.nodes) == list(b.nodes)


# Query 0 reaches the clique {1, 2} through two weak edges and the path
# 3-4 through a strong one.  Excluding 3 leaves it on the boundary once
# {1, 2} are settled, and its unvisited neighbour 4 is closer than 1.
# True PHP(0.5) is [1, .0101, .0104, .2857, .1429]; true THT(10) is
# [0, 9.55, 9.54, 2.91, 3.88].  The answer with 3 excluded is {4, 2}.
GATEWAY = CSRGraph.from_edges(
    5,
    [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)],
    weights=[0.01, 0.011, 1.0, 1.0, 1.0],
)


@pytest.mark.parametrize("audit", ["off", "check"])
@pytest.mark.parametrize(
    "measure",
    [PHP(0.5), EI(0.5), DHT(0.5), RWR(0.5), THT(10)],
    ids=lambda m: type(m).__name__,
)
def test_excluded_boundary_node_still_caps_unvisited_rivals(measure, audit):
    res = flos_top_k(
        GATEWAY, measure, 0, 2, exclude={3},
        options=FLoSOptions(audit=audit),
    )
    oracle, _ = oracle_excluding(GATEWAY, measure, 0, 2, {3})
    assert res.exact
    assert res.node_set() == set(oracle)
