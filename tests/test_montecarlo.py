"""Cross-validation of the algebraic solvers against sampled walks."""

import numpy as np
import pytest

from repro.errors import MeasureError
from repro.graph.generators import erdos_renyi, paper_example_graph, path_graph
from repro.measures import PHP, RWR, solve_direct
from tests.montecarlo import monte_carlo_php, monte_carlo_rwr


class TestMonteCarloRWR:
    def test_converges_to_exact(self):
        g = erdos_renyi(60, 180, seed=1)
        q = 7
        exact = solve_direct(RWR(0.5), g, q)
        est = monte_carlo_rwr(g, q, restart=0.5, num_walks=40_000, seed=0)
        # Total variation distance shrinks like 1/sqrt(walks).
        assert 0.5 * np.abs(est - exact).sum() < 0.05

    def test_distribution_sums_to_one(self):
        g = paper_example_graph()
        est = monte_carlo_rwr(g, 0, num_walks=1000, seed=1)
        assert est.sum() == pytest.approx(1.0)

    def test_top1_matches_exact(self):
        g = erdos_renyi(50, 150, seed=2)
        q = 3
        exact = solve_direct(RWR(0.5), g, q)
        est = monte_carlo_rwr(g, q, num_walks=30_000, seed=2)
        oracle = RWR(0.5).top_k_from_vector(exact, q, 1)
        sampled = RWR(0.5).top_k_from_vector(est, q, 1)
        assert exact[sampled[0]] >= exact[oracle[0]] * 0.8

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(MeasureError):
            monte_carlo_rwr(g, 0, restart=0.0)
        with pytest.raises(MeasureError):
            monte_carlo_rwr(g, 0, num_walks=0)


class TestMonteCarloPHP:
    def test_path_example(self):
        """Sec. 4.1 values: PHP on the 3-path with c=0.5 is [1, 2/7, 1/7]."""
        g = path_graph(3)
        est, err = monte_carlo_php(
            g, 0, 1, decay=0.5, num_walks=30_000, seed=3
        )
        assert est == pytest.approx(2 / 7, abs=4 * max(err, 1e-3))

    def test_query_itself(self):
        g = path_graph(3)
        est, err = monte_carlo_php(g, 0, 0, num_walks=10)
        assert est == 1.0 and err == 0.0

    def test_matches_exact_on_example_graph(self):
        g = paper_example_graph()
        exact = solve_direct(PHP(0.5), g, 0)
        for node in (1, 2, 3):
            est, err = monte_carlo_php(
                g, 0, node, decay=0.5, num_walks=20_000, seed=node
            )
            assert est == pytest.approx(exact[node], abs=5 * max(err, 1e-3))

    def test_unreachable_start(self):
        from repro.graph.memory import CSRGraph

        g = CSRGraph.from_edges(4, [(0, 1), (2, 3)])
        est, err = monte_carlo_php(g, 0, 2, num_walks=500, seed=4)
        assert est == 0.0

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(MeasureError):
            monte_carlo_php(g, 0, 1, decay=1.5)


class TestRandomnessContract:
    """The seed parameter: int replays, None is fresh, Generator is used."""

    def test_same_int_replays_identical_walks(self):
        g = erdos_renyi(40, 120, seed=4)
        a = monte_carlo_rwr(g, 2, num_walks=500, seed=11)
        b = monte_carlo_rwr(g, 2, num_walks=500, seed=11)
        assert np.array_equal(a, b)

    def test_generator_is_used_as_passed_and_advances(self):
        g = erdos_renyi(40, 120, seed=4)
        gen = np.random.default_rng(11)
        first = monte_carlo_rwr(g, 2, num_walks=500, seed=gen)
        second = monte_carlo_rwr(g, 2, num_walks=500, seed=gen)
        # State advanced: the two calls consumed different stream spans.
        assert not np.array_equal(first, second)
        # And the pair replays from a fresh generator with the same seed.
        gen2 = np.random.default_rng(11)
        assert np.array_equal(first, monte_carlo_rwr(g, 2, num_walks=500, seed=gen2))
        assert np.array_equal(second, monte_carlo_rwr(g, 2, num_walks=500, seed=gen2))

    def test_php_same_contract(self):
        g = erdos_renyi(40, 120, seed=4)
        a = monte_carlo_php(g, 2, 5, num_walks=400, seed=9)
        assert a == monte_carlo_php(g, 2, 5, num_walks=400, seed=9)
        gen = np.random.default_rng(9)
        x = monte_carlo_php(g, 2, 5, num_walks=400, seed=gen)
        y = monte_carlo_php(g, 2, 5, num_walks=400, seed=gen)
        assert x != y  # generator state advanced between calls


class TestSpawnRngs:
    def test_reproducible_and_distinct(self):
        from tests.montecarlo import spawn_rngs

        a = spawn_rngs(7, 4)
        b = spawn_rngs(7, 4)
        draws_a = [r.random(3).tolist() for r in a]
        draws_b = [r.random(3).tolist() for r in b]
        assert draws_a == draws_b  # same seed -> same children
        flat = [tuple(d) for d in draws_a]
        assert len(set(flat)) == 4  # children are independent streams

    def test_spawn_from_generator(self):
        from tests.montecarlo import spawn_rngs

        children = spawn_rngs(np.random.default_rng(3), 3)
        assert len(children) == 3
        draws = {tuple(r.random(2)) for r in children}
        assert len(draws) == 3

    def test_negative_count_rejected(self):
        from tests.montecarlo import spawn_rngs

        with pytest.raises(MeasureError):
            spawn_rngs(0, -1)


class TestManyStarts:
    def test_reproducible_and_matches_exact(self):
        from tests.montecarlo import monte_carlo_php_many

        g = erdos_renyi(40, 120, seed=4)
        starts = [1, 2, 3]
        many = monte_carlo_php_many(
            g, 0, starts, decay=0.5, num_walks=8000, seed=5
        )
        again = monte_carlo_php_many(
            g, 0, starts, decay=0.5, num_walks=8000, seed=5
        )
        assert many == again
        exact = solve_direct(PHP(0.5), g, 0)
        for (est, err), node in zip(many, starts):
            assert est == pytest.approx(exact[node], abs=5 * max(err, 1e-3))
