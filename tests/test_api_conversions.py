"""Tests for the native-value conversion layer of the public API.

FLoS computes bounds in PHP space; the API converts them to each
measure's native values via the locally-computable scale factors
(Theorems 2 and 6).  These tests pin the conversion identities
themselves and the resulting native bounds.
"""

import numpy as np
import pytest

from repro import DHT, EI, PHP, RWR, FLoSOptions, flos_top_k
from repro.graph.generators import erdos_renyi
from repro.measures import solve_direct

TIGHT = FLoSOptions(tau=1e-10)


@pytest.fixture(scope="module")
def setup():
    g = erdos_renyi(150, 450, seed=77, weighted=True)
    q = 13
    php = solve_direct(PHP(0.5), g, q)  # decay 0.5 = 1 - c for c = 0.5
    return g, q, php


class TestQueryScaleFactors:
    """The scale factors are exactly EI(q) resp. RWR(q)/w_q."""

    def test_ei_scale_is_ei_of_query(self, setup):
        g, q, php = setup
        ids, probs = g.transition_probabilities(q)
        scale = EI(0.5).query_scale(g.degree(q), probs, php[ids])
        ei = solve_direct(EI(0.5), g, q)
        assert scale == pytest.approx(ei[q], rel=1e-9)

    def test_rwr_scale_is_rwr_of_query_over_degree(self, setup):
        g, q, php = setup
        ids, probs = g.transition_probabilities(q)
        scale = RWR(0.5).query_scale(g.degree(q), probs, php[ids])
        rwr = solve_direct(RWR(0.5), g, q)
        assert scale == pytest.approx(rwr[q] / g.degree(q), rel=1e-9)

    def test_php_and_dht_scales_are_constant(self, setup):
        g, q, php = setup
        ids, probs = g.transition_probabilities(q)
        assert PHP(0.5).query_scale(g.degree(q), probs, php[ids]) == 1.0
        assert DHT(0.5).query_scale(g.degree(q), probs, php[ids]) == 1.0


class TestFromPhp:
    def test_php_identity(self):
        assert PHP(0.5).from_php(0.3, 7.0, 99.0) == 0.3

    def test_ei_scaling(self):
        assert EI(0.5).from_php(0.3, 7.0, 2.0) == pytest.approx(0.6)

    def test_dht_affine(self):
        assert DHT(0.5).from_php(0.3, 7.0, 1.0) == pytest.approx(1.4)

    def test_rwr_degree_scaling(self):
        assert RWR(0.5).from_php(0.3, 7.0, 2.0) == pytest.approx(4.2)


class TestNativeBounds:
    """End to end: reported native bounds contain the exact values."""

    @pytest.mark.parametrize("cls", [EI, DHT, RWR])
    def test_bounds_contain_exact(self, setup, cls):
        g, q, _ = setup
        measure = cls(0.5)
        res = flos_top_k(g, measure, q, 6, options=TIGHT)
        exact = solve_direct(measure, g, q)
        for node, lo, hi in zip(res.nodes, res.lower, res.upper):
            assert lo - 1e-7 <= exact[node] <= hi + 1e-7

    def test_dht_bounds_are_ordered(self, setup):
        g, q, _ = setup
        res = flos_top_k(g, DHT(0.5), q, 6, options=TIGHT)
        assert np.all(res.lower <= res.upper + 1e-12)
        # DHT is ascending: the best node has the smallest value.
        assert res.values[0] == min(res.values)

    def test_values_are_midpoints(self, setup):
        g, q, _ = setup
        res = flos_top_k(g, EI(0.5), q, 6, options=TIGHT)
        np.testing.assert_allclose(
            res.values, 0.5 * (res.lower + res.upper)
        )


class TestMeasureMeta:
    def test_params_strings(self):
        assert PHP(0.5).params() == "c=0.5"
        assert EI(0.25).params() == "c=0.25"
        assert DHT(0.75).params() == "c=0.75"
        assert RWR(0.5).params() == "c=0.5"
        from repro.measures import THT

        assert THT(10).params() == "L=10"

    def test_reprs_mention_class(self):
        assert "PHP" in repr(PHP(0.5))
        assert "RWR" in repr(RWR(0.5))

    def test_php_decay_mapping(self):
        # PHP uses c directly; EI/DHT/RWR use 1 - c (Theorems 2 and 6).
        assert PHP(0.3).php_decay == 0.3
        assert EI(0.3).php_decay == pytest.approx(0.7)
        assert DHT(0.3).php_decay == pytest.approx(0.7)
        assert RWR(0.3).php_decay == pytest.approx(0.7)
