"""End-to-end reproduction of the paper's running example (Figs 1–4, Table 3).

These tests pin the reproduction to the paper's own published numbers:
the Sec. 4.1 worked example of transition-probability surgery, Table 3's
expansion order, and Figure 4's early termination with node 8 unvisited.
"""

import numpy as np
import pytest

from repro import PHP, FLoSOptions, flos_top_k
from repro.graph.generators import paper_example_graph, path_graph
from repro.graph.memory import CSRGraph
from repro.measures import solve_direct


class TestSection41Surgery:
    """Figure 2's deletion and destination-change examples, c = 0.5."""

    def test_original_values(self):
        r = solve_direct(PHP(0.5), path_graph(3), 0)
        np.testing.assert_allclose(r, [1, 2 / 7, 1 / 7])

    def test_deletion_example(self):
        """Deleting p_{2,3} gives r' = [1, 1/4, 1/8] (Theorem 3 example)."""
        g = path_graph(3)
        m, e = PHP(0.5).matrix_recursion(g, 0)
        m = m.tolil()
        m[1, 2] = 0.0  # delete the transition 2→3 (0-based: 1→2)
        import scipy.sparse.linalg as spla
        import scipy.sparse as sp

        r = spla.spsolve(sp.identity(3, format="csc") - m.tocsc(), e)
        np.testing.assert_allclose(r, [1, 1 / 4, 1 / 8])
        # Theorem 3: no proximity increased.
        original = solve_direct(PHP(0.5), g, 0)
        assert np.all(r <= original + 1e-12)

    def test_destination_change_example(self):
        """Moving p_{3,2} to the query gives r' = [1, 3/8, 1/2] (Thm 5)."""
        g = path_graph(3)
        m, e = PHP(0.5).matrix_recursion(g, 0)
        m = m.tolil()
        m[2, 0] = m[2, 1]
        m[2, 1] = 0.0
        import scipy.sparse.linalg as spla
        import scipy.sparse as sp

        r = spla.spsolve(sp.identity(3, format="csc") - m.tocsc(), e)
        np.testing.assert_allclose(r, [1, 3 / 8, 1 / 2])
        original = solve_direct(PHP(0.5), g, 0)
        assert np.all(r >= original - 1e-12)  # destination was closer


class TestTable3AndFigure4:
    """The full FLoS walkthrough: q = 1, PHP, c = 0.8."""

    @pytest.fixture
    def trace(self):
        g = paper_example_graph()
        # The walkthrough uses the plain (untightened) bounds and
        # single-node expansion, like the paper's Algorithms 2-7; the
        # audit trail records one bound snapshot per refresh.
        result = flos_top_k(
            g,
            PHP(0.8),
            0,
            2,
            options=FLoSOptions(
                audit="record", tighten=False, adaptive_batching=False
            ),
        )
        return g, result, result.audit.snapshots

    def test_table3_expansion_order(self, trace):
        _, _, snaps = trace
        sizes = [1] + [snap.size for snap in snaps]
        newly = [
            tuple(sorted(int(v) + 1 for v in snap.nodes[prev:snap.size]))
            for prev, snap in zip(sizes, snaps)
        ]
        # Table 3 (1-based): {2,3}, {4}, {5}, {6,7}; iteration 5 ({8})
        # never happens because termination fires at iteration 4.
        assert newly == [(2, 3), (4,), (5,), (6, 7)]

    def test_terminates_with_node8_unvisited(self, trace):
        _, result, snaps = trace
        assert result.exact
        assert 7 not in set(snaps[-1].nodes.tolist())  # paper node 8
        assert result.stats.visited_nodes == 7

    def test_top2_is_nodes_2_and_3(self, trace):
        _, result, _ = trace
        assert result.node_set() == {1, 2}  # paper nodes 2 and 3
        assert result.exact

    def test_bounds_sandwich_exact_at_every_iteration(self, trace):
        g, _, snaps = trace
        exact = solve_direct(PHP(0.8), g, 0)
        for snap in snaps:
            assert np.all(snap.lower <= exact[snap.nodes] + 1e-9)
            assert np.all(snap.upper >= exact[snap.nodes] - 1e-9)

    def test_figure4_monotone_bounds(self, trace):
        """Fig. 4 (left): lower bounds never decrease, uppers never
        increase, across local expansions."""
        _, _, snaps = trace
        for earlier, later in zip(snaps, snaps[1:]):
            n = earlier.size  # local ids are append-only
            assert np.all(later.lower[:n] >= earlier.lower - 1e-9)
            assert np.all(later.upper[:n] <= earlier.upper + 1e-9)

    def test_dummy_value_monotone_non_increasing(self, trace):
        _, _, snaps = trace
        dummies = [snap.dummy_value for snap in snaps]
        assert all(b <= a + 1e-12 for a, b in zip(dummies, dummies[1:]))

    def test_tightened_bounds_terminate_no_later(self):
        g = paper_example_graph()
        plain = flos_top_k(
            g, PHP(0.8), 0, 2,
            options=FLoSOptions(tighten=False, adaptive_batching=False),
        )
        tight = flos_top_k(
            g, PHP(0.8), 0, 2,
            options=FLoSOptions(tighten=True, adaptive_batching=False),
        )
        assert tight.stats.visited_nodes <= plain.stats.visited_nodes
        assert tight.node_set() == plain.node_set() == {1, 2}
