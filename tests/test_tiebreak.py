"""Deterministic tie-breaking by global node id.

When candidates are *exactly* tied the engines must break toward the
smallest global node id, regardless of local discovery order — the old
code ranked by local insertion order and returned whichever tied node
the expansion happened to visit last.  These graphs are built so the
rank-k boundary tie is exact by symmetry, with node ids deliberately
ordered against the BFS visitation order.

The rule only applies to bitwise ties.  The Jacobi refresh stops at a
τ-truncated fixed point where expansion order can leave the two
symmetric tails a few ulp apart.  Any tie-completing subset is a
correct answer there; what the contract guarantees is (a) exact ties
break by gid and (b) each query is deterministic run-to-run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import flos
from repro.core.flos import FLoSOptions
from repro.core.session import QuerySession
from repro.graph.memory import CSRGraph
from repro.nputil import top_k_indices

from .conftest import schedule_options
from .references import ScalarLocalView


@pytest.fixture
def scalar_view(monkeypatch):
    """Run the driver on the one-node-at-a-time restoration oracle."""
    monkeypatch.setattr(flos, "LocalView", ScalarLocalView)


def _serve(graph, query, k, *, measure="php", **options):
    mkw = {"horizon": 5} if measure == "tht" else {"c": 0.5}
    session = QuerySession(
        graph, measure=measure, **mkw, options=FLoSOptions(**options)
    )
    return session.top_k(query, k)


class TestTopKIndices:
    def test_exact_ties_break_to_low_gid(self):
        vals = np.array([0.5, 0.5, 0.3, 0.5])
        gids = np.array([7, 1, 3, 2])
        picked = top_k_indices(vals, gids, 2)
        assert sorted(int(gids[i]) for i in picked) == [1, 2]

    def test_ascending_direction(self):
        # Smaller-is-closer callers rank by negated scores.
        vals = np.array([2.0, 1.0, 1.0, 3.0])
        gids = np.array([9, 6, 4, 1])
        picked = top_k_indices(-vals, gids, 2)
        assert sorted(int(gids[i]) for i in picked) == [4, 6]

    def test_short_input_returns_everything(self):
        picked = top_k_indices(np.array([1.0, 2.0]), np.array([5, 3]), 6)
        assert len(picked) == 2


# Component of query 0 is {0, 1, 2, 7, 8}: two symmetric 2-hop tails
# 0-8-1 and 0-2-7, plus an unreachable 4-cycle so no node is isolated.
# Depth-1 pair {2, 8} and depth-2 pair {1, 7} are exactly tied by
# symmetry; BFS discovers 8 before 2 and 1 before 7, so insertion
# order and gid order disagree on both pairs.  The old local-order
# ranking returned {8, 2, 7}; the gid rule returns {1, 2, 8}.
EXHAUSTED = CSRGraph.from_edges(
    9, [(0, 8), (8, 1), (0, 2), (2, 7), (3, 4), (4, 5), (5, 6), (6, 3)]
)


# Refresh schedules the one Jacobi refresh is served under.  The ids are
# the names of the per-request solvers these tests used to span, so each
# case keeps its name; each now varies how the single path is driven.
# ``gauss_seidel`` (a tight tau) converges past the point where the two
# symmetric tails are still bitwise equal, so it only joins the sub-τ
# tie tests, as the Gauss-Seidel solver did.
SCHEDULES = {
    "jacobi": {},  # paper defaults
    "fused": {"adaptive_batching": False},  # one refresh per expansion
    "gauss_seidel": {"tau": 1e-9},  # tight convergence threshold
    "selective": {"EXPAND_BATCH": 8},  # large warm-started jumps
}
BITWISE_SCHEDULES = ["fused", "jacobi", "selective"]


class TestExhaustedComponentTies:
    @pytest.mark.parametrize("schedule", BITWISE_SCHEDULES)
    def test_gid_wins_over_discovery_order(self, schedule, monkeypatch):
        # These schedules preserve the symmetry bitwise: {1, 7} tie
        # exactly and the gid rule picks 1.
        options = schedule_options(monkeypatch, SCHEDULES[schedule])
        res = _serve(EXHAUSTED, 0, 3, **options)
        assert set(map(int, res.nodes)) == {1, 2, 8}
        assert res.exact

    def test_scalar_view_agrees(self, scalar_view):
        res = _serve(EXHAUSTED, 0, 3)
        assert set(map(int, res.nodes)) == {1, 2, 8}

    def test_tht_exact_dp_ties_break_by_gid(self):
        # THT bounds come from an exact finite-horizon DP, so symmetry
        # survives bitwise and the gid rule applies.
        res = _serve(EXHAUSTED, 0, 3, measure="tht")
        assert set(map(int, res.nodes)) == {1, 2, 8}

    def test_short_component_keeps_gid_order_in_output(self):
        # k exceeds the component: all four rivals come back, exact
        # ties listed in ascending-gid order within equal scores.
        res = _serve(EXHAUSTED, 0, 5)
        assert list(map(int, res.nodes)) == [2, 8, 1, 7]

    def test_audited(self):
        session = QuerySession(
            EXHAUSTED, measure="php", c=0.5, options=FLoSOptions(audit="check")
        )
        res = session.top_k(0, 3)
        assert res.audit is not None and res.audit.ok


# Two symmetric 4-hop tails 0-2-7-3-5 and 0-8-1-4-6: every depth-d
# pair is tied *in truth*, but the iterative engine's τ-truncation
# legitimately separates them by ~1e-6.
TWO_TAILS = CSRGraph.from_edges(
    10, [(0, 2), (2, 7), (7, 3), (3, 5), (0, 8), (8, 1), (1, 4), (4, 6)]
)


class TestSubTauTies:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_any_tie_completion_is_accepted_and_deterministic(
        self, schedule, monkeypatch
    ):
        options = schedule_options(monkeypatch, SCHEDULES[schedule])
        first = _serve(TWO_TAILS, 0, 3, **options)
        got = set(map(int, first.nodes))
        assert {2, 8} <= got
        assert got - {2, 8} <= {1, 7}
        # Deterministic run-to-run: same set, same order, same values.
        again = _serve(TWO_TAILS, 0, 3, **options)
        assert np.array_equal(first.nodes, again.nodes)
        assert np.array_equal(first.values, again.values)

    def test_k5_boundary(self):
        res = _serve(TWO_TAILS, 0, 5)
        got = set(map(int, res.nodes))
        assert {1, 2, 7, 8} <= got
        assert got - {1, 2, 7, 8} <= {3, 4}

    def test_tht_breaks_every_depth_pair_by_gid(self):
        res = _serve(TWO_TAILS, 0, 5, measure="tht")
        # Depth pairs {2,8}, {1,7} both returned; depth-3 tie {3,4}
        # is exact under the DP and breaks to gid 3.
        assert set(map(int, res.nodes)) == {1, 2, 3, 7, 8}
