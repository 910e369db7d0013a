"""Anytime search: soft budgets, graceful degradation, certificates.

The contract under test (docs/serving.md "Deadlines and graceful
degradation"):

* ``on_budget="degrade"`` turns both budgets — ``max_visited`` and
  ``deadline_seconds`` — into soft budgets: on exhaustion the search
  returns an anytime :class:`TopKResult` with ``exact=False`` instead
  of raising;
* the per-node ``[lower, upper]`` intervals of an anytime result are
  *still certified*: the oracle proximity of every returned node lies
  inside its interval, for all five measures;
* ``stats.termination`` names the budget that fired and
  ``stats.bound_gap`` the residual certificate gap;
* ``on_budget="raise"`` (the default) preserves the historical
  ``BudgetExceededError`` behaviour byte-for-byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    RWR,
    FLoSOptions,
    QueryOverrides,
    QuerySession,
    flos_top_k,
)
from repro.core import flos
from repro.core import session as session_mod
from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    DeadlineExceededError,
)
from repro.graph.generators import erdos_renyi, rmat
from repro.measures import PHP, solve_direct

from .conftest import expire_deadline_after_first_round

QUERY, K = 7, 5
DEADLINE_1MS_DEGRADE = QueryOverrides(deadline_seconds=0.001, on_budget="degrade")


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(300, 900, seed=3)


@pytest.fixture(scope="module")
def hard_graph():
    """R-MAT graph on which exact RWR certification is far from local."""
    return rmat(10, 5_000, seed=13)


def assert_bounds_contain_oracle(graph, measure, result, *, atol=1e-9):
    exact = solve_direct(measure, graph, result.query)
    assert len(result.nodes), "anytime result should not be empty"
    for i, node in enumerate(result.nodes):
        assert (
            result.lower[i] - atol <= exact[node] <= result.upper[i] + atol
        ), (
            f"{measure.name}: certified interval "
            f"[{result.lower[i]}, {result.upper[i]}] does not contain the "
            f"oracle value {exact[node]} of node {int(node)}"
        )


class TestVisitedBudgetDegradation:
    def test_bounds_contain_oracle_all_measures(self, graph, measure):
        """Degraded results stay certified for all five measures."""
        options = FLoSOptions(max_visited=15, on_budget="degrade")
        result = flos_top_k(graph, measure, QUERY, K, options=options)
        assert result.exact is False
        assert result.stats.termination == "visited_budget"
        assert result.stats.visited_nodes <= 15 + flos.MAX_BATCH
        assert result.stats.bound_gap >= 0.0
        assert_bounds_contain_oracle(graph, measure, result)

    def test_raise_preserves_budget_exceeded_error(self, graph, measure):
        """Default policy: byte-for-byte the historical exception."""
        options = FLoSOptions(max_visited=15)  # on_budget defaults to raise
        with pytest.raises(BudgetExceededError) as excinfo:
            flos_top_k(graph, measure, QUERY, K, options=options)
        err = excinfo.value
        assert err.budget == 15
        assert err.visited > 15
        assert str(err) == (
            f"search visited {err.visited} nodes, exceeding its budget of "
            "15 before the termination criterion was met"
        )

    def test_more_budget_never_worse(self, graph):
        """The residual gap closes as the budget grows, reaching 0 (exact)."""
        measure = RWR(0.5)
        gaps = []
        for budget in (15, 60, None):
            options = FLoSOptions(max_visited=budget, on_budget="degrade")
            result = flos_top_k(graph, measure, QUERY, K, options=options)
            gaps.append(result.stats.bound_gap)
        assert gaps[0] > 0.0
        assert gaps[-1] == 0.0  # unbounded run is exact

    def test_degraded_result_ranked_by_midpoint(self, graph):
        options = FLoSOptions(max_visited=20, on_budget="degrade")
        result = flos_top_k(graph, PHP(0.5), QUERY, K, options=options)
        mids = 0.5 * (result.lower + result.upper)
        assert np.all(np.diff(mids) <= 1e-12)  # closest (largest) first


class TestDeadline:
    def test_hard_rwr_instance_degrades_and_stays_certified(
        self, hard_graph, monkeypatch
    ):
        """Acceptance criterion: 1 ms deadline on a hard RWR instance.

        The instance certifies in a few ms, so the deadline is driven by
        a clock that expires it after the first round.
        """
        measure = RWR(0.9)
        baseline = flos_top_k(hard_graph, measure, QUERY, K)
        assert baseline.exact

        anytime = flos_top_k(
            hard_graph,
            measure,
            QUERY,
            K,
            options=FLoSOptions(
                **expire_deadline_after_first_round(monkeypatch, 0.001),
                on_budget="degrade",
            ),
        )
        assert anytime.exact is False
        assert anytime.stats.termination == "deadline"
        assert anytime.stats.visited_nodes < baseline.stats.visited_nodes
        assert anytime.stats.bound_gap > 0.0
        assert_bounds_contain_oracle(hard_graph, measure, anytime)

        # Without a deadline the very same call is exact and identical.
        again = flos_top_k(
            hard_graph,
            measure,
            QUERY,
            K,
            options=FLoSOptions(on_budget="degrade"),
        )
        assert again.exact
        assert list(again.nodes) == list(baseline.nodes)
        np.testing.assert_array_equal(again.values, baseline.values)
        np.testing.assert_array_equal(again.lower, baseline.lower)
        np.testing.assert_array_equal(again.upper, baseline.upper)

    def test_deadline_bounded_overshoot(self, hard_graph):
        """The search stops within iterations, not at the exact instant."""
        import time

        started = time.perf_counter()
        result = flos_top_k(
            hard_graph,
            RWR(0.9),
            QUERY,
            K,
            options=FLoSOptions(deadline_seconds=0.001, on_budget="degrade"),
        )
        elapsed = time.perf_counter() - started
        assert result.exact is False
        # Overshoot is one expansion + one bound refresh.  Generous CI
        # margin against a deadline the full search cannot beat.
        assert elapsed < 2.0

    def test_deadline_raise_policy(self, hard_graph):
        with pytest.raises(DeadlineExceededError) as excinfo:
            flos_top_k(
                hard_graph,
                RWR(0.9),
                QUERY,
                K,
                options=FLoSOptions(deadline_seconds=0.001),
            )
        assert excinfo.value.deadline == 0.001
        assert excinfo.value.elapsed >= 0.001

    def test_deadline_degrade_tht(self, hard_graph, monkeypatch):
        from repro.measures import THT

        # The local schedule: on this graph the global finish would
        # answer within the millisecond, before the deadline fires.
        monkeypatch.setattr(flos, "ROUND_CHARGE", -np.inf)
        measure = THT(10)
        result = flos_top_k(
            hard_graph,
            measure,
            QUERY,
            K,
            options=FLoSOptions(deadline_seconds=0.001, on_budget="degrade"),
        )
        assert result.exact is False
        assert result.stats.termination == "deadline"
        assert_bounds_contain_oracle(hard_graph, measure, result)


class TestDeadlineAfterFirstRound:
    """A deadline that fires at its first check, between rounds, where
    nothing refreshes: the anytime result is assembled from the bounds
    of round 1.  A patched clock makes the firing deterministic."""

    def test_degrade(self, graph, measure, monkeypatch):
        options = FLoSOptions(
            **expire_deadline_after_first_round(monkeypatch),
            adaptive_batching=False,
            on_budget="degrade",
            audit="record",
        )
        result = flos_top_k(graph, measure, QUERY, K, options=options)
        assert result.exact is False
        assert result.stats.termination == "deadline"
        assert result.stats.expansions == 1
        assert result.stats.bound_gap > 0.0
        assert result.audit.violations == []
        assert len(result.audit.snapshots) == 1
        assert_bounds_contain_oracle(graph, measure, result)

    def test_raise(self, graph, monkeypatch):
        options = FLoSOptions(
            **expire_deadline_after_first_round(monkeypatch, deadline=2.0),
            adaptive_batching=False,
        )
        with pytest.raises(DeadlineExceededError) as excinfo:
            flos_top_k(graph, PHP(0.5), QUERY, K, options=options)
        assert excinfo.value.elapsed == 20.0
        assert excinfo.value.deadline == 2.0


class TestOptionValidation:
    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ConfigurationError, match="deadline_seconds"):
            FLoSOptions(deadline_seconds=0.0)
        with pytest.raises(ConfigurationError, match="deadline_seconds"):
            FLoSOptions(deadline_seconds=-1.0)

    def test_unknown_on_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="on_budget"):
            FLoSOptions(on_budget="panic")

    def test_infinite_deadline_is_valid(self):
        # float("inf") is the documented way to lift a session deadline
        # for one call.
        FLoSOptions(deadline_seconds=float("inf")).validate()


class TestSessionIntegration:
    def test_per_call_deadline_override(self, hard_graph):
        session = QuerySession(hard_graph, RWR(0.9))
        degraded = session.top_k(
            QUERY, K, overrides=DEADLINE_1MS_DEGRADE
        )
        assert degraded.exact is False
        m = session.metrics()
        assert m.degraded_results == 1
        assert m.terminations == {"deadline": 1}

    def test_degraded_results_never_cached(self, hard_graph):
        session = QuerySession(hard_graph, RWR(0.9))
        first = session.top_k(
            QUERY, K, overrides=DEADLINE_1MS_DEGRADE
        )
        assert first.exact is False
        assert session.cache_size == 0
        second = session.top_k(
            QUERY, K, overrides=DEADLINE_1MS_DEGRADE
        )
        assert second is not first  # recomputed, not replayed
        assert session.metrics().cache_hits == 0

    def test_exact_results_still_cached_alongside(self, graph):
        session = QuerySession(graph, PHP(0.5))
        exact = session.top_k(QUERY, K)
        assert exact.exact and session.cache_size == 1
        replay = session.top_k(QUERY, K)
        # Cache hits are served as defensive copies, never the cached
        # object itself — equal in value, distinct in identity.
        assert replay is not exact
        assert np.array_equal(replay.nodes, exact.nodes)
        assert np.allclose(replay.values, exact.values)
        assert session.metrics().cache_hits == 1

    def test_session_level_degrade_policy(self, graph):
        session = QuerySession(
            graph,
            PHP(0.5),
            options=FLoSOptions(max_visited=15, on_budget="degrade"),
        )
        result = session.top_k(QUERY, K)
        assert result.exact is False
        assert session.metrics().terminations == {"visited_budget": 1}

    def test_batch_deadline_bounds_every_query(self, hard_graph):
        batch = QuerySession(
            hard_graph, "rwr", cache_size=0, c=0.9
        ).top_k_many([QUERY, 11, 23], K, overrides=DEADLINE_1MS_DEGRADE)
        assert len(batch) == 3
        assert not batch.all_exact
        for result in batch:
            assert result.stats.termination in ("exact", "deadline")

    def test_slow_query_log_records_terminations(self, graph, monkeypatch):
        monkeypatch.setattr(session_mod, "SLOW_LOG_SIZE", 2)
        session = QuerySession(graph, PHP(0.5))
        for q in (QUERY, 11, 23, 42):
            session.top_k(q, K)
        slow = session.slow_queries()
        assert len(slow) == 2  # capped at SLOW_LOG_SIZE
        assert slow[0]["wall_seconds"] >= slow[1]["wall_seconds"]
        assert {"query", "k", "wall_seconds", "visited_nodes",
                "termination", "exact"} <= set(slow[0])
