"""White-box tests of the FLoS engine internals (paper Secs. 5.1–5.3)."""

import math

import numpy as np
import pytest

from repro.core import flos
from repro.core.flos import FLoSDriver, FLoSOptions, PHPSpaceEngine
from repro.core.flos_tht import THTEngine
from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    paper_example_graph,
    rmat,
)
from repro.measures import PHP, THT, solve_direct

def run_engine(graph, q, k, **opts):
    options = FLoSOptions(audit="record", **opts)
    engine = PHPSpaceEngine(graph, q, k, decay=0.5, options=options)
    outcome = engine.run()
    return engine, outcome


class TestDummyValue:
    """Algorithm 5 line 7: r_d must always dominate unvisited values."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dummy_dominates_unvisited_exact_values(self, seed):
        g = erdos_renyi(120, 360, seed=seed)
        q = 5
        exact = solve_direct(PHP(0.5), g, q)
        engine, outcome = run_engine(
            g, q, 4, adaptive_batching=False, tighten=False
        )
        for snap in outcome.audit.snapshots:
            unvisited = np.setdiff1d(np.arange(g.num_nodes), snap.nodes)
            if len(unvisited):
                assert snap.dummy_value >= exact[unvisited].max() - 1e-9

    def test_dummy_monotone_non_increasing(self):
        g = rmat(7, 500, seed=3)
        engine, outcome = run_engine(g, 1, 5, adaptive_batching=False)
        dummies = [s.dummy_value for s in outcome.audit.snapshots]
        assert all(b <= a + 1e-12 for a, b in zip(dummies, dummies[1:]))


class TestBoundMonotonicity:
    """Sec. 5.2: per-node bounds move monotonically across expansions."""

    @pytest.mark.parametrize("tighten", [True, False])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_php_bounds_monotone(self, seed, tighten):
        g = erdos_renyi(100, 300, seed=seed)
        # Monotonicity holds for the exact bound fixed points; the
        # warm-started solver truncates at tau, so per-iteration values
        # may jitter within the solver tolerance.
        tau = 1e-9
        _, outcome = run_engine(
            g, 2, 4, adaptive_batching=False, tighten=tighten, tau=tau
        )
        snaps = outcome.audit.snapshots
        for a, b in zip(snaps, snaps[1:]):
            assert np.all(b.lower[: a.size] >= a.lower - 10 * tau)
            assert np.all(b.upper[: a.size] <= a.upper + 10 * tau)

    def test_bounds_always_sandwich_exact(self):
        g = rmat(7, 600, seed=5)
        q = 0
        if g.degree(q) == 0:
            pytest.skip("isolated seed")
        exact = solve_direct(PHP(0.5), g, q)
        _, outcome = run_engine(g, q, 5, tighten=True)
        for snap in outcome.audit.snapshots:
            assert np.all(snap.lower <= exact[snap.nodes] + 1e-7)
            assert np.all(snap.upper >= exact[snap.nodes] - 1e-7)


class TestTightening:
    """Sec. 5.3: self-loop tightening improves (or matches) both bounds."""

    def test_bounds_tighter_at_equal_visited_sets(self):
        g = paper_example_graph()
        _, plain = run_engine(
            g, 0, 2, tighten=False, adaptive_batching=False
        )
        _, tight = run_engine(
            g, 0, 2, tighten=True, adaptive_batching=False
        )
        # Compare the first iteration (identical visited sets {1,2,3}).
        p0, t0 = plain.audit.snapshots[0], tight.audit.snapshots[0]
        np.testing.assert_array_equal(p0.nodes, t0.nodes)
        assert np.all(t0.lower >= p0.lower - 1e-12)
        assert np.all(t0.upper <= p0.upper + 1e-12)
        # And strictly better somewhere (boundary nodes gain self-loops).
        assert np.any(
            (t0.lower > p0.lower + 1e-12) | (t0.upper < p0.upper - 1e-12)
        )


class TestTHTEngineInternals:
    @pytest.fixture(autouse=True)
    def local_schedule(self, monkeypatch):
        # These tests read the local THT search (its bounds, rounds and
        # ball), which on a CSRGraph would switch to the global DP.
        monkeypatch.setattr(flos, "ROUND_CHARGE", -np.inf)

    def test_lower_dummy_progression(self):
        """The step-indexed THT lower dummy must stay below every
        unvisited node's true step value — checked via the final bounds
        sandwiching the exact THT."""
        g = erdos_renyi(90, 270, seed=7)
        q = 3
        exact = solve_direct(THT(8), g, q)
        engine = THTEngine(
            g, q, 3, horizon=8, options=FLoSOptions(audit="record")
        )
        outcome = engine.run()
        for snap in outcome.audit.snapshots:
            assert np.all(snap.lower <= exact[snap.nodes] + 1e-9)
            assert np.all(snap.upper >= exact[snap.nodes] - 1e-9)

    def test_tht_upper_bound_capped_at_horizon(self):
        g = rmat(6, 150, seed=8)
        q = 0
        if g.degree(q) == 0:
            pytest.skip("isolated seed")
        engine = THTEngine(
            g, q, 2, horizon=6, options=FLoSOptions(audit="record")
        )
        outcome = engine.run()
        for snap in outcome.audit.snapshots:
            assert np.all(snap.upper <= 6.0 + 1e-12)

    # THT refreshes restart the DP from zero, so its rounds grow
    # geometrically (``THTEngine.growth_divisor`` = 4, not 24).

    @staticmethod
    def tht_run(g, q, k):
        outcome = THTEngine(g, q, k, horizon=10).run()
        rounds = outcome.stats.solver_iterations // (2 * 10)
        top = set(outcome.view.global_ids()[outcome.top_locals].tolist())
        return outcome, rounds, top

    def test_rounds_logarithmic_when_certificate_needs_the_component(
        self, monkeypatch
    ):
        # A sparse ER graph: THT's spectrum is compressed near the k-th
        # value, so the certificate only closes near the whole component.
        g = erdos_renyi(3000, 4500, seed=5)
        outcome, rounds, top = self.tht_run(g, 1418, 20)
        assert outcome.exact and outcome.stats.visited_nodes > 2500
        bound = math.log(outcome.stats.visited_nodes) / math.log(1.25)
        assert rounds <= bound
        # The PHP-space growth rule takes far more rounds on this search.
        monkeypatch.setattr(THTEngine, "growth_divisor", 24)
        _, slow_rounds, slow_top = self.tht_run(g, 1418, 20)
        assert slow_rounds > bound
        assert slow_top == top

    @pytest.mark.parametrize("q", [60 * 120 + 60, 1926])
    def test_grid_locality_cost_bounded(self, q, monkeypatch):
        # A small THT ball: the coarser rounds may overshoot it a little.
        g = grid_graph(120, 120)
        fast, _, fast_top = self.tht_run(g, q, 20)
        monkeypatch.setattr(THTEngine, "growth_divisor", 24)
        slow, _, slow_top = self.tht_run(g, q, 20)
        assert fast.stats.visited_nodes <= 1.15 * slow.stats.visited_nodes
        assert fast_top == slow_top


class TestExpansionSchedule:
    def test_paper_schedule_expands_one_node(self):
        g = erdos_renyi(80, 240, seed=9)
        engine, outcome = run_engine(g, 1, 3, adaptive_batching=False)
        for snap in outcome.audit.snapshots:
            assert len(snap.expanded) <= 1

    def test_adaptive_schedule_grows(self):
        g = erdos_renyi(3000, 12000, seed=10)
        engine, outcome = run_engine(g, 1, 20, adaptive_batching=True)
        batches = [len(s.expanded) for s in outcome.audit.snapshots]
        if max(batches) > 1:
            assert max(batches) > batches[0]

    def test_fewer_refreshes_with_adaptive(self):
        g = erdos_renyi(2000, 8000, seed=11)
        _, fixed = run_engine(g, 1, 10, adaptive_batching=False)
        _, adaptive = run_engine(g, 1, 10, adaptive_batching=True)
        assert len(adaptive.audit.snapshots) <= len(fixed.audit.snapshots)

    @pytest.mark.parametrize("k", [8, 20])
    def test_shortfall_rounds_settle_k_quickly(self, k):
        # Alg. 6 needs k settled candidates; shortfall rounds expand at
        # least the missing count, so the certificate can start testing
        # within a logarithmic number of rounds instead of ~k.
        g = grid_graph(40, 40)
        q = 20 * 40 + 20
        _, outcome = run_engine(g, q, k)
        rounds = None
        for snap in outcome.audit.snapshots:
            visited = set(snap.nodes.tolist())
            settled = sum(
                all(int(u) in visited for u in g.neighbors(v)[0])
                for v in visited
                if v != q
            )
            if settled >= k:
                rounds = snap.iteration
                break
        assert rounds is not None
        assert rounds <= math.ceil(math.log2(k)) + 2

    @pytest.mark.parametrize("k", [20, 50])
    def test_shortfall_rounds_at_most_double_the_ball(self, k):
        g = rmat(11, 16000, seed=3)
        hub = int(np.argmax(g.degrees))
        engine, outcome = run_engine(g, hub, k)
        size, shortfall_rounds = 1, 0
        for snap in outcome.audit.snapshots:
            if len(snap.expanded) > engine._round_batches(size)[0]:
                shortfall_rounds += 1
                assert snap.size - size <= size  # newly visited nodes
            size = snap.size
        assert shortfall_rounds > 0


class TestLazyCap:
    def test_cap_read_only_when_no_visited_rival_blocks(self, monkeypatch):
        """Alg. 6 reads the unvisited cap only once no visited rival
        blocks; an exact, unaudited finish reads it not at all."""
        g = erdos_renyi(300, 900, seed=3)
        # RWR with c = 0.9: PHP decay 1 - c, ranked by degree.
        engine = PHPSpaceEngine(
            g, 7, 10, decay=0.1, degree_weighted=True, options=FLoSOptions()
        )
        calls = []
        real_cap = PHPSpaceEngine._unvisited_cap

        def counted_cap(self, boundary):
            calls.append(len(boundary))
            return real_cap(self, boundary)

        monkeypatch.setattr(PHPSpaceEngine, "_unvisited_cap", counted_cap)
        blocked = []

        def recorded_rounds():
            for step in FLoSDriver.rounds(engine):
                blocked.append(step.blocked)
                yield step

        engine.rounds = recorded_rounds
        outcome = engine.run()
        assert outcome.exact and not outcome.exhausted_component
        assert engine.view.boundary_mask().any()
        assert "rival" in blocked  # a round the lazy read skips
        assert len(calls) == sum(b in ("cap", None) for b in blocked)


class TestStatsAccounting:
    def test_solver_iterations_accumulate(self):
        g = erdos_renyi(150, 450, seed=12)
        engine, outcome = run_engine(g, 1, 5)
        assert outcome.stats.solver_iterations >= 2 * len(
            outcome.audit.snapshots
        )

    def test_neighbor_queries_match_visited(self):
        g = erdos_renyi(150, 450, seed=13)
        engine, outcome = run_engine(g, 1, 5)
        assert outcome.stats.neighbor_queries == outcome.stats.visited_nodes


class TestOneDriver:
    """Both engines are bound models of one driver."""

    DRIVER_STEPS = (
        "rounds",
        "_round_batches",
        "_select_expansion",
        "_expand",
        "_eligible_mask",
        "_top",
        "_rival",
        "_cap",
        "_certify",
        "_switch_budget",
        "_global_finish",
        "_finish",
    )

    @pytest.mark.parametrize("cls", [PHPSpaceEngine, THTEngine])
    def test_models_define_no_driver_step(self, cls):
        assert issubclass(cls, FLoSDriver)
        # Every listed step exists, so a rename cannot empty the check.
        assert set(self.DRIVER_STEPS) <= set(FLoSDriver.__dict__)
        assert not set(self.DRIVER_STEPS) & set(cls.__dict__)

    @pytest.mark.parametrize("cls", [PHPSpaceEngine, THTEngine])
    def test_models_own_their_entry_points(self, cls):
        # Per-class wrappers (span tracers) swap ``cls.__dict__`` entries.
        assert "__init__" in cls.__dict__
        assert cls.__dict__["run"] is FLoSDriver.run
