"""THT's global finish: the ski-rental switch to the L-step DP.

``FLoSDriver.run`` counts each round's local work and, once it reaches
the cost of the bound model's global solve, finishes with it.  For THT
on a ``CSRGraph`` that is the ``L``-step DP over every node (GI_THT).
These tests pin what the switch must keep: the answers, the stop rules
that fire before it, the audit, and the substrates and options that
never switch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import flos
from repro.core import flos_tht
from repro.core.flos import FLoSOptions
from repro.core.flos_tht import THTEngine
from repro.core.kernels import tht_global_dp
from repro.core.session import QuerySession
from repro.errors import AuditError, BudgetExceededError
from repro.graph.disk import DiskGraph, write_disk_graph
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi, grid_graph, rmat
from repro.measures import THT, solve_direct

from .conftest import (
    assert_topk_matches_oracle,
    expire_deadline_after_first_round,
)

L = 10
# Sparse ER: THT's certificate needs most of the component, and the
# graph is small enough that the global DP costs less than one round.
GRAPH = erdos_renyi(400, 1200, seed=5)
QUERY, K = 3, 5


def tht_top_k(graph, query=QUERY, k=K, *, exclude=None, **options):
    session = QuerySession(
        graph, "tht", horizon=L, options=FLoSOptions(**options), cache_size=0
    )
    return session.top_k(query, k, exclude=exclude)


@pytest.fixture
def local_path(monkeypatch):
    """Run the search with the switch off: the local schedule."""

    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(flos, "ROUND_CHARGE", -np.inf)
            return tht_top_k(*args, **kwargs)

    return run


def same_answer(a, b):
    """Equal results in everything but wall time."""
    np.testing.assert_array_equal(a.nodes, b.nodes)
    np.testing.assert_array_equal(a.lower, b.lower)
    np.testing.assert_array_equal(a.upper, b.upper)
    assert a.exact == b.exact
    da, db = a.stats.to_dict(), b.stats.to_dict()
    da.pop("wall_time_seconds"), db.pop("wall_time_seconds")
    assert da == db


class TestKernel:
    @pytest.mark.parametrize("horizon", [1, 3, 10])
    def test_matches_the_measure(self, horizon):
        # Isolated nodes included: they sit at L.
        g = erdos_renyi(60, 50, seed=1)
        assert (g.degrees == 0).any()
        for q in np.flatnonzero(g.degrees > 0)[:5]:
            np.testing.assert_allclose(
                tht_global_dp(g, int(q), horizon),
                solve_direct(THT(horizon), g, int(q)),
                rtol=0,
                atol=1e-12,
            )

    def test_component_labels_are_cached(self):
        g = erdos_renyi(60, 50, seed=1)
        labels = g.component_labels()
        assert g.component_labels() is labels
        assert not labels.flags.writeable
        assert not g.is_connected() and grid_graph(3, 4).is_connected()


class TestSwitch:
    def test_switched_result_says_so(self):
        res = tht_top_k(GRAPH, audit="record")
        stats = res.stats
        assert res.exact and stats.global_finish
        assert stats.termination == "exact" and stats.bound_gap == 0.0
        assert stats.visited_nodes == GRAPH.num_nodes
        assert stats.to_dict()["global_finish"] is True
        # The local rounds' DP steps, plus the global DP's L sweeps over
        # every row.
        sizes = [snap.size for snap in res.audit.snapshots]
        assert stats.solver_iterations == 2 * L * len(sizes) + L
        assert stats.rows_swept == 2 * L * sum(sizes) + L * GRAPH.num_nodes
        np.testing.assert_array_equal(res.lower, res.upper)

    def test_answers_match_the_local_path(self, local_path):
        for g in (GRAPH, rmat(9, 1500, seed=2), grid_graph(12, 12)):
            for q in np.flatnonzero(g.degrees > 0)[:4]:
                got = tht_top_k(g, int(q), 8, tie_epsilon=1e-9)
                want = local_path(g, int(q), 8, tie_epsilon=1e-9)
                assert got.stats.global_finish
                assert not want.stats.global_finish
                exact = assert_topk_matches_oracle(
                    g, THT(L), got, int(q), 8, atol=1e-8
                )
                # Equal sets, up to members tied with the k-th value.
                np.testing.assert_allclose(
                    np.sort(exact[got.nodes]),
                    np.sort(exact[want.nodes]),
                    rtol=0,
                    atol=1e-8,
                )

    def test_switches_once_the_work_reaches_the_global_cost(
        self, monkeypatch
    ):
        g = erdos_renyi(3000, 4500, seed=5)
        q, k = 1418, 20
        budget = L * 2 * g.num_edges
        charge = budget // 3
        monkeypatch.setattr(flos, "ROUND_CHARGE", charge)
        res = tht_top_k(g, q, k, audit="record")
        # Replay the rule over the local round stream.
        engine = THTEngine(g, q, k, horizon=L, options=FLoSOptions())
        work, expected = 0, None
        for i, step in enumerate(engine.rounds(), start=1):
            work += flos.RESTORE_WEIGHT * step.restored + charge
            work += step.sweeps * step.stored
            if work >= budget:
                expected = i
                break
        assert expected is not None and expected <= 3
        assert res.stats.global_finish
        assert len(res.audit.snapshots) == expected

    def test_a_local_ball_never_switches(self):
        # THT's ball at the centre of a large grid closes long before
        # its local work reaches ten products over the whole grid.
        g = grid_graph(300, 300)
        res = tht_top_k(g, 150 * 300 + 150, 20)
        assert res.exact and not res.stats.global_finish
        assert res.stats.visited_nodes < 1000

    def test_php_space_never_switches(self, monkeypatch):
        session = QuerySession(GRAPH, "rwr", c=0.5, cache_size=0)
        base = session.top_k(QUERY, K)
        monkeypatch.setattr(flos, "ROUND_CHARGE", 0)
        same_answer(session.top_k(QUERY, K), base)
        assert not base.stats.global_finish


class TestStopRulesAndScope:
    @pytest.mark.parametrize("budget", [100, GRAPH.num_nodes - 1])
    def test_visited_budget_below_the_graph_never_switches(
        self, budget, local_path
    ):
        options = dict(max_visited=budget, on_budget="degrade")
        got = tht_top_k(GRAPH, **options)
        assert not got.stats.global_finish
        assert got.exact == (budget > 100)  # 100 degrades
        same_answer(got, local_path(GRAPH, **options))

    def test_visited_budget_still_raises(self):
        with pytest.raises(BudgetExceededError):
            tht_top_k(GRAPH, max_visited=100)

    def test_visited_budget_of_the_whole_graph_still_switches(self):
        res = tht_top_k(GRAPH, max_visited=GRAPH.num_nodes)
        assert res.exact and res.stats.global_finish

    def test_deadline_fires_before_the_switch(self, monkeypatch):
        options = expire_deadline_after_first_round(monkeypatch)
        res = tht_top_k(GRAPH, on_budget="degrade", **options)
        assert not res.exact and res.stats.termination == "deadline"
        assert not res.stats.global_finish

    def test_exclude_is_honoured(self):
        nbrs = GRAPH.neighbors(QUERY)[0]
        barred = frozenset(int(v) for v in nbrs[: len(nbrs) // 2])
        res = tht_top_k(GRAPH, exclude=barred | {10**9})
        assert res.stats.global_finish
        assert not barred & set(res.nodes.tolist())
        truth = solve_direct(THT(L), GRAPH, QUERY)
        order = THT(L).top_k_from_vector(truth, QUERY, GRAPH.num_nodes)
        want = [int(v) for v in order if int(v) not in barred][:K]
        np.testing.assert_allclose(
            np.sort(truth[res.nodes]), np.sort(truth[want]), atol=1e-12
        )

    def test_small_component_is_returned_whole(self, local_path):
        g = erdos_renyi(60, 50, seed=1)
        labels = g.component_labels()
        q = int(np.flatnonzero(labels == 2)[0])  # a three-node component
        got, want = tht_top_k(g, q, 5), local_path(g, q, 5)
        assert got.stats.global_finish and got.exhausted_component
        assert want.exhausted_component
        assert set(got.nodes.tolist()) == set(want.nodes.tolist())
        assert set(got.nodes.tolist()) == set(
            np.flatnonzero(labels == 2).tolist()
        ) - {q}

    def test_paper_schedule_never_switches(self, local_path):
        got = tht_top_k(GRAPH, adaptive_batching=False)
        assert not got.stats.global_finish
        same_answer(got, local_path(GRAPH, adaptive_batching=False))

    def test_overlay_never_switches(self):
        res = tht_top_k(DynamicGraph(GRAPH))
        assert res.exact and not res.stats.global_finish

    def test_disk_store_never_switches(self, tmp_path):
        path = tmp_path / "g.flos"
        write_disk_graph(GRAPH, path)
        with DiskGraph(path) as disk:
            res = tht_top_k(disk)
        assert res.exact and not res.stats.global_finish

    def test_the_engine_decides_by_substrate(self):
        # The same decision without a session: the graph's type alone.
        def run(graph):
            return THTEngine(graph, QUERY, K, horizon=L).run()

        assert run(GRAPH).stats.global_finish
        assert not run(DynamicGraph(GRAPH)).stats.global_finish


class TestAudit:
    @pytest.mark.parametrize("mode", ["record", "check"])
    def test_switched_run_is_audited(self, mode):
        res = tht_top_k(GRAPH, audit=mode)
        report = res.audit
        assert res.stats.global_finish and report.ok
        cert = report.certificate
        # The certificate is replayed over the global vector.
        assert len(cert.lb_score) == GRAPH.num_nodes
        np.testing.assert_array_equal(np.sort(cert.top), np.sort(res.nodes))
        assert not cert.boundary.any() and cert.settled.all()

    @staticmethod
    def leaky_dp(graph, query, horizon):
        """The global DP with the query row left in: ``r[q]`` grows."""
        t = graph.transition_matrix()
        r = np.zeros(graph.num_nodes)
        for _ in range(horizon):
            r = t @ r + 1.0
        return r

    def test_planted_dp_bug_is_caught(self, monkeypatch):
        monkeypatch.setattr(flos_tht, "tht_global_dp", self.leaky_dp)
        with pytest.raises(AuditError, match="bracket"):
            tht_top_k(GRAPH, audit="check")
        res = tht_top_k(GRAPH, audit="record")
        assert res.stats.global_finish
        bracket = [v for v in res.audit.violations if v.check == "bracket"]
        assert bracket and res.stats.audit_violations >= len(bracket)
