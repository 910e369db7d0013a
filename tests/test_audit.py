"""The certification audit layer: checkers, recorder, engine wiring.

Covers the invariant catalogue of :mod:`repro.audit.invariants` as pure
units, the ``FLoSOptions.audit`` modes end to end through both engines,
and — most importantly — that a *deliberately corrupted* engine is
caught loudly instead of returning a plausible wrong answer.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.audit.invariants import (
    BoundSnapshot,
    CertificateRecord,
    check_bound_order,
    check_certificate,
    check_flags,
    check_monotone_evolution,
    check_sandwich,
)
from repro.core import flos
from repro.core.flos import FLoSOptions, PHPSpaceEngine
from repro.core.flos_tht import THTEngine
from repro.core.kernels import DualBoundKernel, THTDPKernel
from repro.core.session import QuerySession
from repro.errors import AuditError, ConfigurationError
from repro.graph.generators import erdos_renyi, grid_graph
from repro.measures import resolve_measure

from .conftest import expire_deadline_after_first_round, schedule_options

GRAPH = erdos_renyi(80, 240, seed=11)
QUERY = 3
K = 5

MEASURES = [
    ("php", {"c": 0.5}),
    ("ei", {"c": 0.5}),
    ("dht", {"c": 0.5}),
    ("rwr", {"c": 0.5}),
    ("tht", {"horizon": 5}),
]

# Refresh schedules the one Jacobi refresh is audited under.  The ids
# are the names of the per-request solvers this matrix used to span, so
# every case keeps its name; each now varies how the single path is
# driven instead of which solver runs.
SCHEDULES = {
    "jacobi": {},  # paper defaults
    "fused": {"adaptive_batching": False},  # one refresh per expansion
    "gauss_seidel": {"tau": 1e-9},  # tight convergence threshold
    "selective": {"EXPAND_BATCH": 8},  # large warm-started jumps
}


# One engine per bound model.
ENGINES = {"php": ("php", {"c": 0.5}), "tht": ("tht", {"horizon": 5})}

# Every path the driver refreshes on: ``(graph, k, options, termination)``.
REFRESH_PATHS = {
    "exact": (GRAPH, K, {}, "exact"),
    "visited_budget": (
        GRAPH,
        K,
        {"max_visited": 12, "on_budget": "degrade"},
        "visited_budget",
    ),
    # The deadline fires between rounds, where nothing refreshes; the
    # test drives it with a patched clock.
    "deadline": (GRAPH, K, {"on_budget": "degrade"}, "deadline"),
    "exhausted": (grid_graph(5, 5), 30, {}, "exact"),
}


def _session(measure, kwargs, graph=GRAPH, **options):
    return QuerySession(
        graph, measure=measure, **kwargs, options=FLoSOptions(**options)
    )


# ----------------------------------------------------------------------
# Unit tests of the checkers
# ----------------------------------------------------------------------


class TestBoundOrder:
    def test_clean(self):
        lower = np.array([0.1, 0.2])
        upper = np.array([0.3, 0.2])
        assert check_bound_order(lower, upper, slack=1e-9) == []

    def test_inversion_detected(self):
        lower = np.array([0.1, 0.5])
        upper = np.array([0.3, 0.2])
        out = check_bound_order(lower, upper, slack=1e-9, iteration=4)
        assert len(out) == 1
        assert out[0].check == "bound_order"
        assert out[0].iteration == 4
        assert out[0].node == 1

    def test_slack_tolerated(self):
        lower = np.array([0.300001])
        upper = np.array([0.3])
        assert check_bound_order(lower, upper, slack=1e-3) == []


class TestMonotoneEvolution:
    def _snap(self, it, lower, upper, dummy=1.0):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        return BoundSnapshot(
            iteration=it,
            lower=lower,
            upper=upper,
            dummy_value=dummy,
            size=len(lower),
            nodes=np.arange(len(lower)),
            expanded=np.empty(0, dtype=np.int64),
        )

    def test_tightening_is_clean(self):
        prev = self._snap(1, [0.1, 0.2], [0.9, 0.8])
        cur = self._snap(2, [0.15, 0.2, 0.0], [0.8, 0.7, 1.0], dummy=0.9)
        assert check_monotone_evolution(prev, cur, slack=1e-9) == []

    def test_lower_regression_detected(self):
        prev = self._snap(1, [0.5], [0.9])
        cur = self._snap(2, [0.3], [0.9])
        out = check_monotone_evolution(prev, cur, slack=1e-6)
        assert [v.check for v in out] == ["monotone"]
        assert "lower bound fell" in out[0].message

    def test_upper_rise_detected(self):
        prev = self._snap(1, [0.1], [0.5])
        cur = self._snap(2, [0.1], [0.7])
        out = check_monotone_evolution(prev, cur, slack=1e-6)
        assert "upper bound rose" in out[0].message

    def test_dummy_rise_detected(self):
        prev = self._snap(1, [0.1], [0.5], dummy=0.4)
        cur = self._snap(2, [0.1], [0.5], dummy=0.6)
        out = check_monotone_evolution(prev, cur, slack=1e-6)
        assert "dummy value rose" in out[0].message

    def test_only_common_prefix_compared(self):
        prev = self._snap(1, [0.5], [0.6])
        # New node at index 1 starts at trivial bounds — not a regression.
        cur = self._snap(2, [0.5, 0.0], [0.6, 1.0])
        assert check_monotone_evolution(prev, cur, slack=1e-9) == []


class TestSandwich:
    def test_truth_inside(self):
        out = check_sandwich(
            np.array([0.1]), np.array([0.3]), np.array([0.2]), slack=0.0
        )
        assert out == []

    def test_truth_outside_detected(self):
        out = check_sandwich(
            np.array([0.1, 0.4]),
            np.array([0.3, 0.6]),
            np.array([0.05, 0.7]),
            slack=1e-9,
            nodes=np.array([17, 23]),
        )
        assert len(out) == 2
        assert {v.node for v in out} == {17, 23}


def _php_cert(**overrides):
    base = dict(
        k=2,
        tie_epsilon=0.0,
        exact=True,
        exhausted=False,
        termination="exact",
        bound_gap=0.0,
        top=np.array([1, 2]),
        lb_score=np.array([1.0, 0.5, 0.4, 0.1, 0.05]),
        ub_score=np.array([1.0, 0.52, 0.42, 0.2, 0.3]),
        eligible=np.array([False, True, True, True, True]),
        settled=np.array([True, True, True, True, False]),
        boundary=np.array([False, False, False, False, True]),
        # Corollary 1: the largest boundary upper bound.
        unvisited_cap=0.3,
    )
    base.update(overrides)
    return CertificateRecord(**base)


class TestFlags:
    def test_exact_consistent(self):
        assert check_flags(_php_cert()) == []

    def test_exact_with_budget_reason(self):
        out = check_flags(_php_cert(termination="deadline"))
        assert any("termination reason" in v.message for v in out)

    def test_anytime_claiming_exact(self):
        out = check_flags(_php_cert(exact=False, termination="exact"))
        assert any("claims termination 'exact'" in v.message for v in out)

    def test_anytime_negative_gap(self):
        out = check_flags(
            _php_cert(exact=False, termination="deadline", bound_gap=-0.1)
        )
        assert any("negative bound_gap" in v.message for v in out)

    def test_unknown_termination_reason(self):
        # An engine record is consistent until its reason leaves
        # ``result.TERMINATION_REASONS`` (here the name of a retired
        # budget); no other flag rule reads the reason of an anytime run.
        session = _session(
            "php", {"c": 0.5}, audit="record", max_visited=12,
            on_budget="degrade",
        )
        cert = session.top_k(QUERY, K).audit.certificate
        assert not cert.exact and check_flags(cert) == []
        planted = dataclasses.replace(cert, termination="iteration_budget")
        out = check_flags(planted)
        assert [v.message for v in out] == [
            "unknown termination reason 'iteration_budget'"
        ]


class TestCertificateReplay:
    def test_valid_certificate(self):
        # ub_score[3] = 0.2 < min_top lb 0.4; boundary node 4's ub 0.3
        # is also a rival and also below — the certificate closes.
        assert check_certificate(_php_cert()) == []

    def test_rival_dominates(self):
        cert = _php_cert(
            ub_score=np.array([1.0, 0.52, 0.42, 0.45, 0.3]),
        )
        out = check_certificate(cert)
        assert any("rival upper bound" in v.message for v in out)

    def test_unsettled_top(self):
        cert = _php_cert(
            settled=np.array([True, True, False, True, False])
        )
        out = check_certificate(cert)
        assert any("unsettled node" in v.message for v in out)

    def test_top_contains_query(self):
        cert = _php_cert(top=np.array([0, 1]))
        out = check_certificate(cert)
        assert any("query or an excluded" in v.message for v in out)

    def test_exhausted_with_boundary(self):
        cert = _php_cert(
            exhausted=True,
            top=np.array([1]),
            k=4,
            eligible=np.array([False, True, False, False, False]),
        )
        out = check_certificate(cert)
        assert any("boundary" in v.message for v in out)

    def test_exhausted_route_skips_rival_rule(self):
        # Component fully visited (empty boundary): bounds carry a tau
        # residual, so rival ub may exceed min-top lb without error —
        # only the lb *selection* is replayed.
        cert = _php_cert(
            boundary=np.zeros(5, dtype=bool),
            settled=np.ones(5, dtype=bool),
            ub_score=np.array([1.0, 0.52, 0.42, 0.41, 0.1]),
        )
        assert check_certificate(cert) == []

    def test_exhausted_route_wrong_selection(self):
        cert = _php_cert(
            boundary=np.zeros(5, dtype=bool),
            settled=np.ones(5, dtype=bool),
            lb_score=np.array([1.0, 0.5, 0.4, 0.45, 0.05]),
        )
        out = check_certificate(cert)
        assert any("ranking is wrong" in v.message for v in out)

    def test_degree_weighted_guard(self):
        # Sec. 5.6: the RWR cap is w_out * max boundary upper bound;
        # 4.0 * 0.3 = 1.2 > min_top 0.4, so the cap is violated.
        cert = _php_cert(unvisited_cap=4.0 * 0.3)
        out = check_certificate(cert)
        assert any("unvisited cap" in v.message for v in out)

    def test_degree_weighted_missing_w_out(self):
        # A non-empty boundary needs a recorded cap (w_out for RWR).
        cert = _php_cert(unvisited_cap=None)
        out = check_certificate(cert)
        assert any("no recorded unvisited cap" in v.message for v in out)

    def test_excluded_boundary_node_cap_violation(self):
        # Node 4 is excluded, so it is no rival, but it is still on the
        # boundary and its unvisited neighbours may beat the k-th bound.
        cert = _php_cert(
            ub_score=np.array([1.0, 0.52, 0.42, 0.2, 0.45]),
            eligible=np.array([False, True, True, True, False]),
            unvisited_cap=0.45,
        )
        out = check_certificate(cert)
        assert [v.check for v in out] == ["certificate"]
        assert "unvisited cap" in out[0].message

    @pytest.mark.parametrize(
        "measure,kwargs", [("rwr", {"c": 0.5}), ("tht", {"horizon": 5})]
    )
    def test_anytime_gap_replayed(self, measure, kwargs):
        # The recorded anytime gap must equal the one the recorded floats
        # give, to the last bit.
        session = _session(
            measure,
            kwargs,
            audit="record",
            max_visited=12,
            on_budget="degrade",
        )
        cert = session.top_k(QUERY, K).audit.certificate
        assert not cert.exact and cert.bound_gap > 0.0
        assert check_certificate(cert) == []
        planted = dataclasses.replace(
            cert, bound_gap=float(np.nextafter(cert.bound_gap, np.inf))
        )
        out = check_certificate(planted)
        assert [v.check for v in out] == ["certificate"]
        assert "bound_gap" in out[0].message

    def test_tht_mirror(self):
        # THT records negated hitting-time bounds: lb_score = -upper,
        # ub_score = -lower, and the Lemma-7 cap -min(boundary lower).
        lower = np.array([0.0, 1.0, 2.5])
        upper = np.array([0.0, 2.0, 5.0])
        cert = CertificateRecord(
            k=1,
            tie_epsilon=0.0,
            exact=True,
            exhausted=False,
            termination="exact",
            bound_gap=0.0,
            top=np.array([1]),
            lb_score=-upper,
            ub_score=-lower,
            eligible=np.array([False, True, True]),
            settled=np.array([True, True, False]),
            boundary=np.array([False, False, True]),
            unvisited_cap=-2.5,
        )
        assert check_certificate(cert) == []
        # A rival whose lower bound undercuts the returned max upper
        # bound breaks it.
        cert.ub_score = -np.array([0.0, 1.0, 1.5])
        out = check_certificate(cert)
        assert any("rival upper bound" in v.message for v in out)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------


class TestAuditModes:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("measure,kwargs", MEASURES)
    def test_check_mode_passes_everywhere(
        self, measure, kwargs, schedule, monkeypatch
    ):
        options = schedule_options(monkeypatch, SCHEDULES[schedule])
        session = _session(measure, kwargs, audit="check", **options)
        result = session.top_k(QUERY, K)
        assert result.audit is not None
        assert result.audit.ok
        assert result.stats.audit_checks > 0
        assert result.stats.audit_violations == 0
        metrics = session.metrics()
        assert metrics.audit_checks == result.stats.audit_checks
        assert metrics.audit_violations == 0

    @pytest.mark.parametrize("path", REFRESH_PATHS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_record_mode_accumulates_snapshots(
        self, engine, path, monkeypatch
    ):
        """Exactly one snapshot per bound refresh, on every path."""
        measure, kwargs = ENGINES[engine]
        graph, k, options, termination = REFRESH_PATHS[path]
        refreshes = {"n": 0}
        kernel, entry = (
            (DualBoundKernel, "refresh")
            if engine == "php"
            else (THTDPKernel, "run")
        )
        real = getattr(kernel, entry)

        def counted(self, *args, **kw):
            refreshes["n"] += 1
            return real(self, *args, **kw)

        monkeypatch.setattr(kernel, entry, counted)
        if path == "deadline":
            options = {
                **options,
                **expire_deadline_after_first_round(monkeypatch),
            }
        session = _session(measure, kwargs, graph, audit="record", **options)
        result = session.top_k(QUERY, k)
        assert result.stats.termination == termination
        assert result.exhausted_component == (path == "exhausted")
        report = result.audit
        assert report.mode == "record"
        assert report.certificate is not None
        assert len(report.snapshots) == refreshes["n"] >= 1
        if engine == "tht":
            steps = 2 * kwargs["horizon"]
            assert result.stats.solver_iterations // steps == refreshes["n"]
        # Snapshot sizes follow the growing visited set.
        sizes = [snap.size for snap in report.snapshots]
        assert sizes == sorted(sizes)
        assert [snap.iteration for snap in report.snapshots] == list(
            range(1, len(sizes) + 1)
        )

    def test_off_mode_attaches_nothing(self):
        session = _session("php", {"c": 0.5})
        result = session.top_k(QUERY, K)
        assert result.audit is None
        assert result.stats.audit_checks == 0
        assert session.metrics().audit_checks == 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FLoSOptions(audit="verbose").validate(K)

    def test_anytime_run_audited(self):
        session = _session(
            "rwr",
            {"c": 0.5},
            audit="check",
            max_visited=12,
            on_budget="degrade",
        )
        result = session.top_k(QUERY, K)
        assert not result.exact
        assert result.audit is not None and result.audit.ok

    def test_metrics_accumulate_across_queries(self):
        session = _session("php", {"c": 0.5}, audit="check")
        total = 0
        for q in (3, 9, 14):
            total += session.top_k(q, K).stats.audit_checks
        assert session.metrics().audit_checks == total


class TestRoundStream:
    """``FLoSDriver.rounds`` driven directly, against ``run``'s audit."""

    @staticmethod
    def _driver(engine, graph, k, options):
        # The bound model as ``QuerySession`` builds it.
        name, kwargs = ENGINES[engine]
        measure = resolve_measure(name, **kwargs)
        opts = FLoSOptions(**options)
        if engine == "tht":
            return THTEngine(
                graph, QUERY, k, horizon=measure.horizon, options=opts
            )
        return PHPSpaceEngine(
            graph, QUERY, k, decay=measure.php_decay, options=opts
        )

    @pytest.mark.parametrize("path", REFRESH_PATHS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rounds_match_the_audited_run(self, engine, path, monkeypatch):
        # The local schedule: the round stream has no global finish, so
        # the audited run must not switch to THT's global DP either.
        monkeypatch.setattr(flos, "ROUND_CHARGE", -np.inf)
        graph, k, options, termination = REFRESH_PATHS[path]
        if path == "deadline":
            options = {
                **options,
                **expire_deadline_after_first_round(monkeypatch),
            }
        measure, kwargs = ENGINES[engine]
        session = _session(measure, kwargs, graph, audit="record", **options)
        result = session.top_k(QUERY, k)
        assert result.stats.termination == termination

        driver = self._driver(engine, graph, k, options)
        budget = options.get("max_visited")
        rounds = []
        for step in driver.rounds():
            rounds.append(step)
            if (
                step.blocked is None
                or (budget is not None and driver.view.size > budget)
                or path == "deadline"  # the clock expires after round 1
            ):
                break
        snapshots = result.audit.snapshots
        assert len(rounds) == len(snapshots)
        assert sum(r.sweeps for r in rounds) == result.stats.solver_iterations
        # The records carry the raw bounds the audit snapshots copied.
        for step, snap in zip(rounds, snapshots):
            np.testing.assert_array_equal(step.lower, snap.lower)
            np.testing.assert_array_equal(step.upper, snap.upper)
        assert [r.exhausted for r in rounds] == [False] * (len(rounds) - 1) + [
            path == "exhausted"
        ]
        if result.exact and not result.exhausted_component:
            assert rounds[-1].blocked is None
            assert all(r.blocked is not None for r in rounds[:-1])

    def test_records_keep_the_raw_bounds(self, monkeypatch):
        """The driver clamps into fresh arrays, so a deflated upper bound
        reaches the audit as a bound-order inversion."""
        real = DualBoundKernel.refresh

        def deflated(self, *args, **kwargs):
            lb, ub, sweeps = real(self, *args, **kwargs)
            return lb, ub * 0.5, sweeps

        monkeypatch.setattr(DualBoundKernel, "refresh", deflated)
        result = _session("php", {"c": 0.5}, audit="record").top_k(QUERY, K)
        assert "bound_order" in {v.check for v in result.audit.violations}


class TestCorruptionDetection:
    def test_corrupted_lower_bound_caught(self, monkeypatch):
        """Scaling the solver's lower bounds down breaks monotonicity."""
        real = DualBoundKernel.refresh
        calls = {"n": 0}

        def corrupted(self, *args, **kwargs):
            lb, ub, sweeps = real(self, *args, **kwargs)
            calls["n"] += 1
            if calls["n"] >= 2:
                lb = lb * 0.9
            return lb, ub, sweeps

        monkeypatch.setattr(DualBoundKernel, "refresh", corrupted)
        session = _session("php", {"c": 0.5}, audit="check")
        with pytest.raises(AuditError) as err:
            session.top_k(QUERY, K)
        assert err.value.violations

    def test_corrupted_upper_bound_caught(self, monkeypatch):
        """Deflating upper bounds lets lower cross upper — bound order."""
        real = DualBoundKernel.refresh

        def corrupted(self, *args, **kwargs):
            lb, ub, sweeps = real(self, *args, **kwargs)
            return lb, ub * 0.5, sweeps

        monkeypatch.setattr(DualBoundKernel, "refresh", corrupted)
        session = _session("php", {"c": 0.5}, audit="check")
        with pytest.raises(AuditError):
            session.top_k(QUERY, K)

    def test_lazy_solver_caught_by_residual(self, monkeypatch):
        """A refresh that claims convergence without solving is caught.

        Stale bounds still satisfy the sandwich and monotonicity checks,
        so only the independent residual check
        (:meth:`DualBoundKernel.residual_norms`) can fire on them.
        """

        def lazy(self, lb, ub, diag, e_lower, e_upper, *, tau):
            self._op.sync()
            return lb.copy(), ub.copy(), 1  # stale bounds, claims done

        monkeypatch.setattr(DualBoundKernel, "refresh", lazy)
        session = _session("php", {"c": 0.5}, audit="check")
        with pytest.raises(AuditError) as err:
            session.top_k(QUERY, K)
        assert any(v.check == "solver" for v in err.value.violations)

    @pytest.mark.parametrize("mode", ["check", "record"])
    def test_corrupted_tht_upper_bound_caught(self, mode, monkeypatch):
        """The driver's one refresh hook audits the THT model too:
        deflating its upper DP below the lower one is a bound-order
        inversion."""
        real = THTDPKernel.run

        def corrupted(self, *args, **kwargs):
            lb, ub = real(self, *args, **kwargs)
            return lb, np.minimum(ub, lb - 0.5)

        monkeypatch.setattr(THTDPKernel, "run", corrupted)
        session = _session("tht", {"horizon": 5}, audit=mode)
        if mode == "check":
            with pytest.raises(AuditError) as err:
                session.top_k(QUERY, K)
            violations = err.value.violations
        else:
            result = session.top_k(QUERY, K)
            assert result.stats.audit_violations > 0
            violations = result.audit.violations
        assert any(v.check == "bound_order" for v in violations)

    def test_record_mode_collects_instead_of_raising(self, monkeypatch):
        real = DualBoundKernel.refresh

        def corrupted(self, *args, **kwargs):
            lb, ub, sweeps = real(self, *args, **kwargs)
            return lb, ub * 0.5, sweeps

        monkeypatch.setattr(DualBoundKernel, "refresh", corrupted)
        session = _session("php", {"c": 0.5}, audit="record")
        result = session.top_k(QUERY, K)
        assert not result.audit.ok
        assert result.stats.audit_violations > 0
        assert session.metrics().audit_violations > 0


# ----------------------------------------------------------------------
# Property test: audit="check" on random graphs (satellite 6)
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class TestAuditProperty:
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        config=st.sampled_from(MEASURES),
    )
    def test_check_mode_never_fires_on_random_graphs(self, seed, config):
        measure, kwargs = config
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        graph = erdos_renyi(
            n, int(rng.integers(n, 3 * n)), seed=int(rng.integers(2**31))
        )
        connected = np.flatnonzero(graph.degrees > 0)
        if len(connected) == 0:
            return
        query = int(connected[rng.integers(0, len(connected))])
        k = int(rng.integers(1, min(6, n - 1) + 1))
        session = QuerySession(
            graph,
            measure=measure,
            **kwargs,
            options=FLoSOptions(audit="check"),
        )
        result = session.top_k(query, k)  # raises AuditError on any bug
        assert result.audit.ok
