"""The unified QueryOverrides / QueryRequest contract (repro.core.api).

One request shape flows through every entry point — ``flos_top_k``,
``QuerySession.top_k`` / ``top_k_many``, ``flos_top_k_batch``, and the
serving dispatcher's wire format.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FLoSOptions,
    QueryOverrides,
    QueryRequest,
    QuerySession,
    flos_top_k,
    flos_top_k_batch,
)
from repro.core.api import NO_OVERRIDES
from repro.errors import ConfigurationError, SearchError
from repro.graph.generators import erdos_renyi


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(250, 1000, seed=5)


# ----------------------------------------------------------------------
# The dataclasses
# ----------------------------------------------------------------------


class TestQueryOverrides:
    def test_empty_and_shared_instance(self):
        assert QueryOverrides().is_empty()
        assert NO_OVERRIDES.is_empty()
        assert not QueryOverrides(audit="record").is_empty()

    def test_apply_overrides_only_given_fields(self):
        base = FLoSOptions(tau=1e-6, deadline_seconds=1.0)
        out = QueryOverrides(on_budget="degrade").apply(base)
        assert out.on_budget == "degrade"
        assert out.deadline_seconds == 1.0
        assert out.tau == 1e-6

    def test_apply_empty_returns_same_object(self):
        base = FLoSOptions()
        assert QueryOverrides().apply(base) is base

    def test_apply_validates(self):
        with pytest.raises(ConfigurationError):
            QueryOverrides(audit="nonsense").apply(FLoSOptions())
        with pytest.raises(ConfigurationError):
            QueryOverrides(deadline_seconds=-1.0).apply(FLoSOptions())

    def test_dict_round_trip(self):
        overrides = QueryOverrides(deadline_seconds=0.5, on_budget="degrade")
        payload = overrides.to_dict()
        assert payload == {"deadline_seconds": 0.5, "on_budget": "degrade"}
        assert QueryOverrides.from_dict(payload) == overrides

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SearchError, match="unknown"):
            QueryOverrides.from_dict({"deadline": 0.5})

    def test_from_dict_rejects_removed_solver_field(self):
        """Payloads from outside the process that still name the
        bound-refresh solver fail loudly, listing the valid fields,
        instead of being silently served on the one refresh path."""
        valid = r"valid fields are \['audit', 'deadline_seconds', 'on_budget'\]"
        with pytest.raises(SearchError, match=valid):
            QueryOverrides.from_dict({"solver": "fused"})
        with pytest.raises(SearchError, match=valid):
            QueryRequest.from_dict(
                {"query": 1, "k": 2, "overrides": {"solver": "jacobi"}}
            )


class TestQueryRequest:
    def test_coercion_and_validation(self):
        request = QueryRequest(query=np.int64(3), k=np.int64(5),
                               exclude=[1, 2, 2])
        assert request.query == 3 and isinstance(request.query, int)
        assert request.exclude == frozenset({1, 2})
        with pytest.raises(SearchError, match="k must be"):
            QueryRequest(query=0, k=0)

    def test_dict_round_trip(self):
        request = QueryRequest(
            query=7,
            k=3,
            exclude=frozenset({9}),
            overrides=QueryOverrides(audit="record"),
        )
        assert QueryRequest.from_dict(request.to_dict()) == request

    def test_picklable(self):
        import pickle

        request = QueryRequest(
            query=1, k=2, overrides=QueryOverrides(audit="record")
        )
        assert pickle.loads(pickle.dumps(request)) == request


# ----------------------------------------------------------------------
# Uniform acceptance across entry points
# ----------------------------------------------------------------------


class TestUniformContract:
    def test_flos_top_k_accepts_overrides(self, graph):
        plain = flos_top_k(graph, "rwr", 0, 5, c=0.5)
        audited = flos_top_k(
            graph, "rwr", 0, 5, c=0.5,
            overrides=QueryOverrides(audit="record"),
        )
        np.testing.assert_array_equal(plain.nodes, audited.nodes)
        assert plain.audit is None and audited.audit is not None

    def test_session_audit_override_attaches_report(self, graph):
        session = QuerySession(graph, "rwr", c=0.5)
        result = session.top_k(
            0, 5, overrides=QueryOverrides(audit="record")
        )
        assert result.audit is not None
        # And without the override nothing is recorded.
        assert session.top_k(1, 5).audit is None

    def test_cache_partitioned_by_audit_override(self, graph):
        session = QuerySession(graph, "rwr", c=0.5)
        session.top_k(0, 5)
        audited = session.top_k(0, 5, overrides=QueryOverrides(audit="record"))
        # The audit report is part of the payload: no false cache hit.
        assert audited.audit is not None
        assert session.metrics().cache_misses == 2
        assert session.top_k(0, 5).audit is None
        assert session.metrics().cache_hits == 1

    def test_top_k_many_applies_overrides_per_query(self, graph):
        session = QuerySession(graph, "rwr", c=0.5, cache_size=0)
        batch = session.top_k_many(
            range(6), k=5, overrides=QueryOverrides(audit="record")
        )
        assert all(r.audit is not None for r in batch.results)

    def test_batch_helper_accepts_overrides(self, graph):
        batch = flos_top_k_batch(
            graph, "rwr", range(4), 5, c=0.5,
            overrides=QueryOverrides(audit="record"),
        )
        assert all(r.audit is not None for r in batch.results)

    def test_serve_equals_top_k(self, graph):
        session = QuerySession(graph, "rwr", c=0.5)
        request = QueryRequest(
            query=2, k=4, overrides=QueryOverrides(audit="record")
        )
        via_serve = session.serve(request)
        via_top_k = session.top_k(
            2, 4, overrides=QueryOverrides(audit="record")
        )
        np.testing.assert_array_equal(via_serve.nodes, via_top_k.nodes)


# ----------------------------------------------------------------------
# NaN options: every comparison with NaN is false, so a check written
# as ``x <= 0`` waves it through
# ----------------------------------------------------------------------

NAN = float("nan")


class TestNaNRejected:
    @pytest.mark.parametrize(
        "field", ["tau", "tie_epsilon", "deadline_seconds"]
    )
    def test_options_reject_nan(self, field):
        with pytest.raises(ConfigurationError, match=field):
            FLoSOptions(**{field: NAN})

    def test_infinite_values(self):
        with pytest.raises(ConfigurationError, match="tau"):
            FLoSOptions(tau=float("inf"))
        with pytest.raises(ConfigurationError, match="tie_epsilon"):
            FLoSOptions(tie_epsilon=float("inf"))
        # +inf is the "no deadline" value.
        assert FLoSOptions(deadline_seconds=float("inf"))

    def test_every_entry_point_rejects_nan_deadline(self, graph):
        from repro.serve import ShardedServer

        nan_deadline = QueryOverrides(deadline_seconds=NAN)
        with pytest.raises(ConfigurationError, match="deadline"):
            flos_top_k(graph, "php", 0, 5, c=0.5, overrides=nan_deadline)
        session = QuerySession(graph, "php", c=0.5)
        with pytest.raises(ConfigurationError, match="deadline"):
            session.top_k(0, 5, overrides=nan_deadline)
        with ShardedServer(graph, "php", c=0.5, workers=2) as server:
            with pytest.raises(ConfigurationError, match="deadline"):
                server.top_k(0, 5, overrides=nan_deadline)
            # Once the shard has a service-time estimate, admission
            # compares the deadline against it: still a NaN, not a
            # rejection for lack of time.
            server.top_k(0, 5)
            for policy in ("raise", "degrade"):
                with pytest.raises(ConfigurationError, match="deadline"):
                    server.top_k(
                        0,
                        5,
                        overrides=QueryOverrides(
                            deadline_seconds=NAN, on_budget=policy
                        ),
                    )
