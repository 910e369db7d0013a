"""Tests for the QuerySession serving layer.

Covers the serving guarantees: ``top_k_many`` bit-identical to a serial
``flos_top_k`` loop across all five measures, also from caller threads
sharing one session; LRU cache hit/expiry behavior, monotone metrics
counters, measure-spec strings, result serialization, and up-front
option validation.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import (
    PHP,
    RWR,
    THT,
    FLoSOptions,
    QuerySession,
    flos_top_k,
    resolve_measure,
)
from repro.errors import ConfigurationError, MeasureError, SearchError
from repro.graph.generators import erdos_renyi
from repro.measures import DHT, EI


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(250, 750, seed=80)


QUERIES = [5, 99, 17, 42, 5, 123, 99, 8]


class TestParallelIdentity:
    def test_parallel_matches_serial_flos_top_k(self, graph, measure):
        """Caller threads sharing one session serve batches bit-identical
        to a serial ``flos_top_k`` loop, all measures."""
        session = QuerySession(graph, measure)
        batches: list = [None] * 3
        errors: list[Exception] = []

        def serve(i: int) -> None:
            try:
                batches[i] = session.top_k_many(QUERIES, 5)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=serve, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        for batch in batches:
            assert len(batch) == len(QUERIES)
            for result, q in zip(batch, QUERIES):
                single = flos_top_k(graph, measure, q, 5)
                assert result.query == q
                assert list(result.nodes) == list(single.nodes)
                np.testing.assert_array_equal(result.values, single.values)
                np.testing.assert_array_equal(result.lower, single.lower)
                np.testing.assert_array_equal(result.upper, single.upper)
                assert result.exact == single.exact

    def test_workload_order_preserved(self, graph):
        batch = QuerySession(graph, PHP(0.5)).top_k_many(QUERIES, 3)
        assert [r.query for r in batch] == QUERIES

    def test_empty_workload_rejected(self, graph):
        with pytest.raises(SearchError, match="empty"):
            QuerySession(graph, PHP(0.5)).top_k_many([], 3)


class TestLRUCache:
    def test_repeat_query_hits_cache(self, graph):
        session = QuerySession(graph, PHP(0.5))
        first = session.top_k(5, 4)
        second = session.top_k(5, 4)
        # Served from the LRU as a defensive copy: same answer, never
        # the same object (so caller mutations cannot poison the cache).
        assert second is not first
        assert np.array_equal(second.nodes, first.nodes)
        assert np.allclose(second.values, first.values)
        m = session.metrics()
        assert m.cache_hits == 1 and m.cache_misses == 1

    def test_key_includes_k_and_exclude(self, graph):
        session = QuerySession(graph, PHP(0.5))
        session.top_k(5, 4)
        session.top_k(5, 5)
        session.top_k(5, 4, exclude={1})
        assert session.metrics().cache_misses == 3
        session.top_k(5, 4, exclude={1})
        assert session.metrics().cache_hits == 1

    def test_lru_expiry_evicts_oldest(self, graph):
        session = QuerySession(graph, PHP(0.5), cache_size=2)
        session.top_k(5, 4)    # {5}
        session.top_k(99, 4)   # {5, 99}
        session.top_k(5, 4)    # hit; 5 becomes MRU
        session.top_k(17, 4)   # evicts 99 -> {5, 17}
        assert session.cache_size == 2
        session.top_k(5, 4)    # still resident
        m = session.metrics()
        assert m.cache_hits == 2
        session.top_k(99, 4)   # was evicted: recomputed
        assert session.metrics().cache_misses == 4

    def test_cache_disabled(self, graph):
        session = QuerySession(graph, PHP(0.5), cache_size=0)
        session.top_k(5, 4)
        session.top_k(5, 4)
        m = session.metrics()
        assert m.cache_hits == 0 and m.cache_misses == 2
        assert session.cache_size == 0

    def test_clear_cache_keeps_counters(self, graph):
        session = QuerySession(graph, PHP(0.5))
        session.top_k(5, 4)
        session.clear_cache()
        assert session.cache_size == 0
        session.top_k(5, 4)
        m = session.metrics()
        assert m.cache_misses == 2 and m.queries_served == 2

    def test_negative_cache_size_rejected(self, graph):
        with pytest.raises(SearchError, match="cache_size"):
            QuerySession(graph, PHP(0.5), cache_size=-1)


class TestMetrics:
    def test_counters_monotone(self, graph):
        session = QuerySession(graph, RWR(0.5))
        previous = session.metrics()
        assert previous.queries_served == 0
        for q in QUERIES:
            session.top_k(q, 4)
            current = session.metrics()
            assert current.queries_served == previous.queries_served + 1
            assert current.cache_hits >= previous.cache_hits
            assert current.cache_misses >= previous.cache_misses
            assert current.visited_nodes_total >= previous.visited_nodes_total
            assert (
                current.solver_iterations_total
                >= previous.solver_iterations_total
            )
            assert current.expansions_total >= previous.expansions_total
            assert current.total_wall_seconds >= previous.total_wall_seconds
            previous = current

    def test_histogram_counts_engine_runs(self, graph):
        session = QuerySession(graph, PHP(0.5))
        for q in [5, 99, 5, 99]:
            session.top_k(q, 4)
        m = session.metrics()
        assert sum(m.visited_histogram.values()) == m.cache_misses == 2
        for bucket, count in m.visited_histogram.items():
            assert bucket >= 0 and count > 0

    def test_percentiles_and_hit_rate(self, graph):
        session = QuerySession(graph, PHP(0.5))
        for q in [5, 5, 99]:
            session.top_k(q, 4)
        m = session.metrics()
        assert 0.0 <= m.p50_wall_seconds <= m.p95_wall_seconds
        assert m.cache_hit_rate == pytest.approx(1 / 3)

    def test_metrics_to_dict_is_json_serializable(self, graph):
        session = QuerySession(graph, THT(10))
        session.top_k(5, 3)
        payload = json.loads(json.dumps(session.metrics().to_dict()))
        assert payload["queries_served"] == 1
        assert payload["cache_misses"] == 1

    def test_snapshot_is_immutable_copy(self, graph):
        session = QuerySession(graph, PHP(0.5))
        session.top_k(5, 4)
        m = session.metrics()
        m.visited_histogram[999] = 7  # mutating the snapshot…
        assert 999 not in session.metrics().visited_histogram  # …not the session


class TestMeasureSpecs:
    def test_name_string_with_params(self, graph):
        session = QuerySession(graph, "rwr", c=0.9)
        assert isinstance(session.measure, RWR)
        assert session.measure.c == 0.9

    def test_flos_top_k_accepts_name(self, graph):
        by_name = flos_top_k(graph, "php", 5, 4, c=0.5)
        by_instance = flos_top_k(graph, PHP(0.5), 5, 4)
        assert list(by_name.nodes) == list(by_instance.nodes)
        np.testing.assert_array_equal(by_name.values, by_instance.values)

    def test_resolve_measure_all_names(self):
        assert isinstance(resolve_measure("PHP"), PHP)
        assert isinstance(resolve_measure("ei", c=0.3), EI)
        assert isinstance(resolve_measure("dht"), DHT)
        assert isinstance(resolve_measure("tht", horizon=5), THT)

    def test_resolve_measure_passthrough(self):
        m = RWR(0.7)
        assert resolve_measure(m) is m

    def test_instance_plus_params_rejected(self):
        with pytest.raises(MeasureError, match="cannot be combined"):
            resolve_measure(PHP(0.5), c=0.9)

    def test_unknown_name_rejected(self):
        with pytest.raises(MeasureError, match="unknown measure"):
            resolve_measure("pagerank")

    def test_bad_params_rejected(self):
        with pytest.raises(MeasureError, match="invalid parameters"):
            resolve_measure("php", horizon=3)

    def test_non_measure_spec_rejected(self, graph):
        with pytest.raises(MeasureError):
            QuerySession(graph, 3.14)


class TestOptionValidation:
    def test_bad_options_fail_at_session_creation(self, graph):
        with pytest.raises(ConfigurationError, match="tau"):
            FLoSOptions(tau=0.0)
        with pytest.raises(ConfigurationError, match="tie_epsilon"):
            FLoSOptions(tie_epsilon=-1.0)

    def test_max_visited_below_k_fails_before_search(self, graph):
        session = QuerySession(
            graph, PHP(0.5), options=FLoSOptions(max_visited=3)
        )
        with pytest.raises(ConfigurationError, match="max_visited"):
            session.top_k(5, 10)

    def test_configuration_error_is_search_error(self):
        assert issubclass(ConfigurationError, SearchError)

    def test_valid_options_chain(self):
        opts = FLoSOptions(max_visited=100)
        assert opts.validate(10) is opts


class TestResultContainerAPI:
    def test_iteration_and_indexing(self, graph):
        result = flos_top_k(graph, PHP(0.5), 5, 4)
        pairs = list(result)
        assert pairs == [
            (int(n), float(v))
            for n, v in zip(result.nodes, result.values)
        ]
        assert result[0] == pairs[0]
        assert result[-1] == pairs[-1]
        assert result[:2] == pairs[:2]
        assert len(result) == len(pairs)

    def test_to_dict_round_trips_through_json(self, graph):
        result = flos_top_k(graph, RWR(0.5), 5, 4)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["query"] == 5
        assert payload["measure"] == "RWR"
        assert payload["nodes"] == [int(n) for n in result.nodes]
        assert payload["stats"]["visited_nodes"] > 0
        assert payload["exact"] is True


class TestEdgeCases:
    def test_isolated_query_served_and_cached(self):
        from repro.graph.builder import GraphBuilder

        b = GraphBuilder(num_nodes=4)
        b.add_edge(0, 1)
        g = b.build()
        session = QuerySession(g, PHP(0.5))
        result = session.top_k(2, 3)  # node 2 is isolated
        assert len(result) == 0 and result.exhausted_component
        again = session.top_k(2, 3)
        assert again is not result  # cache hits are defensive copies
        assert len(again) == 0 and again.exhausted_component

    def test_exclude_respected(self, graph):
        session = QuerySession(graph, PHP(0.5))
        base = session.top_k(5, 4)
        banned = int(base.nodes[0])
        filtered = session.top_k(5, 4, exclude={banned})
        assert banned not in filtered.node_set()

    def test_session_repr(self, graph):
        assert "QuerySession" in repr(QuerySession(graph, PHP(0.5)))
