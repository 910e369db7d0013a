"""Tests for batch queries: ``QuerySession(..., cache_size=0).top_k_many``,
the one-shot form of a workload."""

import numpy as np
import pytest

from repro import PHP, RWR, QuerySession, flos_top_k
from repro.errors import SearchError
from repro.graph.generators import erdos_renyi


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(400, 1200, seed=80)


def one_shot_batch(graph, measure, queries, k):
    return QuerySession(graph, measure, cache_size=0).top_k_many(queries, k)


def test_results_in_input_order(graph):
    queries = [5, 99, 17]
    batch = one_shot_batch(graph, PHP(0.5), queries, 4)
    assert [r.query for r in batch] == queries
    assert len(batch) == 3


def test_matches_single_queries(graph):
    batch = one_shot_batch(graph, PHP(0.5), [5, 99], 4)
    for res in batch:
        single = flos_top_k(graph, PHP(0.5), res.query, 4)
        assert list(res.nodes) == list(single.nodes)
        np.testing.assert_allclose(res.values, single.values)


def test_summary_statistics(graph):
    batch = one_shot_batch(graph, PHP(0.5), [5, 99, 17], 4)
    assert batch.total_seconds > 0
    assert batch.mean_visited > 0
    assert batch.all_exact
    assert batch[0].query == 5


def test_rwr_batch_shares_degree_order(graph):
    batch = one_shot_batch(graph, RWR(0.5), [5, 99], 3)
    assert batch.all_exact
    for res in batch:
        assert len(res.nodes) == 3


def test_empty_batch_rejected(graph):
    with pytest.raises(SearchError, match="empty"):
        one_shot_batch(graph, PHP(0.5), [], 4)


def test_accepts_numpy_queries(graph):
    batch = one_shot_batch(graph, PHP(0.5), np.array([5, 99]), 2)
    assert len(batch) == 2
