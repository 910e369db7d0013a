"""The public API surface: everything README promises must exist."""

import numpy as np

import repro


def test_version():
    assert repro.__version__ == "6.0.0"


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), f"missing export {name}"


def test_readme_quickstart_runs():
    """The exact code block from README.md (smaller graph)."""
    from repro import PHP, flos_top_k
    from repro.graph.generators import erdos_renyi

    graph = erdos_renyi(2_000, 8_000, seed=42)
    result = flos_top_k(graph, PHP(c=0.5), query=123, k=10)
    assert len(result.nodes) == 10
    assert len(result.values) == 10
    assert np.all(result.lower <= result.upper + 1e-12)
    assert result.stats.visited_nodes < graph.num_nodes


def test_readme_session_quickstart_runs():
    """The QuerySession code block from README.md (smaller graph)."""
    from repro import QuerySession
    from repro.graph.generators import erdos_renyi

    graph = erdos_renyi(500, 2_000, seed=42)
    session = QuerySession(graph, "rwr", c=0.9)
    batch = session.top_k_many(range(10), k=5)
    assert len(batch) == 10
    metrics = session.metrics().to_dict()
    assert metrics["queries_served"] == 10


def test_measure_constructors_keyword_friendly():
    assert repro.PHP(c=0.4).c == 0.4
    assert repro.EI(c=0.4).c == 0.4
    assert repro.DHT(c=0.4).c == 0.4
    assert repro.RWR(c=0.4).c == 0.4
    assert repro.THT(horizon=5).horizon == 5


def test_subpackage_imports():
    import repro.audit
    import repro.baselines
    import repro.core
    import repro.graph
    import repro.graph.disk
    import repro.graph.generators
    import repro.graph.io
    import repro.measures
    import repro.serve

    assert repro.baselines.METHODS
    assert callable(repro.serve.ShardedServer)


def test_removed_surface_stays_removed():
    """Benchmark helpers, the Monte-Carlo reference, the batch alias and
    the thread-pool fan-out are not part of the library."""
    import importlib.util
    import inspect

    assert importlib.util.find_spec("repro.bench") is None
    assert importlib.util.find_spec("repro.measures.montecarlo") is None
    assert not hasattr(repro, "flos_top_k_batch")
    params = inspect.signature(repro.QuerySession.top_k_many).parameters
    assert "workers" not in params


def test_search_stats_to_dict_round_trips_anytime_fields():
    """stats.termination / bound_gap survive a JSON round trip."""
    import json

    from repro import SearchStats

    stats = SearchStats(
        visited_nodes=42, termination="deadline", bound_gap=0.125
    )
    payload = json.loads(json.dumps(stats.to_dict()))
    assert payload["termination"] == "deadline"
    assert payload["bound_gap"] == 0.125
    restored = SearchStats(**payload)
    assert restored.to_dict() == stats.to_dict()


def test_session_metrics_to_dict_round_trips_degradation_fields():
    """degraded_results / terminations are JSON-serializable counters."""
    import json

    from repro import FLoSOptions, QuerySession
    from repro.graph.generators import erdos_renyi

    graph = erdos_renyi(300, 900, seed=11)
    session = QuerySession(
        graph,
        "php",
        c=0.5,
        options=FLoSOptions(max_visited=12, on_budget="degrade"),
    )
    session.top_k(5, 4)
    payload = json.loads(json.dumps(session.metrics().to_dict()))
    assert payload["degraded_results"] == 1
    assert payload["terminations"] == {"visited_budget": 1}


def test_docstrings_on_public_entry_points():
    assert repro.flos_top_k.__doc__
    assert repro.CSRGraph.__doc__
    assert repro.FLoSOptions.__doc__
    assert repro.TopKResult.__doc__
    for measure in (repro.PHP, repro.EI, repro.DHT, repro.THT, repro.RWR):
        assert measure.__doc__
