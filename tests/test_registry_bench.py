"""Tests for the method registry (Table 5) and the benchmark harness."""

import numpy as np
import pytest

from repro.baselines.registry import (
    METHODS,
    default_measure,
    get_method,
    methods_for_family,
)
from benchmarks.benchkit.runner import prepare_index, run_method
from benchmarks.benchkit.tables import format_table
from benchmarks.benchkit.workload import bench_config, sample_queries
from repro.errors import SearchError
from repro.graph.generators import erdos_renyi
from repro.graph.memory import CSRGraph
from repro.measures import PHP, RWR, THT


class TestRegistry:
    def test_paper_table5_names_present(self):
        # Every method of the paper's Table 5, under its figure name.
        expected = {
            "FLoS_PHP", "GI_PHP", "DNE", "NN_EI", "LS_EI",
            "FLoS_RWR", "GI_RWR", "GE_RWR", "Castanet", "K-dash", "LS_RWR",
            "FLoS_THT", "GI_THT", "LS_THT",
        }
        assert set(METHODS) == expected

    def test_exactness_flags_match_table5(self):
        exact = {n for n, m in METHODS.items() if m.exact}
        assert exact == {
            "FLoS_PHP", "GI_PHP", "NN_EI",
            "FLoS_RWR", "GI_RWR", "Castanet", "K-dash",
            "FLoS_THT", "GI_THT",
        }

    def test_families_partition(self):
        php = [m.name for m in methods_for_family("PHP")]
        rwr = [m.name for m in methods_for_family("RWR")]
        tht = [m.name for m in methods_for_family("THT")]
        assert php[0] == "FLoS_PHP"  # FLoS listed first
        assert rwr[0] == "FLoS_RWR"
        assert tht[0] == "FLoS_THT"
        assert len(php) + len(rwr) + len(tht) == len(METHODS)

    def test_default_measures(self):
        assert isinstance(default_measure("PHP"), PHP)
        assert isinstance(default_measure("RWR"), RWR)
        assert isinstance(default_measure("THT"), THT)
        with pytest.raises(SearchError):
            default_measure("XXX")

    def test_unknown_method(self):
        with pytest.raises(SearchError, match="unknown method"):
            get_method("FLoS_Bogus")

    @pytest.mark.parametrize(
        "name", ["FLoS_PHP", "GI_PHP", "DNE", "NN_EI"]
    )
    def test_php_family_methods_run(self, name):
        g = erdos_renyi(200, 600, seed=60)
        method = get_method(name)
        index = method.prepare(g, PHP(0.5))
        res = method.query(g, PHP(0.5), index, 3, 5)
        assert len(res.nodes) == 5

    @pytest.mark.parametrize(
        "name", ["FLoS_RWR", "Castanet", "LS_RWR", "K-dash", "GE_RWR"]
    )
    def test_rwr_family_methods_run(self, name):
        g = erdos_renyi(200, 600, seed=61)
        method = get_method(name)
        index = method.prepare(g, RWR(0.5))
        res = method.query(g, RWR(0.5), index, 3, 5)
        assert len(res.nodes) == 5

    @pytest.mark.parametrize("name", ["FLoS_THT", "GI_THT", "LS_THT"])
    def test_tht_family_methods_run(self, name):
        g = erdos_renyi(200, 600, seed=62)
        method = get_method(name)
        index = method.prepare(g, THT(10))
        res = method.query(g, THT(10), index, 3, 5)
        assert len(res.nodes) == 5


class TestWorkload:
    def test_sample_queries_deterministic(self):
        g = erdos_renyi(100, 300, seed=63)
        a = sample_queries(g, 10, seed=5)
        b = sample_queries(g, 10, seed=5)
        assert np.array_equal(a, b)

    def test_no_isolated_queries(self):
        g = CSRGraph.from_edges(50, [(0, 1), (1, 2), (2, 3)])
        queries = sample_queries(g, 8, seed=1)
        assert all(g.degree(int(q)) > 0 for q in queries)

    def test_all_isolated_raises(self):
        g = CSRGraph.from_edges(5, [])
        with pytest.raises(RuntimeError):
            sample_queries(g, 1, seed=1)

    def test_bench_config_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        monkeypatch.delenv("REPRO_BENCH_QUERIES", raising=False)
        cfg = bench_config(default_queries=4)
        assert cfg.queries == 4 and not cfg.full
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        assert bench_config(default_queries=4).queries == 20
        monkeypatch.setenv("REPRO_BENCH_QUERIES", "3")
        assert bench_config(default_queries=4).queries == 3


class TestRunner:
    def test_run_method_aggregates(self):
        g = erdos_renyi(150, 450, seed=64)
        method = get_method("FLoS_PHP")
        queries = sample_queries(g, 4, seed=2)
        run = run_method(method, g, PHP(0.5), queries, 5)
        assert len(run.query_seconds) == 4
        assert run.mean_seconds > 0
        assert run.min_seconds <= run.mean_seconds <= run.max_seconds
        assert run.mean_visited > 0
        lo, mean, hi = run.visited_ratio(g.num_nodes)
        assert 0 < lo <= mean <= hi <= 1

    def test_prepare_index_timing(self):
        g = erdos_renyi(150, 450, seed=65)
        method = get_method("K-dash")
        index, seconds = prepare_index(method, g, RWR(0.5))
        assert index is not None and seconds > 0
        run = run_method(
            method, g, RWR(0.5), sample_queries(g, 2, seed=3), 5, index=index
        )
        assert run.prepare_seconds == 0.0

    def test_keep_results(self):
        g = erdos_renyi(100, 300, seed=66)
        run = run_method(
            get_method("FLoS_PHP"),
            g,
            PHP(0.5),
            sample_queries(g, 2, seed=4),
            3,
            keep_results=True,
        )
        assert len(run.results) == 2


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(
            "Demo", ["name", "value"], [["a", 1.0], ["long-name", 0.001234]]
        )
        lines = out.splitlines()
        assert lines[0] == "== Demo =="
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_note(self):
        out = format_table("T", ["c"], [[1]], note="hello")
        assert out.rstrip().endswith("note: hello")

    def test_float_formats(self):
        out = format_table("T", ["v"], [[123456.7], [0.5], [1e-7], [0.0]])
        assert "123457" in out
        assert "0.5" in out
        assert "1.00e-07" in out
