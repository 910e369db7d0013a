"""The differential fuzzer and its failure-minimization pipeline."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.audit.fuzz as fuzz_mod
from repro.audit.fuzz import FuzzSummary, run_fuzz
from repro.audit.trace import shrink_case, write_repro
from repro.graph.generators import erdos_renyi, path_graph
from repro.graph.io import load_npz
from repro.graph.memory import CSRGraph


class TestRunFuzz:
    def test_small_sweep_is_clean(self):
        summary = run_fuzz(8, 42)
        assert summary.ok
        assert summary.cases == 8
        # Default + paper schedule + anytime + excluded per case.
        assert summary.runs == 4 * 8
        assert summary.checks > 0

    def test_deterministic_in_seed(self):
        a = run_fuzz(5, 99)
        b = run_fuzz(5, 99)
        assert (a.runs, a.checks, len(a.failures)) == (
            b.runs,
            b.checks,
            len(b.failures),
        )

    def test_case_replays_independent_of_total(self):
        """Case i depends only on (seed, i), not on how many cases run."""
        long = run_fuzz(6, 7)
        short = run_fuzz(3, 7)
        # Same per-case streams => same per-case run counts for the
        # shared prefix (4 runs per case).
        assert short.runs * 2 == long.runs

    def test_failure_is_shrunk_and_persisted(self, tmp_path, monkeypatch):
        def planted(graph, name, kwargs, query, k, symmetric, counters=None):
            # Plant a deterministic "bug" that any graph with > 6 nodes
            # exhibits, so the BFS-ball shrinker has room to cut.
            if graph.num_nodes > 6:
                return ["planted failure"]
            return []

        monkeypatch.setattr(fuzz_mod, "_case_messages", planted)
        summary = run_fuzz(1, 0, out_dir=tmp_path)
        assert not summary.ok
        failure = summary.failures[0]
        assert failure.messages == ["planted failure"]
        assert failure.repro_path is not None

        manifest = json.loads(open(failure.repro_path).read())
        assert manifest["messages"] == ["planted failure"]
        graph = load_npz(tmp_path / manifest["graph_file"])
        # Shrunken to a BFS ball that still exhibits the failure...
        assert graph.num_nodes > 6
        # ...and the shrunken case still fails under the predicate.
        assert planted(graph, None, None, manifest["query"], manifest["k"], None)

    def test_progress_callback(self):
        seen = []
        run_fuzz(3, 1, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestComponentRestriction:
    @pytest.mark.parametrize("name", [n for n, _ in fuzz_mod._MEASURE_GRID])
    def test_k_n_minus_1_on_disconnected_graph_is_clean(self, name):
        """Regression: with ``k = n - 1`` the GI top-k also lists the
        unreachable nodes 4 and 5; the exhausted component {1, 2, 3} is
        the right answer, not a mismatch."""
        graph = CSRGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        kwargs = dict(fuzz_mod._MEASURE_GRID)[name][0]
        assert fuzz_mod._case_messages(graph, name, kwargs, 0, 5, False) == []


class TestShrinker:
    def test_shrinks_k_first(self):
        g = erdos_renyi(20, 60, seed=0)

        def fails(graph, query, k):
            return k >= 2  # failure needs k of at least 2

        small, query, k, node_map = shrink_case(g, 0, 7, fails)
        assert k == 2
        assert fails(small, query, k)

    def test_cuts_to_bfs_ball(self):
        g = path_graph(30)

        def fails(graph, query, k):
            return graph.num_nodes >= 4

        small, query, k, node_map = shrink_case(g, 0, 1, fails)
        assert small.num_nodes < 30
        assert fails(small, query, k)
        # node_map relabels shrunken ids back to the original graph.
        assert len(node_map) == small.num_nodes
        assert node_map[query] == 0

    def test_returns_original_when_nothing_helps(self):
        g = path_graph(5)

        def fails(graph, query, k):
            return graph.num_nodes == 5 and k == 2

        small, query, k, node_map = shrink_case(g, 2, 2, fails)
        assert small.num_nodes == 5 and k == 2
        assert np.array_equal(node_map, np.arange(5))


class TestWriteRepro:
    def test_round_trip(self, tmp_path):
        g = erdos_renyi(10, 20, seed=3)
        manifest_path = write_repro(
            tmp_path,
            g,
            {"query": 4, "k": np.int64(2), "values": np.array([1.5, 2.5])},
            stem="mini",
        )
        manifest = json.loads(manifest_path.read_text())
        assert manifest["query"] == 4
        assert manifest["k"] == 2  # numpy scalar coerced to plain int
        assert manifest["values"] == [1.5, 2.5]
        loaded = load_npz(tmp_path / manifest["graph_file"])
        assert loaded.num_nodes == g.num_nodes
        assert loaded.num_edges == g.num_edges


class TestSummary:
    def test_ok_property(self):
        s = FuzzSummary(cases=1)
        assert s.ok
        s.failures.append("x")
        assert not s.ok
