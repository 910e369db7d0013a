"""Tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

from repro.cli import main
from repro.graph.generators import erdos_renyi
from repro.graph.io import read_edgelist, write_edgelist


@pytest.fixture
def graph_file(tmp_path):
    g = erdos_renyi(100, 300, seed=5)
    path = tmp_path / "g.txt"
    write_edgelist(g, path)
    return path


class TestGenerate:
    @pytest.mark.parametrize("model", ["er", "rmat", "chung-lu", "community"])
    def test_generate_models(self, tmp_path, model, capsys):
        out = tmp_path / "g.txt"
        code = main(
            [
                "generate", model, str(out),
                "--nodes", "200", "--edges", "500", "--seed", "1",
            ]
        )
        assert code == 0
        assert out.exists()
        g = read_edgelist(out)
        assert g.num_nodes >= 100
        assert "wrote" in capsys.readouterr().out

    def test_generate_npz(self, tmp_path):
        out = tmp_path / "g.npz"
        assert main(
            ["generate", "er", str(out), "--nodes", "50", "--edges", "100"]
        ) == 0
        from repro.graph.io import load_npz

        assert load_npz(out).num_nodes == 50

    def test_generate_disk_store(self, tmp_path):
        out = tmp_path / "g.flos"
        assert main(
            ["generate", "er", str(out), "--nodes", "50", "--edges", "100"]
        ) == 0
        from repro.graph.disk import DiskGraph

        with DiskGraph(out) as d:
            assert d.num_nodes == 50


class TestConvert:
    def test_edgelist_to_npz_roundtrip(self, graph_file, tmp_path):
        out = tmp_path / "g.npz"
        assert main(["convert", str(graph_file), str(out)]) == 0
        from repro.graph.io import load_npz

        original = read_edgelist(graph_file)
        converted = load_npz(out)
        assert converted.num_edges == original.num_edges

    def test_flos_input_rejected(self, tmp_path, capsys):
        src = tmp_path / "g.flos"
        src.write_bytes(b"FLOSDG01" + b"\0" * 100)
        out = tmp_path / "g.txt"
        assert main(["convert", str(src), str(out)]) == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_stats_output(self, graph_file, capsys):
        assert main(["stats", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 100" in out
        assert "edges: 300" in out


class TestQuery:
    def test_query_php(self, graph_file, capsys):
        code = main(
            ["query", str(graph_file), "-q", "3", "--k", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-5 for node 3 under PHP" in out
        assert "visited" in out

    @pytest.mark.parametrize("measure", ["ei", "dht", "rwr", "tht"])
    def test_query_other_measures(self, graph_file, measure, capsys):
        assert main(
            [
                "query", str(graph_file), "-q", "3", "--k", "3",
                "--measure", measure,
            ]
        ) == 0
        assert "top-3" in capsys.readouterr().out

    def test_query_against_disk_store(self, tmp_path, capsys):
        store = tmp_path / "g.flos"
        assert main(
            ["generate", "er", str(store), "--nodes", "200", "--edges", "600"]
        ) == 0
        assert main(["query", str(store), "-q", "0", "--k", "4"]) == 0
        assert "top-4" in capsys.readouterr().out

    def test_query_matches_library_call(self, graph_file, capsys):
        main(["query", str(graph_file), "-q", "3", "--k", "5"])
        out = capsys.readouterr().out
        from repro import PHP, flos_top_k

        expected = flos_top_k(read_edgelist(graph_file), PHP(0.5), 3, 5)
        for node in expected.nodes:
            assert f"node {int(node)}" in out

    def test_bad_query_node(self, graph_file, capsys):
        assert main(["query", str(graph_file), "-q", "9999"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_query_visited_budget_degrades(self, graph_file, capsys):
        code = main(
            [
                "query", str(graph_file), "-q", "3", "--k", "3",
                "--max-visited", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "anytime result: visited_budget" in out
        assert "residual bound gap" in out

    def test_query_budget_raise_policy(self, graph_file, capsys):
        code = main(
            [
                "query", str(graph_file), "-q", "3", "--k", "3",
                "--max-visited", "8", "--on-budget", "raise",
            ]
        )
        assert code == 1
        assert "exceeding its budget" in capsys.readouterr().err

    def test_query_generous_deadline_stays_exact(self, graph_file, capsys):
        code = main(
            [
                "query", str(graph_file), "-q", "3", "--k", "3",
                "--deadline", "60",
            ]
        )
        assert code == 0
        assert "anytime result" not in capsys.readouterr().out

    def test_bad_deadline_rejected(self, graph_file, capsys):
        assert main(
            ["query", str(graph_file), "-q", "3", "--deadline", "-1"]
        ) == 1
        assert "deadline_seconds" in capsys.readouterr().err


class TestDatasets:
    def test_list(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("AZ", "DP", "YT", "LJ"):
            assert name in out

    def test_materialise_small(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.graph.datasets import clear_memo

        clear_memo()
        assert main(["datasets", "AZ", "--scale", "0.002"]) == 0
        assert "AZ:" in capsys.readouterr().out


class TestMisc:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_exactly_the_documented_commands(self, capsys):
        """``bench`` is gone: perfbench is the one performance harness."""
        from repro.cli import build_parser

        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == {
            "generate", "convert", "stats", "query", "fuzz", "datasets"
        }
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
