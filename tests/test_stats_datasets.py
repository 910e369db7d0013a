"""Tests for graph statistics and the dataset stand-ins."""

import hashlib

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.datasets import (
    DATASET_VERSION,
    DATASETS,
    PAPER_TABLE4,
    clear_memo,
    load_dataset,
)
from repro.graph.generators import path_graph, star_graph
from repro.graph.memory import CSRGraph
from repro.graph.stats import degree_histogram, graph_stats


class TestStats:
    def test_star(self):
        s = graph_stats(star_graph(9))
        assert s.num_nodes == 10
        assert s.max_degree == 9
        assert s.min_degree == 1
        assert s.mean_degree == pytest.approx(18 / 10)

    def test_isolated_counted(self):
        g = CSRGraph.from_edges(5, [(0, 1)])
        s = graph_stats(g)
        assert s.isolated_nodes == 3

    def test_empty(self):
        s = graph_stats(CSRGraph.from_edges(0, []))
        assert s.num_nodes == 0

    def test_as_row_keys(self):
        row = graph_stats(path_graph(4)).as_row()
        assert set(row) >= {"nodes", "edges", "density", "max_deg"}

    def test_degree_histogram_exact(self):
        values, counts = degree_histogram(star_graph(5))
        assert dict(zip(map(int, values), map(int, counts))) == {1: 5, 5: 1}

    def test_degree_histogram_log_bins(self):
        edges, counts = degree_histogram(star_graph(50), log_bins=5)
        assert counts.sum() == 51


class TestDatasets:
    def test_registry_covers_table4(self):
        assert set(DATASETS) == set(PAPER_TABLE4)
        for name, spec in DATASETS.items():
            assert (spec.paper_nodes, spec.paper_edges) == PAPER_TABLE4[name]

    def test_small_scale_generation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memo()
        g = load_dataset("AZ", scale=0.002)
        spec = DATASETS["AZ"]
        assert abs(g.num_nodes - spec.paper_nodes * 0.002) < 10
        # Edge count within 40% of the scaled target.
        assert 0.6 * spec.paper_edges * 0.002 <= g.num_edges

    def test_memoised(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memo()
        a = load_dataset("DP", scale=0.002)
        b = load_dataset("DP", scale=0.002)
        assert a is b

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memo()
        a = load_dataset("YT", scale=0.001)
        clear_memo()
        b = load_dataset("YT", scale=0.001)
        assert a.num_edges == b.num_edges
        assert any(tmp_path.iterdir())

    def test_unknown_dataset(self):
        with pytest.raises(GraphError, match="unknown dataset"):
            load_dataset("WAT")

    def test_social_standin_has_hubs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memo()
        g = load_dataset("YT", scale=0.01)
        degrees = np.diff(g._indptr)
        assert degrees.max() > 20 * np.median(degrees)

    def test_no_disk_cache_touches_no_disk(self, tmp_path, monkeypatch):
        # The cache directory cannot exist (its parent is a regular
        # file); generating without the disk cache must not try.
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        clear_memo()
        g = load_dataset("AZ", scale=0.002, use_disk_cache=False)
        clear_memo()
        assert g.num_nodes > 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


#: SHA-256 over ``dtype.str`` + bytes of ``indptr``, ``indices`` and
#: ``weights`` of each stand-in, generated without any cache.  A change
#: to a generator, the builder or the CSR assembly that alters a
#: benchmark graph fails here; such a change must also bump
#: ``DATASET_VERSION`` so stale on-disk caches are never read.
STANDIN_DIGESTS = {
    ("AZ", 0.03): (
        "a4d432914d099aca7e596e16d65038f10698bac8e812e6da8691ce6c035e0bc4"
    ),
    ("AZ", 0.1): (
        "cbea8293ab23a4e677a6b0fb4957119b22aebb4dc6bb8a6737405a4e973e03af"
    ),
    ("DP", 0.01): (
        "397ecf5b0ef0c569d4986e2353a2ca76197424ef1595879a762f593e4fbe4430"
    ),
    ("YT", 0.005): (
        "952b684d67c1341adc3a18660809ba8bfcb58524b948eccd1ef7568faeeebce9"
    ),
    ("LJ", 0.002): (
        "29fa5288d458e8b84b8cdc290780bfad54f76cb585f8fb882a3e885e0f9a89fc"
    ),
}


def graph_digest(graph: CSRGraph) -> str:
    h = hashlib.sha256()
    for arr in (graph._indptr, graph._indices, graph._weights):
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "name, scale", list(STANDIN_DIGESTS), ids=str
)
def test_standin_digest_pinned(name, scale):
    assert DATASET_VERSION == 2
    clear_memo()
    try:
        graph = load_dataset(name, scale=scale, use_disk_cache=False)
    finally:
        clear_memo()
    assert graph_digest(graph) == STANDIN_DIGESTS[(name, scale)]
