"""Unit and integration tests for the disk-resident graph store."""

import numpy as np
import pytest

from repro import PHP, RWR, FLoSOptions, flos_top_k
from repro.errors import DiskFormatError
from repro.graph.disk import DiskGraph, write_disk_graph
from repro.graph.disk.format import Header
from repro.graph.generators import erdos_renyi, rmat


@pytest.fixture
def stored_graph(tmp_path):
    g = erdos_renyi(300, 900, seed=5, weighted=True)
    path = tmp_path / "g.flos"
    write_disk_graph(g, path)
    return g, path


class TestRoundTrip:
    def test_counts_and_max_degree(self, stored_graph):
        g, path = stored_graph
        with DiskGraph(path) as d:
            assert d.num_nodes == g.num_nodes
            assert d.num_edges == g.num_edges
            assert d.max_degree == pytest.approx(g.max_degree)

    def test_neighbors_match(self, stored_graph):
        g, path = stored_graph
        with DiskGraph(path) as d:
            for u in range(0, g.num_nodes, 17):
                ids_m, w_m = g.neighbors(u)
                ids_d, w_d = d.neighbors(u)
                assert np.array_equal(ids_m, ids_d)
                np.testing.assert_allclose(w_m, w_d)

    def test_degrees_match(self, stored_graph):
        g, path = stored_graph
        with DiskGraph(path) as d:
            for u in range(0, g.num_nodes, 23):
                assert d.degree(u) == pytest.approx(g.degree(u))
                assert d.out_degree(u) == g.out_degree(u)

    def test_unweighted_graphs_skip_weight_region(self, tmp_path):
        g = erdos_renyi(100, 300, seed=6)  # unit weights
        pw = tmp_path / "w.flos"
        pu = tmp_path / "u.flos"
        write_disk_graph(g, pu)
        write_disk_graph(g, pw, force_weighted=True)
        assert pu.stat().st_size < pw.stat().st_size
        with DiskGraph(pu) as d:
            _, w = d.neighbors(0)
            assert np.all(w == 1.0)


class TestCacheBehaviour:
    def test_small_budget_evicts(self, tmp_path):
        g = rmat(11, 10_000, seed=7)
        path = tmp_path / "g.flos"
        write_disk_graph(g, path, page_size=4096)
        with DiskGraph(path, memory_budget=8 * 4096) as d:
            rng = np.random.default_rng(0)
            for _ in range(300):
                d.neighbors(int(rng.integers(0, d.num_nodes)))
            stats = d.cache_stats
            assert stats.evictions > 0
            assert d._cache.resident_pages <= 8

    def test_repeated_access_hits_cache(self, stored_graph):
        _, path = stored_graph
        with DiskGraph(path) as d:
            d.neighbors(5)
            before = d.cache_stats.misses
            d.neighbors(5)
            assert d.cache_stats.misses == before
            assert d.cache_stats.hits > 0

    def test_drop_cache(self, stored_graph):
        _, path = stored_graph
        with DiskGraph(path) as d:
            d.neighbors(5)
            d.drop_cache()
            before = d.cache_stats.misses
            d.neighbors(5)
            assert d.cache_stats.misses > before


class TestErrors:
    def test_truncated_file(self, stored_graph, tmp_path):
        _, path = stored_graph
        raw = path.read_bytes()
        bad = tmp_path / "trunc.flos"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DiskFormatError, match="truncated"):
            DiskGraph(bad)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.flos"
        path.write_bytes(b"NOTAGRPH" + b"\0" * 100)
        with pytest.raises(DiskFormatError, match="magic"):
            DiskGraph(path)

    def test_closed_store_raises(self, stored_graph):
        _, path = stored_graph
        d = DiskGraph(path)
        d.close()
        with pytest.raises(DiskFormatError, match="closed"):
            d.neighbors(0)

    def test_header_roundtrip(self):
        h = Header(10, 40, 4096, 1, 7.5)
        h2 = Header.unpack(h.pack())
        assert h2 == h
        assert h2.weighted
        assert h2.num_edges == 20

    def test_header_odd_entries(self):
        h = Header(10, 41, 4096, 0, 1.0)
        with pytest.raises(DiskFormatError, match="even"):
            Header.unpack(h.pack())


class TestSearchOnDisk:
    def test_flos_identical_on_disk_and_memory(self, tmp_path):
        """The paper's Sec. 6.4 claim: FLoS runs unchanged on the store,
        and answers it bit for bit as in memory, weighted or not."""
        graphs = {
            "unweighted": rmat(10, 4000, seed=8),
            "weighted": erdos_renyi(400, 1600, seed=9, weighted=True),
        }
        for name, g in graphs.items():
            path = tmp_path / f"{name}.flos"
            write_disk_graph(g, path)
            q = 12
            mem = flos_top_k(g, PHP(0.5), q, 10)
            with DiskGraph(path, memory_budget=1 << 20) as d:
                disk = flos_top_k(d, PHP(0.5), q, 10)
                assert disk.stats.visited_nodes == mem.stats.visited_nodes
                assert d.cache_stats.bytes_read > 0
            for field in ("nodes", "values", "lower", "upper"):
                np.testing.assert_array_equal(
                    getattr(disk, field), getattr(mem, field), err_msg=name
                )

    @pytest.mark.parametrize(
        "measure", [PHP(0.5), RWR(0.5)], ids=["php", "rwr"]
    )
    def test_search_uses_only_batch_reads(
        self, tmp_path, monkeypatch, measure
    ):
        """FLoS reads the store only through ``neighbors_many`` and
        ``degrees_of``: with the per-node reads disabled, a disk query
        still returns the in-memory answer bit for bit."""
        g = rmat(10, 4000, seed=8)
        path = tmp_path / "g.flos"
        write_disk_graph(g, path, page_size=4096)
        mem = flos_top_k(g, measure, 12, 10)

        def per_node_read(self, u):
            raise AssertionError("per-node read on the search path")

        monkeypatch.setattr(DiskGraph, "neighbors", per_node_read)
        monkeypatch.setattr(DiskGraph, "degree", per_node_read)
        with DiskGraph(path, memory_budget=1 << 20) as d:
            disk = flos_top_k(d, measure, 12, 10)
        for field in ("nodes", "values", "lower", "upper"):
            np.testing.assert_array_equal(
                getattr(disk, field), getattr(mem, field)
            )
        assert disk.stats.visited_nodes == mem.stats.visited_nodes
