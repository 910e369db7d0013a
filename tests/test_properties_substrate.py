"""Property-based tests for the storage substrates.

Complements ``test_properties_hypothesis.py`` (which covers the paper's
theorems): these properties pin the *infrastructure* — every storage
representation must present identical graph semantics.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.disk import DiskGraph, write_disk_graph
from repro.graph.dynamic import DynamicGraph
from repro.graph.io import read_edgelist, write_edgelist
from repro.graph.memory import CSRGraph

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


@st.composite
def edge_sets(draw, max_nodes: int = 25):
    n = draw(st.integers(2, max_nodes))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=3 * n,
        )
    )
    canonical = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    weighted = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    weights = (
        rng.uniform(0.25, 4.0, size=len(canonical)) if weighted else None
    )
    return n, np.array(canonical or np.empty((0, 2)), dtype=np.int64), weights


def build(n, edges, weights) -> CSRGraph:
    return CSRGraph.from_edges(n, edges, weights)


@SETTINGS
@given(edge_sets(), st.integers(0, 2**31))
def test_disk_store_is_semantically_identical(tmp_path_factory, spec, seed):
    n, edges, weights = spec
    g = build(n, edges, weights)
    # A shuffled batch with repeats, read back as the CSR reads it.
    batch = np.random.default_rng(seed).integers(0, n, size=2 * n)
    # Tiny pages stress paging; at 100 bytes an 8-byte entry can
    # straddle two pages.
    for page_size in (256, 100):
        path = tmp_path_factory.mktemp("p") / "g.flos"
        write_disk_graph(g, path, page_size=page_size)
        with DiskGraph(path, memory_budget=1024) as d:
            assert d.num_nodes == g.num_nodes
            assert d.num_edges == g.num_edges
            assert d.max_degree == g.max_degree
            for u in range(n):
                ids_m, w_m = g.neighbors(u)
                ids_d, w_d = d.neighbors(u)
                np.testing.assert_array_equal(ids_m, ids_d)
                np.testing.assert_array_equal(w_m, w_d)
                assert d.degree(u) == g.degree(u)
            got, want = d.neighbors_many(batch), g.neighbors_many(batch)
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)
            np.testing.assert_array_equal(
                d.degrees_of(batch), g.degrees_of(batch)
            )


@SETTINGS
@given(edge_sets())
def test_edgelist_roundtrip(tmp_path_factory, spec):
    n, edges, weights = spec
    g = build(n, edges, weights)
    path = tmp_path_factory.mktemp("p") / "g.txt"
    write_edgelist(g, path, write_weights=True)
    g2 = read_edgelist(path, num_nodes=n)
    assert g2.num_edges == g.num_edges
    np.testing.assert_allclose(g2.degrees, g.degrees, rtol=1e-12)


@SETTINGS
@given(edge_sets(), st.integers(0, 2**31))
def test_builder_duplicate_handling(spec, seed):
    n, edges, weights = spec
    if len(edges) == 0:
        return
    rng = np.random.default_rng(seed)
    # Feed each edge 1-3 times in random orientations; "first" keeps the
    # first weight, so the result equals the deduplicated original.
    builder = GraphBuilder(n, merge="first")
    for i, (u, v) in enumerate(edges):
        w = weights[i] if weights is not None else 1.0
        repeats = int(rng.integers(1, 4))
        for _ in range(repeats):
            if rng.random() < 0.5:
                builder.add_edge(int(u), int(v), w)
            else:
                builder.add_edge(int(v), int(u), w)
    g = builder.build()
    expected = build(n, edges, weights)
    assert g.num_edges == expected.num_edges
    np.testing.assert_allclose(g.degrees, expected.degrees)


@SETTINGS
@given(edge_sets(), st.integers(0, 2**31))
def test_dynamic_overlay_matches_rebuild(spec, seed):
    n, edges, weights = spec
    base = build(n, edges, weights)
    dyn = DynamicGraph(base)
    rng = np.random.default_rng(seed)
    for _ in range(15):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        if dyn.has_edge(u, v) and rng.random() < 0.4:
            dyn.remove_edge(u, v)
        else:
            dyn.add_edge(u, v, float(rng.uniform(0.5, 2.0)))
    rebuilt = dyn.compact()
    assert rebuilt.num_edges == dyn.num_edges
    for u in range(n):
        ids_d, w_d = dyn.neighbors(u)
        order = np.argsort(ids_d)
        ids_r, w_r = rebuilt.neighbors(u)
        np.testing.assert_array_equal(ids_d[order], ids_r)
        np.testing.assert_allclose(w_d[order], w_r)
