"""Micro-benchmarks of the engine primitives (not a paper figure).

Performance-regression coverage for the three hot paths every FLoS
query exercises thousands of times: visited-set expansion
(``LocalView._visit``), the store-backed mat-vec
(``LocalView.transition_operator``), and
the warm-started Jacobi solve — plus the serving layer: a
:class:`~repro.core.session.QuerySession` replaying a repeated-query
workload against per-request ``flos_top_k`` calls, which quantifies the
per-query setup amortization the session buys. The pytest-benchmark
table makes regressions in any of them visible immediately.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.api import flos_top_k
from repro.core.flos import FLoSOptions, PHPSpaceEngine
from repro.core.iterative import jacobi_solve
from repro.core.localgraph import LocalView
from repro.core.session import QuerySession
from repro.graph.generators import rmat
from repro.measures import RWR


@pytest.fixture(scope="module")
def graph():
    return rmat(14, 150_000, seed=20)


def test_micro_localview_expansion(benchmark, graph):
    """Visit ~1k nodes through the incremental LocalView."""

    def expand():
        view = LocalView(graph, 17, track_tightening=True)
        while view.size < 1000:
            boundary = np.flatnonzero(view.boundary_mask())
            if not len(boundary):
                break
            view.expand(int(boundary[-1]))
        return view.size

    size = benchmark(expand)
    assert size >= 1000 or size == graph.num_nodes


def test_micro_coo_matvec(benchmark, graph):
    """One sparse mat-vec over a ~100k-triplet visited subgraph."""
    view = LocalView(graph, 17, track_tightening=False)
    while view.size < 4000:
        boundary = np.flatnonzero(view.boundary_mask())
        if not len(boundary):
            break
        for local in boundary[-8:]:
            view.expand(int(local))
    op = view.transition_operator(0.5)
    x = np.random.default_rng(0).random(view.size)
    y = benchmark(lambda: op @ x)
    assert y.shape == x.shape


def test_micro_jacobi_warm_start(benchmark, graph):
    """A warm-started bound refresh (the per-iteration solve of Alg. 7)."""
    view = LocalView(graph, 17, track_tightening=False)
    while view.size < 2000:
        boundary = np.flatnonzero(view.boundary_mask())
        if not len(boundary):
            break
        for local in boundary[-4:]:
            view.expand(int(local))
    op = view.transition_operator(0.5)
    e = np.zeros(view.size)
    e[0] = 1.0
    warm, _ = jacobi_solve(op, e, np.zeros(view.size), tau=1e-5)

    def refresh():
        return jacobi_solve(op, e, warm, tau=1e-5)

    r, iterations = benchmark(refresh)
    assert iterations <= 3  # warm start converges almost immediately


def test_micro_full_query(benchmark, graph):
    """End-to-end single PHP query on the 16k-node R-MAT graph."""

    def query():
        engine = PHPSpaceEngine(
            graph, 17, 10, decay=0.5, options=FLoSOptions(tie_epsilon=1e-5)
        )
        return engine.run()

    outcome = benchmark(query)
    assert outcome.exact


def test_micro_session_amortization():
    """Session reuse vs fresh ``flos_top_k`` on a 75-request workload.

    A serving workload repeats queries (popular nodes are queried over
    and over), so the workload replays 25 distinct RWR queries three
    times each.  The fresh path pays per-request setup — measure
    resolution, option validation, engine wiring — and recomputes every
    repeat; the session path validates once, shares the degree order,
    and serves repeats from its LRU.  Results must stay bit-identical.
    """
    graph = rmat(12, 40_000, seed=21)
    k = 10
    options = FLoSOptions(tie_epsilon=1e-5)
    rng = np.random.default_rng(20140622)
    distinct: list[int] = []
    while len(distinct) < 25:
        q = int(rng.integers(0, graph.num_nodes))
        if graph.degree(q) > 0 and q not in distinct:
            distinct.append(q)
    workload = distinct * 3  # 75 requests, >= 50

    started = time.perf_counter()
    fresh = [
        flos_top_k(
            graph, "rwr", q, k, options=FLoSOptions(tie_epsilon=1e-5), c=0.5
        )
        for q in workload
    ]
    fresh_seconds = time.perf_counter() - started

    session = QuerySession(graph, RWR(0.5), options=options)
    started = time.perf_counter()
    served = session.top_k_many(workload, k)
    session_seconds = time.perf_counter() - started

    for a, b in zip(served, fresh):
        assert list(a.nodes) == list(b.nodes)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.exact == b.exact

    metrics = session.metrics()
    assert metrics.cache_hits == 50 and metrics.cache_misses == 25

    from repro.bench.tables import format_table, write_report

    speedup = fresh_seconds / session_seconds if session_seconds else float("inf")
    write_report(
        "micro_session_amortization",
        format_table(
            "per-query setup amortization — 75-request RWR workload "
            "(25 distinct x 3)",
            ["path", "total (ms)", "per request (ms)"],
            [
                [
                    "fresh flos_top_k",
                    fresh_seconds * 1e3,
                    fresh_seconds / len(workload) * 1e3,
                ],
                [
                    "QuerySession",
                    session_seconds * 1e3,
                    session_seconds / len(workload) * 1e3,
                ],
            ],
            note=(
                f"session reuse is {speedup:.1f}x faster; "
                f"{metrics.cache_hits} of {metrics.queries_served} requests "
                "served from the result LRU"
            ),
        ),
    )
    assert session_seconds < fresh_seconds
