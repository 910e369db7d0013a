"""Serving-layer hardening: clock discipline and thread safety.

Two regression areas:

* deadlines run on ``time.monotonic()`` *only* — a fake advancing
  monotonic clock produces a deterministic ``"deadline"`` termination,
  and a booby-trapped ``time.time()`` proves the wall clock is never
  consulted on the serving path (an NTP step must not fire or starve a
  deadline);
* the cache / metrics / slow-query log stay consistent under a thread
  hammer that mutates returned results while other threads fetch the
  same keys — defensive copies mean no caller can corrupt what later
  callers receive.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import PHP, FLoSOptions, QueryOverrides, QuerySession
from repro.graph.generators import erdos_renyi

GRAPH = erdos_renyi(300, 1200, seed=5)


class FakeMonotonic:
    """Monotonic stand-in advancing a fixed tick per reading."""

    def __init__(self, tick: float):
        self.tick = tick
        self.now = 1000.0  # arbitrary epoch; only differences matter

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


class TestMonotonicDeadlines:
    def test_fake_clock_fires_deadline_deterministically(self, monkeypatch):
        # Every clock reading advances 10 ms; a 25 ms deadline is
        # crossed on the engine's second budget check no matter how
        # fast the host actually is.
        clock = FakeMonotonic(0.010)
        monkeypatch.setattr(time, "monotonic", clock)
        session = QuerySession(
            GRAPH, PHP(0.5), options=FLoSOptions(on_budget="degrade")
        )
        result = session.top_k(
            0, 10, overrides=QueryOverrides(deadline_seconds=0.025)
        )
        assert result.stats.termination == "deadline"
        assert not result.exact
        # Wall time read off the same fake clock: strictly positive and
        # a whole number of ticks.
        waited = result.stats.wall_time_seconds
        assert waited > 0
        assert abs(waited / clock.tick - round(waited / clock.tick)) < 1e-9

    def test_wall_clock_is_never_consulted(self, monkeypatch):
        def trapped():  # pragma: no cover - must not run
            raise AssertionError("serving path consulted time.time()")

        monkeypatch.setattr(time, "time", trapped)
        session = QuerySession(
            GRAPH, PHP(0.5), options=FLoSOptions(on_budget="degrade")
        )
        exact = session.top_k(1, 5)
        assert exact.exact
        degraded = session.top_k(
            2, 5, overrides=QueryOverrides(deadline_seconds=1e-9)
        )
        assert degraded.stats.termination == "deadline"
        session.top_k_many([3, 4, 3], 5)
        session.metrics()
        session.slow_queries()

    def test_deadline_inf_lifts_session_deadline(self):
        session = QuerySession(
            GRAPH,
            PHP(0.5),
            options=FLoSOptions(
                deadline_seconds=1e-9, on_budget="degrade"
            ),
        )
        assert not session.top_k(5, 5).exact
        lifted = session.top_k(
            5, 5, overrides=QueryOverrides(deadline_seconds=float("inf"))
        )
        assert lifted.exact


class TestConcurrencyHammer:
    def test_mutating_readers_cannot_corrupt_cache_or_metrics(self):
        session = QuerySession(GRAPH, PHP(0.5))
        queries = [int(q) for q in np.arange(24) % 8]  # heavy repeats
        k = 6
        pristine = {
            q: session.top_k(q, k) for q in set(queries)
        }  # warm the cache; these objects are ours to compare against
        baseline = {q: (r.nodes.copy(), r.values.copy()) for q, r in pristine.items()}

        errors: list[Exception] = []
        barrier = threading.Barrier(8)

        def hammer(worker: int) -> None:
            try:
                barrier.wait()
                for round_ in range(10):
                    q = queries[(worker + round_) % len(queries)]
                    res = session.top_k(q, k)
                    nodes, values = baseline[q]
                    assert np.array_equal(res.nodes, nodes)
                    assert np.array_equal(res.values, values)
                    # Vandalise our private copy: later fetches (any
                    # thread) must still see pristine data.
                    res.values[:] = -1.0
                    res.nodes[:] = 0
                    res.stats.visited_nodes = -999
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

        # One more clean fetch per key after the vandalism.
        for q, (nodes, values) in baseline.items():
            res = session.top_k(q, k)
            assert np.array_equal(res.nodes, nodes)
            assert np.array_equal(res.values, values)

        metrics = session.metrics()
        assert (
            metrics.cache_hits + metrics.cache_misses
            == metrics.queries_served
        )
        assert metrics.queries_served == len(set(queries)) + 80 + len(baseline)
        assert metrics.cache_misses == len(set(queries))

    def test_parallel_batch_keeps_slow_log_and_metrics_valid(self):
        # Four caller threads each serve a batch of five distinct
        # queries through one shared session.
        session = QuerySession(GRAPH, PHP(0.5))
        summaries: list = [None] * 4
        errors: list[Exception] = []

        def serve(worker: int) -> None:
            try:
                summaries[worker] = session.top_k_many(
                    range(5 * worker, 5 * worker + 5), 5
                )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=serve, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert sum(len(s.results) for s in summaries) == 20
        metrics = session.metrics()
        assert (
            metrics.cache_hits + metrics.cache_misses
            == metrics.queries_served
            == 20
        )
        entries = session.slow_queries()
        assert entries
        walls = [e["wall_seconds"] for e in entries]
        assert walls == sorted(walls, reverse=True)
        for e in entries:
            assert set(e) == {
                "query",
                "k",
                "wall_seconds",
                "visited_nodes",
                "termination",
                "exact",
            }
            assert 0 <= e["query"] < 20 and e["k"] == 5
