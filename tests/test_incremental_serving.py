"""Incremental serving on evolving graphs (update log + localized cache).

Covers the PR-10 contract end to end:

* :class:`~repro.graph.updates.UpdateLog` — monotone versions, bounded
  replay window, the ``compact()`` handshake;
* :class:`~repro.core.session.QuerySession` on update-log graphs —
  closed-ball localized invalidation (kept hits provably untouched),
  the mutable-graph stale-cache regression, the Sec. 5.6 max-degree
  guard for degree-weighted measures;
* boundary-only insertions — the stale entry is evicted and the query
  recomputed from scratch, matching a cold session on the compacted
  graph to round-off;
* overlay reads (per node and batched) vs. the scalar reference merge
  in ``tests/references.py`` (hypothesis);
* DynamicGraph ↔ ``compact()`` equivalence under randomized edit
  sequences, and top-k agreement across all five measures;
* update broadcast through :class:`~repro.serve.ShardedServer`, whose
  dispatcher cache stamps an entry at submit time, so an answer that
  arrives after an update touching its ball is never served again;
* a churn replay: localized invalidation and a flush-every-round session
  both checked, answer by answer, against a cold session on the
  compacted graph, with localized invalidation keeping more hits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import flos_top_k
from repro.core.api import QueryRequest
from repro.core.flos import FLoSOptions
from repro.core.session import QuerySession
from repro.errors import ConfigurationError, GraphError
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi, grid_graph, path_graph
from repro.graph.updates import (
    EdgeEvent,
    EdgeUpdate,
    UpdateLog,
    apply_edge_updates,
)
from repro.measures import resolve_measure, solve_direct
from repro.serve import ShardedServer
from tests import references

CHECK = FLoSOptions(audit="check")


# ----------------------------------------------------------------------
# UpdateLog
# ----------------------------------------------------------------------


class TestUpdateLog:
    def test_versions_are_monotone_and_consecutive(self):
        log = UpdateLog()
        assert log.version == 0
        assert log.record(0, 1, "add") == 1
        assert log.record(1, 2, "remove") == 2
        assert [e.version for e in log.events_since(0)] == [1, 2]

    def test_events_since_semantics(self):
        log = UpdateLog()
        log.record(0, 1, "add")
        log.record(2, 3, "add")
        assert log.events_since(2) == []  # current
        suffix = log.events_since(1)
        assert suffix == [EdgeEvent(2, 2, 3, "add")]
        assert log.events_since(0) is not None
        assert len(log.events_since(0)) == 2

    def test_window_overflow_answers_none(self):
        log = UpdateLog(window=2)
        for i in range(4):
            log.record(i, i + 1, "add")
        assert log.events_since(0) is None  # fell off the window
        assert log.events_since(1) is None
        assert [e.version for e in log.events_since(2)] == [3, 4]
        assert len(log) == 2

    def test_compact_keeps_counter_drops_events(self):
        log = UpdateLog()
        log.record(0, 1, "add")
        assert log.compact() == 1
        assert log.version == 1
        assert log.events_since(0) is None  # outstanding versions stale
        assert log.events_since(1) == []  # the post-compact version is fine
        assert log.record(3, 4, "add") == 2  # counter stays monotone

    def test_touched_since(self):
        log = UpdateLog()
        log.record(5, 3, "add")
        log.record(3, 9, "remove")
        np.testing.assert_array_equal(log.touched_since(0), [3, 5, 9])
        assert log.touched_since(2).size == 0
        log2 = UpdateLog(window=1)
        log2.record(0, 1, "add")
        log2.record(1, 2, "add")
        assert log2.touched_since(0) is None

    def test_bad_inputs_raise(self):
        with pytest.raises(GraphError, match="kind"):
            UpdateLog().record(0, 1, "tweak")
        with pytest.raises(GraphError, match="window"):
            UpdateLog(window=0)
        with pytest.raises(GraphError, match="kind"):
            EdgeUpdate(0, 1, "tweak")

    def test_injected_update_log(self):
        log = UpdateLog(window=4)
        dyn = DynamicGraph(path_graph(4), update_log=log)
        dyn.add_edge(0, 2)
        assert dyn.update_log is log
        assert dyn.version == log.version == 1


class TestApplyEdgeUpdates:
    def test_applies_in_order_and_counts(self):
        dyn = DynamicGraph(path_graph(5))
        n = apply_edge_updates(
            dyn,
            [
                EdgeUpdate(0, 2, "add", weight=2.0),
                EdgeUpdate(0, 2, "remove"),
                EdgeUpdate(0, 3),
            ],
        )
        assert n == 3
        assert dyn.version == 3
        assert not dyn.has_edge(0, 2)
        assert dyn.edge_weight(0, 3) == 1.0

    def test_failure_reports_position_and_stops(self):
        dyn = DynamicGraph(path_graph(5))
        with pytest.raises(GraphError, match=r"update 2/3 \(remove 1-4\)"):
            apply_edge_updates(
                dyn,
                [
                    EdgeUpdate(0, 4),
                    EdgeUpdate(1, 4, "remove"),  # fails: no such edge
                    EdgeUpdate(1, 3),
                ],
            )
        # Strictly in order: the first applied, the third never ran.
        assert dyn.has_edge(0, 4)
        assert not dyn.has_edge(1, 3)
        assert dyn.version == 1

    def test_accepts_any_iterable(self):
        dyn = DynamicGraph(path_graph(5))
        assert apply_edge_updates(
            dyn, (EdgeUpdate(0, i) for i in (2, 3))
        ) == 2


# ----------------------------------------------------------------------
# Localized invalidation in QuerySession
# ----------------------------------------------------------------------


def _cold_answer(graph, measure, query, k, **kw):
    """Fresh-session recompute — the stale-cache oracle."""
    return QuerySession(graph, measure, **kw).top_k(query, k)


class TestLocalizedInvalidation:
    def test_stale_cache_regression_mutable_graph(self):
        """Satellite (a): a graph edited after caching must never serve
        the pre-edit answer."""
        dyn = DynamicGraph(path_graph(6))
        session = QuerySession(dyn, "php", c=0.5)
        before = session.top_k(0, 1)
        assert list(before.nodes) == [1]
        dyn.add_edge(0, 5, 50.0)  # node 5 becomes the closest neighbor
        after = session.top_k(0, 1)
        assert list(after.nodes) == [5]
        assert session.metrics().cache_invalidations == 1

    def test_untouched_ball_is_a_kept_hit(self):
        dyn = DynamicGraph(path_graph(60))
        session = QuerySession(dyn, "php", c=0.5)
        first = session.top_k(0, 3)
        ball = first.stats.visited_ball
        assert ball is not None and not ball.flags.writeable
        far = int(ball.max()) + 10
        dyn.add_edge(far, far + 5, 2.0)  # nowhere near the ball
        hit = session.top_k(0, 3)
        m = session.metrics()
        assert m.cache_hits == 1 and m.cache_invalidations == 0
        np.testing.assert_array_equal(hit.nodes, first.nodes)
        np.testing.assert_array_equal(hit.values, first.values)
        # The entry's version fast-forwarded: another lookup with no new
        # events is a plain hit, no replay needed.
        assert session.top_k(0, 3) is not None
        assert session.metrics().cache_hits == 2

    def test_ball_touch_invalidates_and_recomputes_correctly(self):
        dyn = DynamicGraph(path_graph(60))
        session = QuerySession(dyn, "php", c=0.5)
        session.top_k(0, 3)
        dyn.add_edge(0, 30, 10.0)  # inside the ball: must recompute
        served = session.top_k(0, 3)
        cold = _cold_answer(dyn, "php", 0, 3, c=0.5)
        np.testing.assert_array_equal(served.nodes, cold.nodes)
        assert session.metrics().cache_invalidations == 1

    def test_removal_in_ball_goes_cold(self):
        dyn = DynamicGraph(path_graph(60))
        session = QuerySession(dyn, "php", c=0.5)
        session.top_k(0, 3)
        dyn.remove_edge(2, 3)
        served = session.top_k(0, 3)
        assert not served.stats.warm_started
        cold = _cold_answer(dyn, "php", 0, 3, c=0.5)
        np.testing.assert_array_equal(served.nodes, cold.nodes)

    def test_window_overflow_goes_cold_but_correct(self):
        dyn = DynamicGraph(
            path_graph(60), update_log=UpdateLog(window=2)
        )
        session = QuerySession(dyn, "php", c=0.5)
        session.top_k(0, 3)
        for i in range(40, 44):  # 4 far-away events overflow window=2
            dyn.add_edge(i, i + 10, 2.0)
        served = session.top_k(0, 3)
        m = session.metrics()
        # The events are outside the ball, but the log can no longer
        # prove it — the session must go cold rather than guess.
        assert m.cache_hits == 0 and m.cache_invalidations == 1
        cold = _cold_answer(dyn, "php", 0, 3, c=0.5)
        np.testing.assert_array_equal(served.nodes, cold.nodes)

    def test_compact_invalidates_outstanding_entries(self):
        dyn = DynamicGraph(path_graph(60))
        session = QuerySession(dyn, "php", c=0.5)
        session.top_k(0, 3)
        dyn.add_edge(40, 50, 2.0)
        dyn.compact()  # handshake: outstanding versions now stale
        session.top_k(0, 3)
        m = session.metrics()
        assert m.cache_hits == 0 and m.cache_invalidations == 1

    def test_rwr_max_degree_guard(self):
        """Sec. 5.6: the RWR unvisited-mass guard reads the *global*
        max degree on overlay graphs, so a kept hit additionally needs
        it unchanged — even when the ball itself was never touched."""
        dyn = DynamicGraph(path_graph(60))
        session = QuerySession(dyn, "rwr", c=0.5)
        session.top_k(0, 3)
        # Far outside the ball, but raises max_degree from 2 to 4.
        dyn.add_edge(40, 50, 1.0)
        dyn.add_edge(40, 52, 1.0)
        assert dyn.max_degree == pytest.approx(4.0)
        served = session.top_k(0, 3)
        m = session.metrics()
        assert m.cache_hits == 0 and m.cache_invalidations == 1
        cold = _cold_answer(dyn, "rwr", 0, 3, c=0.5)
        np.testing.assert_array_equal(served.nodes, cold.nodes)

    def test_visited_set_touch_does_not_warm_start(self):
        dyn = DynamicGraph(path_graph(60))
        session = QuerySession(dyn, "php", c=0.5, options=CHECK)
        session.top_k(0, 3)
        dyn.add_edge(1, 40, 1.0)  # endpoint 1 is visited: T_S changes
        served = session.top_k(0, 3)
        assert not served.stats.warm_started
        assert session.metrics().warm_starts == 0

    def test_php_ignores_far_degree_change(self):
        """PHP is not degree-weighted: the same far edit stays a hit."""
        dyn = DynamicGraph(path_graph(60))
        session = QuerySession(dyn, "php", c=0.5)
        session.top_k(0, 3)
        dyn.add_edge(40, 50, 1.0)
        dyn.add_edge(40, 52, 1.0)
        session.top_k(0, 3)
        assert session.metrics().cache_hits == 1


# ----------------------------------------------------------------------
# Boundary-only insertions evict and recompute from scratch
# ----------------------------------------------------------------------


class TestBoundaryInsertionRecomputes:
    def _boundary_scenario(self, measure, **kw):
        """Cache a query, then insert an edge touching only the ball's
        boundary (never the visited set), and query again."""
        dyn = DynamicGraph(path_graph(60))
        session = QuerySession(dyn, measure, options=CHECK, **kw)
        first = session.top_k(0, 3)
        frontier = int(first.stats.visited_ball.max())
        dyn.add_edge(frontier, frontier + 5, 1.0)
        served = session.top_k(0, 3)
        return session, dyn, served

    @pytest.mark.parametrize(
        "measure,kw",
        [("php", {"c": 0.5}), ("rwr", {"c": 0.5}), ("tht", {"horizon": 8})],
        ids=["php", "rwr", "tht"],
    )
    def test_recomputes_exactly(self, measure, kw):
        session, dyn, served = self._boundary_scenario(measure, **kw)
        m = session.metrics()
        # The stale entry was evicted and the query ran an engine again.
        assert m.cache_invalidations == 1
        assert m.cache_hits == 0 and m.cache_misses == 2
        assert session.cache_size == 1
        assert m.warm_starts == 0
        assert served.stats.warm_started is False
        assert served.exact
        assert m.audit_violations == 0  # audit="check" would have raised
        # The recompute is the cold trajectory: it matches a fresh
        # session on the compacted graph to round-off, not to tau.
        cold = _cold_answer(dyn.compact(), measure, 0, 3, options=CHECK, **kw)
        np.testing.assert_array_equal(served.nodes, cold.nodes)
        for field in ("values", "lower", "upper"):
            np.testing.assert_allclose(
                getattr(served, field), getattr(cold, field),
                rtol=0, atol=1e-12,
            )

    def test_recompute_serves_later_hits(self):
        session, dyn, served = self._boundary_scenario("php", c=0.5)
        again = session.top_k(0, 3)
        assert session.metrics().cache_hits == 1
        np.testing.assert_array_equal(again.nodes, served.nodes)


# ----------------------------------------------------------------------
# Overlay merge: vectorized vs scalar reference (satellite b)
# ----------------------------------------------------------------------


@st.composite
def edit_scripts(draw):
    n = draw(st.integers(4, 16))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, 15),
                st.integers(0, 15),
                st.sampled_from(["add", "remove", "readd"]),
                st.floats(0.1, 5.0, allow_nan=False),
            ),
            min_size=0,
            max_size=30,
        )
    )
    return n, ops


def _apply_script(dyn: DynamicGraph, ops) -> None:
    n = dyn.num_nodes
    for u, v, action, w in ops:
        u %= n
        v %= n
        if u == v:
            continue
        if action == "remove":
            if dyn.has_edge(u, v):
                dyn.remove_edge(u, v)
        elif action == "readd":
            # Tombstone a base edge, then resurrect it — the delta path
            # that historically regressed.
            if dyn.has_edge(u, v):
                dyn.remove_edge(u, v)
            dyn.add_edge(u, v, w)
        else:
            dyn.add_edge(u, v, w)


class TestVectorizedNeighbors:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        edit_scripts(),
        st.integers(0, 2**31),
        st.lists(st.integers(0, 15), max_size=24),
    )
    def test_matches_scalar_reference_exactly(self, script, seed, drawn):
        """Per-node and batch reads ≡ the scalar reference merge after
        random add / overwrite / remove / tombstoned re-add scripts."""
        n, ops = script
        base = erdos_renyi(
            n, min(2 * n, n * (n - 1) // 2), seed=seed
        )
        dyn = DynamicGraph(base)
        # A read halfway through caches merged rows that the second
        # half of the script must invalidate.
        _apply_script(dyn, ops[: len(ops) // 2])
        dyn.neighbors_many(np.arange(n))
        _apply_script(dyn, ops[len(ops) // 2 :])
        # Batches mix mutated and untouched nodes, with repeats; they run
        # first, so the merged rows are built by the batch path.
        for batch in (np.array(drawn, dtype=np.int64) % n,
                      np.arange(n), np.r_[np.arange(n), np.arange(n)[::-1]]):
            np.testing.assert_array_equal(
                dyn.degrees_of(batch),
                [dyn.degree(int(u)) for u in batch],
            )
            ids, weights, counts = dyn.neighbors_many(batch)
            rows = [references.overlay_neighbors(dyn, int(u)) for u in batch]
            np.testing.assert_array_equal(counts, [len(r[0]) for r in rows])
            if len(batch):
                np.testing.assert_array_equal(
                    ids, np.concatenate([r[0] for r in rows])
                )
                np.testing.assert_array_equal(  # bitwise
                    weights, np.concatenate([r[1] for r in rows])
                )

        for u in range(n):
            ids_vec, w_vec = dyn.neighbors(u)
            ids_ref, w_ref = references.overlay_neighbors(dyn, u)
            np.testing.assert_array_equal(ids_vec, ids_ref)
            np.testing.assert_array_equal(w_vec, w_ref)  # bitwise

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(edit_scripts(), st.integers(0, 2**31))
    def test_compact_equivalence_and_bookkeeping(self, script, seed):
        """Satellite (d): overlay ≡ compacted rebuild under randomized
        add / remove / tombstoned-re-add, including the counters."""
        n, ops = script
        base = erdos_renyi(
            n, min(2 * n, n * (n - 1) // 2), seed=seed
        )
        dyn = DynamicGraph(base)
        _apply_script(dyn, ops)
        rebuilt = dyn.compact()
        assert rebuilt.num_edges == dyn.num_edges
        assert rebuilt.max_degree == pytest.approx(dyn.max_degree)
        for u in range(n):
            ids_d, w_d = dyn.neighbors(u)
            order = np.argsort(ids_d)
            ids_r, w_r = rebuilt.neighbors(u)
            np.testing.assert_array_equal(ids_d[order], ids_r)
            np.testing.assert_allclose(w_d[order], w_r)
            assert dyn.degree(u) == pytest.approx(rebuilt.degree(u))


class TestFiveMeasureAgreement:
    """Top-k on the overlay ≡ top-k on the compacted CSR, per measure."""

    @pytest.mark.parametrize(
        "name,kw",
        [
            ("php", {"c": 0.5}),
            ("ei", {"c": 0.5}),
            ("dht", {"c": 0.5}),
            ("rwr", {"c": 0.5}),
            ("tht", {"horizon": 8}),
        ],
    )
    def test_overlay_matches_compacted(self, name, kw):
        measure = resolve_measure(name, **kw)
        base = erdos_renyi(120, 360, seed=7)
        dyn = DynamicGraph(base)
        rng = np.random.default_rng(name.encode()[0])
        for _ in range(25):
            u, v = (int(x) for x in rng.integers(0, 120, size=2))
            if u == v:
                continue
            if dyn.has_edge(u, v) and rng.random() < 0.4:
                dyn.remove_edge(u, v)
            else:
                dyn.add_edge(u, v, float(rng.uniform(0.5, 2.0)))
        rebuilt = dyn.compact()
        res = flos_top_k(dyn, measure, 11, 5)
        exact = solve_direct(measure, rebuilt, 11)
        oracle = measure.top_k_from_vector(exact, 11, 5)
        np.testing.assert_allclose(
            np.sort(exact[res.nodes]), np.sort(exact[oracle]), atol=1e-5
        )


class TestOverlayReadsAreBatched:
    """Queries on an overlay read through the batch path: no per-node
    ``neighbors`` / ``degree`` calls, however the delta sits."""

    MEASURES = [
        ("php", {"c": 0.5}),
        ("ei", {"c": 0.5}),
        ("dht", {"c": 0.5}),
        ("rwr", {"c": 0.5}),
        ("tht", {"horizon": 6}),
    ]

    @staticmethod
    def _count_per_node_reads(monkeypatch) -> dict[str, list[int]]:
        calls: dict[str, list[int]] = {"neighbors": [], "degree": []}
        for name, log in calls.items():
            original = getattr(DynamicGraph, name)

            def counted(self, u, _original=original, _log=log):
                _log.append(int(u))
                return _original(self, u)

            monkeypatch.setattr(DynamicGraph, name, counted)
        return calls

    @staticmethod
    def _ball(graph, name, kw, query):
        return set(
            QuerySession(graph, name, **kw).top_k(query, 5)
            .stats.visited_ball.tolist()
        )

    @pytest.mark.parametrize("name,kw", MEASURES)
    def test_untouched_ball_makes_no_per_node_reads(
        self, monkeypatch, name, kw
    ):
        dyn = DynamicGraph(grid_graph(20, 20))
        ball = self._ball(dyn, name, kw, 21)
        outside = [u for u in range(dyn.num_nodes) if u not in ball]
        dyn.add_edge(outside[0], outside[1], 2.0)
        dyn.add_edge(outside[2], outside[3], 0.5)

        calls = self._count_per_node_reads(monkeypatch)
        result = QuerySession(dyn, name, **kw).top_k(21, 5)
        assert result.exact
        assert calls == {"neighbors": [], "degree": []}

    @pytest.mark.parametrize("name,kw", MEASURES)
    def test_touched_ball_reads_at_most_the_touched_rows(
        self, monkeypatch, name, kw
    ):
        dyn = DynamicGraph(grid_graph(20, 20))
        ball = sorted(self._ball(dyn, name, kw, 21) - {21})
        dyn.add_edge(ball[0], ball[-1], 2.0)
        ids, _ = dyn.neighbors(ball[1])
        dyn.remove_edge(ball[1], int(ids[0]))
        touched = {ball[0], ball[-1], ball[1], int(ids[0])}

        calls = self._count_per_node_reads(monkeypatch)
        result = QuerySession(dyn, name, **kw).top_k(21, 5)
        read = touched & set(result.stats.visited_ball.tolist())
        assert result.exact and read
        assert len(calls["neighbors"]) <= len(read)
        assert calls["degree"] == []


# ----------------------------------------------------------------------
# Churn replay against a cold oracle
# ----------------------------------------------------------------------


def churn_schedule(base, rounds: int, churn: int, seed: int):
    """A valid edge-update schedule (~80% add, 20% remove) per round.

    Simulated on a scratch overlay so every remove names an edge that
    exists at its point in the sequence; every policy and the oracle
    mirror replay the same batches.
    """
    rng = np.random.default_rng(seed)
    sim = DynamicGraph(base)
    n = base.num_nodes
    batches: list[list[EdgeUpdate]] = []
    for _ in range(rounds):
        batch: list[EdgeUpdate] = []
        for _ in range(churn):
            u = int(rng.integers(n))
            update = None
            if rng.random() < 0.2:
                ids, _ = sim.neighbors(u)
                if len(ids):
                    v = int(ids[int(rng.integers(len(ids)))])
                    update = EdgeUpdate(u, v, "remove")
            if update is None:
                v = int(rng.integers(n))
                while v == u:
                    v = int(rng.integers(n))
                update = EdgeUpdate(
                    u, v, "add", weight=float(rng.uniform(0.5, 1.5))
                )
            apply_edge_updates(sim, [update])
            batch.append(update)
        batches.append(batch)
    return batches


class TestChurnAgainstColdOracle:
    SEED = 20140622

    def test_every_served_answer_matches_the_compacted_oracle(self):
        base = erdos_renyi(4000, 16000, seed=1)
        rng = np.random.default_rng(self.SEED)
        queries: list[int] = []
        while len(queries) < 24:
            q = int(rng.integers(base.num_nodes))
            if base.degree(q) > 0:
                queries.append(q)
        batches = churn_schedule(base, rounds=4, churn=6, seed=self.SEED)
        measure = resolve_measure("php", c=0.5)
        options = FLoSOptions(tau=1e-3, audit="check")
        k = 5

        graph_localized = DynamicGraph(base)
        graph_flush = DynamicGraph(base)
        oracle_mirror = DynamicGraph(base)
        localized = QuerySession(
            graph_localized, measure, options=options, cache_size=256
        )
        flush = QuerySession(
            graph_flush, measure, options=options, cache_size=256
        )

        mismatches: list[str] = []
        for round_no in range(len(batches) + 1):
            if round_no > 0:
                batch = batches[round_no - 1]
                for graph in (graph_localized, graph_flush, oracle_mirror):
                    apply_edge_updates(graph, batch)
                flush.clear_cache()
            oracle = QuerySession(
                oracle_mirror.compact(), measure, options=options,
                cache_size=0,
            )
            for q in queries:
                expected = oracle.top_k(q, k)
                for label, session in (
                    ("localized", localized), ("flush", flush)
                ):
                    problem = references.oracle_mismatch(
                        session.top_k(q, k), expected
                    )
                    if problem is not None:
                        mismatches.append(
                            f"round {round_no} query {q} [{label}]: {problem}"
                        )
        assert mismatches == []

        m_localized, m_flush = localized.metrics(), flush.metrics()
        assert m_localized.queries_served == m_flush.queries_served == 120
        assert m_localized.audit_violations == m_flush.audit_violations == 0
        assert m_localized.cache_hit_rate > m_flush.cache_hit_rate


# ----------------------------------------------------------------------
# Sharded serving with updates
# ----------------------------------------------------------------------


class TestMutableServing:
    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(200, 700, seed=5)

    def test_apply_updates_requires_mutable(self, graph):
        with ShardedServer(
            graph, "php", c=0.5, workers=2
        ) as server:
            with pytest.raises(ConfigurationError, match="mutable"):
                server.apply_updates([EdgeUpdate(0, 50)])

    def test_broadcast_consistency_and_metrics(self, graph):
        updates = [
            EdgeUpdate(0, 150, "add", weight=3.0),
            EdgeUpdate(7, 160, "add", weight=2.0),
        ]
        with ShardedServer(
            graph, "php", c=0.5, workers=2, mutable=True
        ) as server:
            server.top_k_many(range(12), k=5)
            assert server.apply_updates(updates) == 2
            assert server.graph_version == 2
            batch = server.top_k_many(range(12), k=5)
            metrics = server.metrics()
        assert metrics.updates_applied == 2
        # Oracle: the same session over an identically-updated overlay.
        mirror = DynamicGraph(graph)
        apply_edge_updates(mirror, updates)
        oracle = QuerySession(mirror, "php", c=0.5).top_k_many(
            range(12), k=5
        )
        for served, truth in zip(batch, oracle):
            np.testing.assert_array_equal(served.nodes, truth.nodes)
            # Workers recompute post-update queries from scratch, on the
            # same trajectory as the mirror's session.
            np.testing.assert_allclose(
                served.values, truth.values, rtol=0, atol=1e-12
            )
            for value, lo, hi in zip(
                truth.values, served.lower, served.upper
            ):
                assert lo - 1e-6 <= value <= hi + 1e-6

    def test_response_after_update_is_not_served_stale(self, graph):
        request = QueryRequest(query=0, k=5)
        update = EdgeUpdate(0, 150, "add", weight=3.0)  # on the query
        with ShardedServer(
            graph, "php", c=0.5, workers=2, mutable=True
        ) as server:
            # Submitted before the update, collected after it: the
            # response is handled (and cached) once the shadow is at
            # version 1, but it was computed at version 0.
            seq = server._submit(request)
            server.apply_updates([update])
            (stale,) = server._wait([seq])
            fresh = server.serve(request)
            metrics = server.metrics()
        before = QuerySession(graph, "php", c=0.5).top_k(0, 5)
        np.testing.assert_array_equal(stale.nodes, before.nodes)
        np.testing.assert_array_equal(stale.values, before.values)
        mirror = DynamicGraph(graph)
        apply_edge_updates(mirror, [update])
        truth = QuerySession(mirror, "php", c=0.5).top_k(0, 5)
        assert list(fresh.nodes) != list(stale.nodes)
        np.testing.assert_array_equal(fresh.nodes, truth.nodes)
        np.testing.assert_array_equal(fresh.values, truth.values)
        np.testing.assert_array_equal(fresh.lower, truth.lower)
        np.testing.assert_array_equal(fresh.upper, truth.upper)
        assert metrics.cache_hits == 0
        assert metrics.cache_invalidations == 1
        assert metrics.requests_dispatched == 2

    def test_untouched_ball_stays_a_dispatcher_hit(self, graph):
        with ShardedServer(
            graph, "php", c=0.5, workers=2, mutable=True
        ) as server:
            first = server.top_k(0, 5)
            ball = set(map(int, first.stats.visited_ball))
            far = [v for v in range(graph.num_nodes) if v not in ball]
            server.apply_updates([EdgeUpdate(far[0], far[1], "add")])
            again = server.top_k(0, 5)
            metrics = server.metrics()
        np.testing.assert_array_equal(again.nodes, first.nodes)
        np.testing.assert_array_equal(again.values, first.values)
        assert metrics.cache_hits == 1
        assert metrics.cache_invalidations == 0

    def test_invalid_update_rejected_by_shadow_before_broadcast(
        self, graph
    ):
        ids, _ = graph.neighbors(0)
        non_neighbor = next(
            v for v in range(1, graph.num_nodes)
            if v not in set(map(int, ids))
        )
        with ShardedServer(
            graph, "php", c=0.5, workers=2, mutable=True
        ) as server:
            with pytest.raises(GraphError, match="failed"):
                server.apply_updates(
                    [EdgeUpdate(0, non_neighbor, "remove")]
                )
            # The shadow caught it synchronously; serving still works
            # and the failing update reached no worker.
            result = server.top_k(3, 4)
            assert result.exact

    def test_non_finite_update_stops_batch_before_broadcast(self, graph):
        # A NaN weight used to pass the shadow and reach every worker.
        ok_first = EdgeUpdate(0, 150, "add", weight=3.0)
        bad = EdgeUpdate(7, 160, "add", weight=float("nan"))
        ok_last = EdgeUpdate(9, 170, "add", weight=2.0)
        mirror = DynamicGraph(graph)
        apply_edge_updates(mirror, [ok_first])
        with ShardedServer(
            graph, "php", c=0.5, workers=2, mutable=True
        ) as server:
            with pytest.raises(GraphError, match="update 2/3"):
                server.apply_updates([ok_first, bad, ok_last])
            assert server.graph_version == mirror.version == 1
            batch = server.top_k_many(range(12), k=5)
            metrics = server.metrics()
        assert metrics.updates_applied == 1
        oracle = QuerySession(mirror, "php", c=0.5).top_k_many(
            range(12), k=5
        )
        for served, truth in zip(batch, oracle):
            np.testing.assert_array_equal(served.nodes, truth.nodes)
            np.testing.assert_allclose(
                served.values, truth.values, rtol=0, atol=1e-12
            )

    def test_respawned_worker_replays_updates(self, graph):
        updates = [EdgeUpdate(1, 180, "add", weight=4.0)]
        with ShardedServer(
            graph, "php", c=0.5, workers=2, mutable=True
        ) as server:
            server.apply_updates(updates)
            # Hard-kill worker 0 via the control hook, then query: the
            # respawned worker must replay the update history first.
            server._workers[0].queue.put(("crash", 0, None))
            batch = server.top_k_many(range(10), k=4)
        mirror = DynamicGraph(graph)
        apply_edge_updates(mirror, updates)
        oracle = QuerySession(mirror, "php", c=0.5).top_k_many(
            range(10), k=4
        )
        for served, truth in zip(batch, oracle):
            np.testing.assert_array_equal(served.nodes, truth.nodes)

    def test_failed_batch_broadcasts_applied_prefix(self):
        # Regression: the shadow kept the updates before a failing one
        # while no worker received them, so the overlays drifted apart.
        graph = erdos_renyi(200, 600, seed=3)
        mirror = DynamicGraph(graph)
        assert not mirror.has_edge(0, 1) and not mirror.has_edge(5, 6)
        apply_edge_updates(mirror, [EdgeUpdate(0, 1, "add")])
        with ShardedServer(
            graph, "php", c=0.5, workers=2, mutable=True
        ) as server:
            with pytest.raises(GraphError, match="2/2"):
                server.apply_updates(
                    [EdgeUpdate(0, 1, "add"), EdgeUpdate(5, 6, "remove")]
                )
            assert server.graph_version == mirror.version == 1
            batch = server.top_k_many(range(12), k=5)
            oracle = QuerySession(mirror, "php", c=0.5).top_k_many(
                range(12), k=5
            )
            for served, truth in zip(batch, oracle):
                np.testing.assert_array_equal(served.nodes, truth.nodes)
                np.testing.assert_allclose(
                    served.values, truth.values, rtol=0, atol=1e-12
                )
            # The workers hold edge 0-1, so removing it is valid there.
            assert server.apply_updates([EdgeUpdate(0, 1, "remove")]) == 1
            result = server.top_k(0, 5)
            metrics = server.metrics()
            assert server._update_errors == []
        assert metrics.updates_applied == 2
        reference = QuerySession(graph, "php", c=0.5).top_k(0, 5)
        np.testing.assert_array_equal(result.nodes, reference.nodes)
        np.testing.assert_allclose(
            result.values, reference.values, rtol=0, atol=1e-12
        )
