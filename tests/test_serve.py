"""Multi-process sharded serving tier (``repro.serve``).

Covers the hard guarantees the tier makes:

* zero-copy publication round-trips (shared memory and mmap of the
  ``.flos`` store) with **no leaked segments** — after a clean shutdown
  and after a SIGKILLed worker;
* results bitwise-identical to in-process
  :meth:`QuerySession.top_k_many` (workers run the same code path),
  also when a repeat is answered from the dispatcher's result cache;
* the dispatcher cache answers hits with no worker (stopped or killed
  workers do not matter), hands out independent copies, validates
  per-call options on a hit, and holds ``cache_size * workers``
  results;
* crash recovery: a dead worker is respawned against the still-live
  segment, in-flight requests retried at most once, nothing lost;
* admission control: past-deadline requests are rejected *before*
  dispatch under ``on_budget="raise"``, degrade-admitted otherwise;
* deterministic sharding by query node.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import QueryOverrides, QueryRequest, QuerySession
from repro.core.flos import FLoSOptions
from repro.errors import (
    AdmissionRejectedError,
    ConfigurationError,
    GraphError,
    NodeNotFoundError,
    SearchError,
    WorkerCrashError,
)
from repro.graph.base import GraphAccess
from repro.graph.disk import DiskGraph, write_disk_graph
from repro.graph.generators import erdos_renyi
from repro.serve import ShardedServer, attach_shared, open_shared
from repro.serve.shared import SEGMENT_PREFIX


def _segments() -> list[str]:
    """Names of live shared-memory segments created by repro.serve."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX
        return []
    return [f for f in os.listdir(shm_dir) if f.startswith(SEGMENT_PREFIX)]


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(300, 1200, seed=11)


@pytest.fixture(scope="module")
def baseline(graph):
    session = QuerySession(graph, "rwr", c=0.5)
    return session.top_k_many(range(30), k=8)


# ----------------------------------------------------------------------
# Zero-copy publication
# ----------------------------------------------------------------------


class TestSharedGraph:
    def test_shm_attach_round_trip(self, graph):
        published = open_shared(graph)
        try:
            with attach_shared(published.descriptor) as handle:
                attached = handle.graph
                assert attached.num_nodes == graph.num_nodes
                assert attached.num_edges == graph.num_edges
                assert attached.max_degree == graph.max_degree
                np.testing.assert_array_equal(
                    attached.degrees, graph.degrees
                )
                for u in (0, 7, 123):
                    ids_a, w_a = attached.neighbors(u)
                    ids_b, w_b = graph.neighbors(u)
                    np.testing.assert_array_equal(ids_a, ids_b)
                    np.testing.assert_array_equal(w_a, w_b)
        finally:
            published.close()

    def test_shm_attach_is_zero_copy(self, graph):
        published = open_shared(graph)
        try:
            handle = attach_shared(published.descriptor)
            # The attached arrays are views over the segment buffer, not
            # copies: their base memory is not owned by numpy.
            assert not handle.graph._indices.flags.owndata
            assert not handle.graph._weights.flags.owndata
            assert not handle.graph._indices.flags.writeable
            handle.close()
        finally:
            published.close()

    def test_clean_shutdown_leaks_no_segments(self, graph):
        before = set(_segments())
        published = open_shared(graph)
        assert len(_segments()) == len(before) + 1
        handle = attach_shared(published.descriptor)
        handle.close()
        published.close()
        assert set(_segments()) == before

    def test_owner_close_is_idempotent(self, graph):
        published = open_shared(graph)
        published.close()
        published.close()
        assert published.descriptor.segment not in _segments()

    def test_attach_after_unlink_fails_clearly(self, graph):
        published = open_shared(graph)
        published.close()
        with pytest.raises(GraphError, match="does not exist"):
            attach_shared(published.descriptor)

    def test_mmap_attach_matches_memory_graph(self, graph, tmp_path):
        path = tmp_path / "g.flos"
        write_disk_graph(graph, path)
        published = open_shared(str(path))
        assert published.descriptor.kind == "mmap"
        with attach_shared(published.descriptor) as handle:
            attached = handle.graph
            assert attached.num_nodes == graph.num_nodes
            np.testing.assert_allclose(attached.degrees, graph.degrees)
            for u in (0, 5, 250):
                ids_a, w_a = attached.neighbors(u)
                ids_b, w_b = graph.neighbors(u)
                np.testing.assert_array_equal(ids_a, ids_b)
                np.testing.assert_allclose(w_a, w_b)
        published.close()

    def test_mmap_accepts_diskgraph_instance(self, graph, tmp_path):
        path = tmp_path / "g.flos"
        write_disk_graph(graph, path)
        with DiskGraph(path) as disk:
            published = open_shared(disk)
            assert published.descriptor.path == str(path)
            published.close()

    def test_non_publishable_graph_rejected(self):
        with pytest.raises(ConfigurationError, match="zero-copy"):
            open_shared(_OpaqueGraph())


# ----------------------------------------------------------------------
# Serving correctness
# ----------------------------------------------------------------------


class TestShardedServing:
    def test_bitwise_identical_to_in_process(self, graph, baseline):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            computed = server.top_k_many(range(30), k=8)
            # Round 2 is answered from the dispatcher's cache.
            cached = server.top_k_many(range(30), k=8)
            metrics = server.metrics()
        assert metrics.cache_hits == 30
        assert metrics.requests_dispatched == 30
        for batch in (computed, cached):
            assert len(batch) == len(baseline)
            for ours, ref in zip(batch.results, baseline.results):
                np.testing.assert_array_equal(ours.nodes, ref.nodes)
                np.testing.assert_array_equal(ours.values, ref.values)
                np.testing.assert_array_equal(ours.lower, ref.lower)
                np.testing.assert_array_equal(ours.upper, ref.upper)
                assert ours.exact and ref.exact
        assert SEGMENT_PREFIX not in "".join(_segments())

    def test_mmap_backed_serving(self, graph, baseline, tmp_path):
        path = tmp_path / "g.flos"
        write_disk_graph(graph, path)
        with ShardedServer(
            str(path), "rwr", c=0.5, workers=2
        ) as server:
            batch = server.top_k_many(range(30), k=8)
            for ours, ref in zip(batch.results, baseline.results):
                np.testing.assert_array_equal(ours.nodes, ref.nodes)
                np.testing.assert_array_equal(ours.values, ref.values)

    def test_single_request_and_request_object(self, graph):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            via_top_k = server.top_k(4, 6)
            via_serve = server.serve(QueryRequest(query=4, k=6))
            np.testing.assert_array_equal(via_top_k.nodes, via_serve.nodes)

    def test_worker_error_propagates(self, graph):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            with pytest.raises(SearchError, match="NodeNotFoundError"):
                server.top_k(graph.num_nodes + 5, 5)
            # The pool survives a failed request.
            assert server.top_k(0, 5).exact

    def test_sharding_is_deterministic_and_spread(self, graph):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=4
        ) as server:
            first = [server.shard_of(q) for q in range(64)]
            second = [server.shard_of(q) for q in range(64)]
            assert first == second
            assert set(first) == {0, 1, 2, 3}
        with ShardedServer(
            graph, "rwr", c=0.5, workers=4
        ) as other:
            assert [other.shard_of(q) for q in range(64)] == first

    def test_cache_affinity(self, graph):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            server.top_k_many(range(20), k=5)
            server.top_k_many(range(20), k=5)
            metrics = server.metrics()
            # Second round must be all cache hits, answered by the
            # dispatcher's cache without reaching a worker.
            assert metrics.cache_hits >= 20
            assert metrics.requests_dispatched == 20
            assert metrics.requests_completed == 40

    def test_hit_needs_no_worker(self, graph, baseline):
        with ShardedServer(graph, "rwr", c=0.5, workers=2) as server:
            server.top_k_many(range(10), k=8)
            pids = server.worker_pids()

            def resume():
                for pid in pids:
                    os.kill(pid, signal.SIGCONT)

            for pid in pids:
                os.kill(pid, signal.SIGSTOP)
            # Were a hit to need a worker, it would wait for this timer.
            safety = threading.Timer(5.0, resume)
            safety.start()
            try:
                started = time.monotonic()
                batch = server.top_k_many(range(10), k=8)
                elapsed = time.monotonic() - started
            finally:
                safety.cancel()
                resume()
            metrics = server.metrics()
        assert elapsed < 1.0
        assert metrics.cache_hits == 10
        assert metrics.requests_dispatched == 10
        assert metrics.requests_completed == 20
        for ours, ref in zip(batch.results, baseline.results):
            np.testing.assert_array_equal(ours.nodes, ref.nodes)
            np.testing.assert_array_equal(ours.values, ref.values)

    def test_hit_returns_independent_copy(self, graph, baseline):
        with ShardedServer(graph, "rwr", c=0.5, workers=2) as server:
            computed = server.top_k(3, 8)
            hit = server.top_k(3, 8)
            # Scribble over both the computed answer and the hit: the
            # cache kept a private copy of the first and handed out a
            # fresh copy as the second.
            for result in (computed, hit):
                result.nodes[:] = -1
                result.values[:] = np.nan
                result.lower[:] = np.nan
                result.upper[:] = np.nan
                result.stats.visited_nodes = -5
            again = server.top_k(3, 8)
            assert server.metrics().cache_hits == 2
        ref = baseline.results[3]
        np.testing.assert_array_equal(again.nodes, ref.nodes)
        np.testing.assert_array_equal(again.values, ref.values)
        np.testing.assert_array_equal(again.lower, ref.lower)
        np.testing.assert_array_equal(again.upper, ref.upper)
        assert again.stats.visited_nodes == ref.stats.visited_nodes

    def test_invalid_override_on_hit_fails_that_request(self, graph):
        bad = QueryOverrides(on_budget="bogus")
        with ShardedServer(graph, "rwr", c=0.5, workers=2) as server:
            # On a miss the worker session rejects the override.
            with pytest.raises(ConfigurationError, match="on_budget"):
                server.top_k(5, 6, overrides=bad)
            server.top_k(5, 6)  # now cached
            # On a hit the dispatcher rejects it the same way.
            with pytest.raises(ConfigurationError, match="on_budget"):
                server.top_k(5, 6, overrides=bad)
            with pytest.raises(ConfigurationError, match="on_budget"):
                server.serve_requests([
                    QueryRequest(query=5, k=6),
                    QueryRequest(query=5, k=6, overrides=bad),
                ])
            assert server._completed == {}
            assert server.top_k(5, 6).exact  # the entry is still good
            metrics = server.metrics()
        assert metrics.cache_hits == 2
        assert metrics.requests_dispatched == 2
        assert metrics.requests_completed == 6

    def test_cache_size_zero_never_hits(self, graph, baseline):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2, cache_size=0
        ) as server:
            server.top_k_many(range(10), k=8)
            batch = server.top_k_many(range(10), k=8)
            metrics = server.metrics()
        assert metrics.cache_hits == 0
        assert metrics.requests_dispatched == 20
        assert sum(w["queries_served"] for w in metrics.per_worker) == 20
        assert all(w["cache_hits"] == 0 for w in metrics.per_worker)
        for ours, ref in zip(batch.results, baseline.results):
            np.testing.assert_array_equal(ours.nodes, ref.nodes)

    def test_cache_capacity_is_workers_times_cache_size(self, graph):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2, cache_size=3
        ) as server:
            for q in range(8):  # one at a time: a fixed LRU order
                server.top_k(q, 5)
            assert len(server._cache) == 6
            server.top_k_many(range(2, 8), k=5)  # the 6 most recent
            assert server.metrics().cache_hits == 6
            server.top_k_many(range(2), k=5)  # evicted: recomputed
            metrics = server.metrics()
        assert metrics.cache_hits == 6
        assert metrics.requests_dispatched == 10

    def test_negative_cache_size_rejected(self, graph):
        before = set(_segments())
        with pytest.raises(SearchError, match="cache_size"):
            ShardedServer(graph, "rwr", c=0.5, workers=1, cache_size=-1)
        assert set(_segments()) == before

    def test_metrics_never_waits_for_a_stopped_worker(self, graph):
        # Per-worker counters are recorded from the answers, so a
        # frozen worker neither delays metrics() nor blanks its row.
        with ShardedServer(graph, "rwr", c=0.5, workers=2) as server:
            server.top_k_many(range(10), k=5)
            served = server.metrics().per_worker[0]["queries_served"]
            assert served >= 1
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            try:
                started = time.monotonic()
                metrics = server.metrics()
                elapsed = time.monotonic() - started
            finally:
                os.kill(victim, signal.SIGCONT)
        assert elapsed < 0.1
        assert metrics.per_worker[0]["queries_served"] == served
        assert metrics.per_worker[0]["pid"] == victim

    def test_large_batch_does_not_deadlock_the_pipes(self, graph, baseline):
        # Regression: submit-then-collect with no backpressure fills the
        # ~64KiB response pipe (worker blocks in send), the worker stops
        # draining its request queue, and the dispatcher deadlocks in
        # put.  A batch far beyond pipe capacity must complete.
        queries = list(range(30)) * 70  # 2100 requests, heavy repeats
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            batch = server.top_k_many(queries, k=8)
            assert len(batch) == len(queries)
            for q, ours in zip(queries, batch.results):
                np.testing.assert_array_equal(
                    ours.nodes, baseline.results[q].nodes
                )
            assert server._inflight == {}
            assert server._completed == {}

    def test_metrics_aggregation(self, graph):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            server.top_k_many(range(12), k=5)
            metrics = server.metrics()
            assert metrics.workers == 2
            assert metrics.requests_completed == 12
            assert metrics.qps > 0
            assert len(metrics.per_worker) == 2
            served = sum(w["queries_served"] for w in metrics.per_worker)
            assert served == 12
            payload = metrics.to_dict()
            assert payload["requests_dispatched"] == 12
            import json

            json.dumps(payload)  # JSON-serializable end to end


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_killed_worker_respawns_and_batch_completes(
        self, graph, baseline
    ):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            batch = server.top_k_many(range(30), k=8)
            for ours, ref in zip(batch.results, baseline.results):
                np.testing.assert_array_equal(ours.nodes, ref.nodes)
            metrics = server.metrics()
            assert metrics.respawns >= 1
            assert victim not in server.worker_pids()
        assert SEGMENT_PREFIX not in "".join(_segments())

    def test_crash_mid_flight_retries_in_flight_requests(
        self, graph, baseline
    ):
        segments_before = set(_segments())
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            # Deterministic mid-flight crash: freeze worker 0 so the
            # batch's requests pile up in its queue, then SIGKILL it
            # while they are in flight — they must be retried on the
            # respawned worker, and none may be lost.
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            killer = threading.Timer(
                0.3, lambda: os.kill(victim, signal.SIGKILL)
            )
            killer.start()
            try:
                batch = server.top_k_many(range(30), k=8)
            finally:
                killer.cancel()
            assert len(batch) == 30
            for ours, ref in zip(batch.results, baseline.results):
                np.testing.assert_array_equal(ours.nodes, ref.nodes)
                np.testing.assert_array_equal(ours.values, ref.values)
            metrics = server.metrics()
            assert metrics.respawns >= 1
            assert metrics.retried >= 1
            assert metrics.requests_completed == 30
            # A resolved request leaves no record behind.
            assert server._inflight == {}
        # The crash and the respawn leak no shared-memory segment.
        assert set(_segments()) == segments_before

    def test_crash_control_hook_respawns(self, graph):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            # The "crash" control message makes the worker os._exit(1)
            # the moment it dequeues it, exactly like a hard crash.
            server._workers[0].queue.put(("crash", 0, None))
            batch = server.top_k_many(range(30), k=8)
            assert len(batch) == 30
            assert server.metrics().respawns >= 1

    def test_worker_counters_survive_respawn(self, graph):
        # A slot's counters come from the answers its processes sent,
        # so a respawned process does not reset them.
        degrade = QueryOverrides(deadline_seconds=1e-6, on_budget="degrade")
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2, cache_size=0
        ) as server:
            server.top_k_many(range(20), k=8)
            server.top_k_many(range(20, 30), k=8, overrides=degrade)
            before = server.metrics()
            victim = server._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.process.join(timeout=5.0)
            server.top_k_many(range(30, 50), k=8)
            after = server.metrics()
        assert after.respawns == 1
        assert before.degraded_results > 0
        assert after.degraded_results >= before.degraded_results
        for old, new in zip(before.per_worker, after.per_worker):
            assert new["queries_served"] >= old["queries_served"]
        assert after.per_worker[0]["queries_served"] > (
            before.per_worker[0]["queries_served"]
        )
        # Every dispatched request was answered by exactly one worker.
        served = sum(w["queries_served"] for w in after.per_worker)
        assert served == after.requests_dispatched == 50

    def test_second_crash_gives_up_and_counts_once(self, graph):
        # Deterministic two-crash give-up: freeze the only worker so the
        # batch queues behind it, kill it, and make the first respawn
        # enqueue the crash hook ahead of the retries.
        with ShardedServer(
            graph, "rwr", c=0.5, workers=1, cache_size=0
        ) as server:
            spawn = server._spawn

            def spawn_then_crash(state):
                server._spawn = spawn
                spawn(state)
                state.queue.put(("crash", 0, None))

            server._spawn = spawn_then_crash
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            killer = threading.Timer(
                0.3, lambda: os.kill(victim, signal.SIGKILL)
            )
            killer.start()
            try:
                with pytest.raises(WorkerCrashError, match="two crashes"):
                    server.top_k_many(range(5), k=5)
            finally:
                killer.cancel()
            metrics = server.metrics()
            assert metrics.respawns == 2
            assert metrics.retried == 5
            assert metrics.requests_dispatched == 5
            assert metrics.requests_completed == 5
            assert server._inflight == {}
            assert server._completed == {}
            # The slot serves again after both respawns.
            assert server.top_k(0, 5).exact
            assert server.metrics().requests_completed == 6

    def test_hits_survive_worker_kill(self, graph, baseline):
        with ShardedServer(graph, "rwr", c=0.5, workers=2) as server:
            server.top_k_many(range(10), k=8)
            for state in server._workers:
                os.kill(state.pid, signal.SIGKILL)
            for state in server._workers:
                state.process.join(timeout=5.0)
            batch = server.top_k_many(range(10), k=8)
            # Answered with every worker dead, and none respawned.
            assert not any(s.process.is_alive() for s in server._workers)
            # A miss then respawns its worker as before.
            fresh = server.top_k(12, 8)
            metrics = server.metrics()
        for ours, ref in zip(batch.results, baseline.results):
            np.testing.assert_array_equal(ours.nodes, ref.nodes)
            np.testing.assert_array_equal(ours.values, ref.values)
        assert metrics.cache_hits == 10
        assert metrics.requests_dispatched == 11
        np.testing.assert_array_equal(
            fresh.nodes, baseline.results[12].nodes
        )
        assert metrics.respawns >= 1

    def test_no_leaked_segments_after_worker_kill(self, graph):
        before = set(_segments())
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            os.kill(server.worker_pids()[1], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while (
                server._workers[1].process.is_alive()
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            server.top_k(0, 5)  # forces the respawn path
        assert set(_segments()) == before


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmissionControl:
    def test_past_deadline_rejected_before_dispatch(self, graph):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            with pytest.raises(AdmissionRejectedError, match="already"):
                server.top_k(
                    3,
                    5,
                    overrides=QueryOverrides(
                        deadline_seconds=-0.5, on_budget="raise"
                    ),
                )
            metrics = server.metrics()
            assert metrics.rejected == 1
            assert metrics.requests_dispatched == 0
            # No worker burned a cycle on it.
            assert all(
                w["queries_served"] == 0 for w in metrics.per_worker
            )

    def test_past_deadline_degrades_instead_when_asked(self, graph):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            result = server.top_k(
                3,
                5,
                overrides=QueryOverrides(
                    deadline_seconds=-0.5, on_budget="degrade"
                ),
            )
            # Dispatched with a floored deadline: the anytime machinery
            # returns certified bounds instead of nothing.
            assert result.stats.termination in ("deadline", "exact")
            np.testing.assert_array_less(
                result.lower, result.upper + 1e-12
            )
            metrics = server.metrics()
            assert metrics.degraded_admissions == 1
            assert metrics.requests_dispatched == 1

    def test_mid_batch_rejection_discards_orphaned_results(self, graph):
        # Regression: a batch aborted by a mid-batch admission failure
        # must not park the already-dispatched requests' results in the
        # dispatcher's completed map forever (unbounded growth in a
        # long-lived server).
        with ShardedServer(
            graph, "rwr", c=0.5, workers=2
        ) as server:
            requests = [QueryRequest(query=q, k=5) for q in range(10)]
            requests.append(
                QueryRequest(
                    query=10,
                    k=5,
                    overrides=QueryOverrides(
                        deadline_seconds=-0.5, on_budget="raise"
                    ),
                )
            )
            with pytest.raises(AdmissionRejectedError):
                server.serve_requests(requests)
            # Drain the stragglers the workers still answer.
            deadline = time.monotonic() + 10.0
            while server._inflight and time.monotonic() < deadline:
                server._poll(0.1)
            assert server._inflight == {}
            assert server._completed == {}
            # The server still serves normally afterwards.
            assert server.top_k(0, 5).exact
            assert server._completed == {}

    def test_infeasible_deadline_uses_service_time_estimate(self, graph):
        with ShardedServer(
            graph, "rwr", c=0.5, workers=1, cache_size=0
        ) as server:
            server.top_k_many(range(10), k=8)  # establish an EWMA
            state = server._workers[0]
            assert state.ewma_seconds is not None
            # A deadline far below the observed service time, with
            # pretend queue depth, must be rejected up front.
            state.inflight.update(range(-100, -90))  # fake depth
            tiny = state.ewma_seconds / 1e6
            with pytest.raises(AdmissionRejectedError, match="cannot"):
                server.top_k(
                    3,
                    5,
                    overrides=QueryOverrides(
                        deadline_seconds=tiny, on_budget="raise"
                    ),
                )
            state.inflight.clear()

    def test_session_default_policy_applies(self, graph):
        # No per-request on_budget: the session-level options decide.
        with ShardedServer(
            graph,
            "rwr",
            c=0.5,
            workers=1,
            options=FLoSOptions(on_budget="degrade"),
        ) as server:
            result = server.top_k(
                3, 5, overrides=QueryOverrides(deadline_seconds=-1.0)
            )
            assert server.metrics().degraded_admissions == 1
            assert result.k == 5


# ----------------------------------------------------------------------
# Backend gating / fallback
# ----------------------------------------------------------------------


class _OpaqueGraph(GraphAccess):
    """A structurally valid backend with no zero-copy publication path."""

    def __init__(self):
        self._inner = erdos_renyi(50, 150, seed=2)

    @property
    def num_nodes(self):
        return self._inner.num_nodes

    @property
    def num_edges(self):
        return self._inner.num_edges

    @property
    def max_degree(self):
        return self._inner.max_degree

    def neighbors(self, u):
        return self._inner.neighbors(u)

    def degree(self, u):
        return self._inner.degree(u)


class TestBackendGating:
    def test_multi_worker_non_csr_backend_raises(self):
        with pytest.raises(
            ConfigurationError, match="only a CSRGraph, a DiskGraph or a .flos path"
        ):
            ShardedServer(_OpaqueGraph(), "rwr", c=0.5, workers=2)

    def test_single_worker_falls_back_in_process(self):
        # No in-process fallback at any worker count: the error points
        # to QuerySession, which serves such a graph in-process.
        with pytest.raises(ConfigurationError, match="QuerySession"):
            ShardedServer(_OpaqueGraph(), "rwr", c=0.5, workers=1)

    def test_bad_path_does_not_fall_back_in_process(self):
        # A string path that fails publication is a configuration
        # mistake, not a non-shareable backend: even at workers=1 it
        # must surface the clear message instead of handing the raw
        # string to QuerySession.
        with pytest.raises(ConfigurationError, match=".flos"):
            ShardedServer(
                "edges.txt", "rwr", c=0.5, workers=1
            )

    def test_closed_server_refuses_requests(self, graph):
        server = ShardedServer(graph, "rwr", c=0.5, workers=1)
        server.close()
        with pytest.raises(SearchError, match="closed"):
            server.top_k(0, 5)
