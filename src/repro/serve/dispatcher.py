"""Sharded multi-process dispatcher: :class:`ShardedServer`.

A search is numpy over small arrays interleaved with Python
bookkeeping, so threads inside one process contend for the GIL and add
no throughput.  ``ShardedServer`` is the library's one parallel path: it
runs N worker *processes* against one zero-copy published graph
(:mod:`repro.serve.shared`).  The graph is paid for once, each worker
owns a private :class:`~repro.core.session.QuerySession` (with no
result cache), and requests are sharded by **query node** with a stable
hash.

On top of routing, the dispatcher adds what a serving boundary needs:

* **Result cache** — one :class:`~repro.core.cache.ResultCache` (the
  class :class:`QuerySession` uses) in front of the worker pipes.  A
  repeat request is answered in the dispatcher after admission, with no
  queue, pipe or worker involved; a miss goes to its worker, and the
  exact answer coming back is cached.  On a ``mutable=True`` server an
  entry is stamped with the shadow overlay's version at dispatch time
  and validated against the shadow's update log, so an answer that
  arrives after an update touching its ball is never served again.

* **Admission control** — a request whose deadline has already passed,
  or cannot plausibly be met given the target worker's queue depth and
  recent service times (per-worker EWMA), is handled *before* burning
  a worker: rejected with :class:`~repro.errors.AdmissionRejectedError`
  under ``on_budget="raise"``, or dispatched for the anytime machinery
  to degrade under ``on_budget="degrade"``.
* **Crash recovery** — a worker that dies (OOM-killed, segfault, the
  test hook) is detected, respawned against the still-live shared
  segment, and its in-flight requests are re-dispatched exactly once;
  a request whose retry also dies fails with
  :class:`~repro.errors.WorkerCrashError` instead of retrying forever.
* **Metrics** — :meth:`ShardedServer.metrics` snapshots the dispatcher
  counters and one ``SessionMetrics`` per worker slot into one
  :class:`~repro.serve.metrics.ServeMetrics`.  Every answer carries its
  own work counters (``TopKResult.stats``), so the dispatcher records
  each answer as it arrives; no worker is asked, and a slot's counters
  survive a respawn of its process.

Requests use the same :class:`~repro.core.api.QueryRequest` /
:class:`~repro.core.api.QueryOverrides` contract as
:func:`repro.core.api.flos_top_k` and :class:`QuerySession` — workers
answer through :meth:`QuerySession.serve`, and a hit is a copy of such
an answer, so results are bitwise-identical to in-process serving.

A graph that cannot cross a process boundary (anything that is not a
:class:`~repro.graph.memory.CSRGraph`, a
:class:`~repro.graph.disk.store.DiskGraph` or a ``.flos`` path) raises
:class:`~repro.errors.ConfigurationError` at any worker count; serve
it in-process with :class:`QuerySession` instead.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from typing import Iterable, Sequence

import numpy as np

import repro.errors as errors_mod
from repro.core.api import NO_OVERRIDES, QueryOverrides, QueryRequest
from repro.core.cache import ResultCache, result_key
from repro.core.flos import FLoSOptions
from repro.core.result import BatchSummary, TopKResult
from repro.core.session import MetricsRecorder
from repro.errors import (
    AdmissionRejectedError,
    ConfigurationError,
    SearchError,
    WorkerCrashError,
)
from repro.graph.base import GraphAccess
from repro.graph.dynamic import DynamicGraph
from repro.graph.memory import CSRGraph
from repro.graph.updates import EdgeUpdate, apply_edge_updates
from repro.measures.resolve import resolve_measure
from repro.serve.metrics import ServeMetrics
from repro.serve.shared import open_shared
from repro.serve.worker import worker_main

__all__ = ["ShardedServer"]

#: Sliding window of end-to-end request latencies kept for percentiles.
_LATENCY_WINDOW = 10_000

#: Floor applied to an already-expired deadline admitted under
#: ``on_budget="degrade"``: ``FLoSOptions`` rejects non-positive
#: deadlines, and a strictly positive floor lets the engine return the
#: certified k-hop seed answer instead of nothing.
_DEGRADE_DEADLINE_FLOOR = 1e-4

#: EWMA smoothing for per-worker service time (higher = stickier).
_EWMA_ALPHA = 0.8

#: Per-worker in-flight cap enforced at submit time.  Request queues
#: and response pipes are both ~64KiB OS pipes; with unbounded
#: submit-then-collect a large batch fills the response pipe (worker
#: blocks in ``send``), the worker stops reading its request queue,
#: that pipe fills too, and the dispatcher deadlocks in ``put``.
#: Bounding in-flight requests — and draining responses while the cap
#: is hit — keeps both pipes comfortably under capacity.
_MAX_WORKER_INFLIGHT = 32


def _stable_shard(query: int, shards: int) -> int:
    """Deterministic shard of a query node — stable across processes.

    ``hash(int)`` would do today (ints hash to themselves) but is an
    implementation detail; Fibonacci hashing with an avalanche shift is
    explicit, cheap, and spreads consecutive node ids evenly.
    """
    h = (int(query) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 29
    return int(h % shards)


def _rebuild_error(name: str, message: str) -> Exception:
    """Best-effort reconstruction of a worker-side exception by name."""
    cls = getattr(errors_mod, name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except TypeError:
            # Structured constructor (NodeNotFoundError etc.): wrap.
            return SearchError(f"{name}: {message}")
    return SearchError(f"{name}: {message}")


class _Request:
    """One dispatched request, from submit to its one finish.

    ``stamp`` is the cache stamp of the graph state the answer is
    computed at; ``retried`` marks the one re-dispatch after a crash,
    and ``abandoned`` a request whose batch aborted (its outcome is
    dropped on arrival).
    """

    __slots__ = (
        "request", "worker_id", "submitted", "stamp", "retried", "abandoned",
    )

    def __init__(self, request, worker_id, submitted, stamp):
        self.request: QueryRequest = request
        self.worker_id: int = worker_id
        self.submitted: float = submitted
        self.stamp: tuple = stamp
        self.retried = False
        self.abandoned = False


class _WorkerState:
    """Dispatcher-side bookkeeping for one worker slot.

    ``recorder`` holds the slot's session metrics, fed with every answer
    its processes send, so they outlive a respawn.
    ``conn`` is the receive end of the worker's private response pipe.
    One pipe per worker is deliberate: a shared response queue would
    serialize all workers through one cross-process write lock, and a
    worker SIGKILLed mid-``put`` would leave that lock held, stalling
    every survivor.  A private pipe confines the damage — the killed
    writer's stream simply ends (EOF), which is exactly the signal the
    dispatcher uses to trigger a respawn.
    """

    __slots__ = (
        "worker_id", "process", "queue", "conn", "inflight",
        "ewma_seconds", "pid", "respawns", "recorder",
    )

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.process = None
        self.queue = None
        self.conn = None
        self.inflight: set[int] = set()
        self.ewma_seconds: float | None = None
        self.pid: int | None = None
        self.respawns = 0
        self.recorder = MetricsRecorder()


class ShardedServer:
    """Multi-process serving tier over one zero-copy published graph.

    The constructor mirrors :class:`~repro.core.session.QuerySession`
    (same ``options`` / ``cache_size`` names) plus the serving knobs::

        with ShardedServer(graph, "rwr", c=0.9, workers=4) as server:
            batch = server.top_k_many(range(100), k=10)
            print(server.metrics().to_dict())

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.memory.CSRGraph` (published once via
        shared memory), a :class:`~repro.graph.disk.store.DiskGraph`
        or ``.flos`` path (workers mmap the store — graphs larger than
        RAM).  Any other graph raises
        :class:`~repro.errors.ConfigurationError`.
    measure, options, **measure_params:
        Exactly as in :class:`~repro.core.session.QuerySession`.
    cache_size:
        Result-cache capacity *per worker*: the dispatcher's one cache
        holds ``cache_size * workers`` results (0 disables caching).
    workers:
        Worker process count (default: ``os.cpu_count()``).
    start_method:
        ``multiprocessing`` start method (default: the platform's).
    mutable:
        Enable :meth:`apply_updates`: each worker wraps the shared CSR
        segment in a private :class:`~repro.graph.dynamic.DynamicGraph`
        overlay; the dispatcher's cache invalidates *locally* per update
        (no global flush).  Requires an in-memory ``CSRGraph`` (shared
        memory); see ``docs/serving.md``, "Serving evolving graphs".
    """

    def __init__(
        self,
        graph: GraphAccess | str,
        measure,
        *,
        options: FLoSOptions | None = None,
        cache_size: int = 256,
        workers: int | None = None,
        start_method: str | None = None,
        mutable: bool = False,
        **measure_params,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise SearchError("workers must be >= 1")
        if cache_size < 0:
            raise SearchError("cache_size must be >= 0")
        # Fail fast in the dispatcher process: a bad measure name or
        # option set should raise here, not asynchronously in a worker.
        self._measure = resolve_measure(measure, **measure_params)
        self._options = (options or FLoSOptions()).validate()
        self._num_workers = workers
        self._closed = False
        # Mutable serving (``apply_updates``): each worker wraps the
        # shared CSR segment in a private DynamicGraph overlay; the
        # dispatcher keeps its own shadow overlay to validate update
        # batches synchronously and to replay history into respawned
        # workers.
        self._mutable = bool(mutable)
        self._shadow: DynamicGraph | None = None
        self._updates: list[EdgeUpdate] = []
        self._updates_applied = 0
        self._update_errors: list[tuple[str, str]] = []

        # Dispatcher counters (single-threaded dispatcher: no lock).
        self._seq = 0
        self._inflight: dict[int, _Request] = {}
        # Outcomes parked for _wait: seq -> ("ok", result) / ("error", exc).
        self._completed: dict[int, tuple[str, object]] = {}
        self._dispatched = 0
        self._cache_hits = 0
        self._completed_count = 0
        self._rejected = 0
        self._degraded_admissions = 0
        self._retried = 0
        self._respawns = 0
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._first_submit: float | None = None
        self._last_completion: float | None = None

        self._shared = None
        self._workers: list[_WorkerState] = []
        try:
            self._shared = open_shared(graph)
        except ConfigurationError as err:
            if not isinstance(graph, GraphAccess):
                # A string/Path input that fails publication is a bad
                # path or spelling: surface the clear message as is.
                raise
            raise ConfigurationError(
                f"cannot serve this graph from worker processes: {err}  "
                "(only a CSRGraph, a DiskGraph or a .flos path can be "
                "published — serve it in-process with QuerySession "
                "instead)"
            ) from err

        if self._mutable:
            if self._shared.kind != "shm" or not isinstance(graph, CSRGraph):
                raise ConfigurationError(
                    "mutable serving requires an in-memory CSRGraph "
                    "published over shared memory (mmap-backed disk "
                    f"stores cannot host an overlay); got {self._shared.kind}"
                )
            self._shadow = DynamicGraph(graph)
        # The published segment never changes, so without a shadow the
        # cache validates against nothing (graph=None).
        self._cache = ResultCache(
            cache_size * workers, self._shadow, self._measure
        )

        import multiprocessing as mp

        self._ctx = mp.get_context(start_method)
        try:
            for worker_id in range(workers):
                state = _WorkerState(worker_id)
                self._workers.append(state)
                self._spawn(state)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Serving API (the QueryRequest contract)
    # ------------------------------------------------------------------

    def serve(self, request: QueryRequest) -> TopKResult:
        """Answer one :class:`~repro.core.api.QueryRequest`."""
        self._check_open()
        seq = self._submit(request)
        return self._wait([seq])[0]

    def top_k(
        self,
        query: int,
        k: int,
        *,
        exclude=None,
        overrides: QueryOverrides | None = None,
    ) -> TopKResult:
        """Top-k for one query — :meth:`QuerySession.top_k`, sharded."""
        return self.serve(
            QueryRequest(
                query=query,
                k=k,
                exclude=frozenset(exclude) if exclude else frozenset(),
                overrides=overrides or NO_OVERRIDES,
            )
        )

    def serve_requests(
        self, requests: Sequence[QueryRequest] | Iterable[QueryRequest]
    ) -> list[TopKResult]:
        """Answer a batch of requests, results in request order.

        Admissible requests are dispatched eagerly (so workers run in
        parallel) while responses are drained concurrently — submission
        never outruns collection by more than the per-worker in-flight
        cap, so arbitrarily large batches cannot deadlock the request/
        response pipes.  A request that fails admission raises
        :class:`~repro.errors.AdmissionRejectedError` immediately;
        already-dispatched requests of the same batch still complete in
        the background and their results are discarded on arrival.
        """
        self._check_open()
        request_list = list(requests)
        if not request_list:
            raise SearchError("request batch must not be empty")
        seqs: list[int] = []
        try:
            for request in request_list:
                seqs.append(self._submit(request))
        except BaseException:
            self._abandon(seqs)
            raise
        return self._wait(seqs)

    def top_k_many(
        self,
        queries: Sequence[int] | Iterable[int],
        k: int,
        *,
        exclude=None,
        overrides: QueryOverrides | None = None,
    ) -> BatchSummary:
        """Serve a workload — :meth:`QuerySession.top_k_many`, sharded.

        Results come back in workload order regardless of which worker
        answers first.
        """
        excluded = frozenset(exclude) if exclude else frozenset()
        shared = overrides or NO_OVERRIDES
        results = self.serve_requests(
            [
                QueryRequest(
                    query=q, k=k, exclude=excluded, overrides=shared
                )
                for q in queries
            ]
        )
        return BatchSummary(results)

    # ------------------------------------------------------------------
    # Incremental updates (mutable serving)
    # ------------------------------------------------------------------

    def apply_updates(
        self, updates: Sequence[EdgeUpdate] | Iterable[EdgeUpdate]
    ) -> int:
        """Apply a batch of edge updates to every worker's overlay.

        The batch is applied first to the dispatcher's shadow overlay,
        strictly in order, as :func:`~repro.graph.updates
        .apply_edge_updates` does.  An invalid update (unknown node,
        removing a missing edge) raises there; the updates before it
        are applied, so exactly that prefix is broadcast before the
        error propagates and the workers never diverge from the
        shadow.  The broadcast itself is fire-and-forget: each worker's
        FIFO request queue guarantees the updates are applied before
        any later query on that worker, and each worker's session
        invalidates only the cached entries whose visited ball the
        update touched (no global flush).  A worker-side failure (which
        the shadow makes unreachable short of a worker bug) surfaces at
        the next ``apply_updates`` call.

        Returns the number of updates applied.  Requires
        ``mutable=True``.
        """
        self._check_open()
        batch = [
            u if isinstance(u, EdgeUpdate) else EdgeUpdate(*u)
            for u in updates
        ]
        if not batch:
            return 0
        if not self._mutable:
            raise ConfigurationError(
                "server was not started with mutable=True"
            )
        if self._update_errors:
            name, text = self._update_errors.pop(0)
            raise _rebuild_error(name, text)
        before = self._shadow.version
        try:
            apply_edge_updates(self._shadow, batch)
        finally:
            # Every applied update bumps the shadow's version once, so
            # this is the applied prefix even when the batch failed.
            applied = batch[: self._shadow.version - before]
            if applied:
                self._updates.extend(applied)
                for state in self._workers:
                    if not state.process.is_alive():
                        # _spawn replays the full history (including
                        # this batch) into the fresh worker — don't
                        # enqueue twice.
                        self._respawn(state)
                        continue
                    seq = self._seq
                    self._seq += 1
                    state.queue.put(("update", seq, applied))
                self._updates_applied += len(applied)
        return len(batch)

    @property
    def graph_version(self) -> int:
        """Version of the (shadow) overlay after all applied updates."""
        return int(self._shadow.version) if self._shadow is not None else 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics(self) -> ServeMetrics:
        """Snapshot of the dispatcher counters and each worker slot's
        session metrics, recorded from the answers already received:
        no worker is asked, so it never blocks."""
        self._check_open()
        per_worker = [
            {
                "worker": state.worker_id,
                "pid": state.pid,
                "respawns": state.respawns,
                "ewma_seconds": state.ewma_seconds,
                **state.recorder.snapshot().to_dict(),
            }
            for state in self._workers
        ]
        degraded_results = sum(w["degraded_results"] for w in per_worker)
        samples = np.fromiter(self._latencies, dtype=np.float64)
        if (
            self._first_submit is not None
            and self._last_completion is not None
            and self._last_completion > self._first_submit
        ):
            qps = self._completed_count / (
                self._last_completion - self._first_submit
            )
        else:
            qps = 0.0
        return ServeMetrics(
            workers=self._num_workers,
            requests_dispatched=self._dispatched,
            requests_completed=self._completed_count,
            rejected=self._rejected,
            degraded_admissions=self._degraded_admissions,
            degraded_results=degraded_results,
            retried=self._retried,
            respawns=self._respawns,
            cache_hits=self._cache_hits,
            cache_invalidations=self._cache.invalidations,
            qps=qps,
            p50_wall_seconds=(
                float(np.percentile(samples, 50)) if len(samples) else 0.0
            ),
            p95_wall_seconds=(
                float(np.percentile(samples, 95)) if len(samples) else 0.0
            ),
            updates_applied=self._updates_applied,
            per_worker=tuple(per_worker),
        )

    def shard_of(self, query: int) -> int:
        """Worker index a query node routes to (stable across runs)."""
        return _stable_shard(query, self._num_workers)

    @property
    def descriptor(self):
        """The published graph's descriptor (None once closed)."""
        return self._shared.descriptor if self._shared else None

    def worker_pids(self) -> list[int | None]:
        """Current pid per worker slot."""
        return [state.pid for state in self._workers]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut workers down and unlink the shared segment (idempotent).

        Safe after worker crashes: dead workers are skipped, live ones
        get the drain sentinel and a bounded join before termination.
        """
        if self._closed:
            return
        self._closed = True
        for state in self._workers:
            if state.process is not None and state.process.is_alive():
                try:
                    state.queue.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for state in self._workers:
            if state.process is None:
                continue
            state.process.join(timeout=2.0)
            if state.process.is_alive():  # pragma: no cover - stuck worker
                state.process.terminate()
                state.process.join(timeout=1.0)
        for state in self._workers:
            if state.conn is not None:
                state.conn.close()
                state.conn = None
        if self._shared is not None:
            self._shared.close()
            self._shared = None

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - defensive
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = self._shared.kind if self._shared else "closed"
        return (
            f"ShardedServer({mode}, workers={self._num_workers}, "
            f"dispatched={self._dispatched})"
        )

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def _admit(self, request: QueryRequest) -> None:
        """Reject or degrade-admit before dispatch; raises on reject."""
        deadline = request.overrides.deadline_seconds
        if deadline is None or deadline == float("inf"):
            return
        if math.isnan(deadline):
            # Compares false to every estimate; the workers' option
            # validation would reject it too, but only once admitted.
            raise ConfigurationError("deadline_seconds must not be NaN")
        policy = request.overrides.on_budget or self._options.on_budget
        if deadline <= 0:
            estimate = 0.0
        else:
            state = self._workers[self.shard_of(request.query)]
            if state.ewma_seconds is None:
                return  # no service-time evidence yet: admit
            estimate = state.ewma_seconds * (len(state.inflight) + 1)
            if estimate <= deadline:
                return
        if policy == "degrade":
            # Dispatch anyway: the anytime machinery returns the best
            # certified answer the remaining budget buys.
            self._degraded_admissions += 1
            return
        self._rejected += 1
        raise AdmissionRejectedError(deadline, estimate)

    @staticmethod
    def _maybe_floor_deadline(request: QueryRequest) -> QueryRequest:
        """Clamp an already-expired deadline admitted under "degrade".

        ``FLoSOptions`` rejects ``deadline_seconds <= 0``; the floor
        keeps the request executable so it degrades inside the engine
        instead of failing validation.
        """
        deadline = request.overrides.deadline_seconds
        if deadline is None or deadline > 0:
            return request
        from dataclasses import replace

        return replace(
            request,
            overrides=replace(
                request.overrides, deadline_seconds=_DEGRADE_DEADLINE_FLOOR
            ),
        )

    # ------------------------------------------------------------------
    # Dispatch / collect
    # ------------------------------------------------------------------

    def _submit(self, request: QueryRequest) -> int:
        self._admit(request)
        request = self._maybe_floor_deadline(request)
        started = time.monotonic()
        if self._first_submit is None:
            self._first_submit = started
        cached = self._cache.lookup(self._key(request))
        if cached is not None:
            return self._answer_hit(request, cached, started)
        state = self._workers[self.shard_of(request.query)]
        if not state.process.is_alive():
            # Dead worker noticed at submit time: respawn first so the
            # new request (and any stranded in-flight ones) have a
            # living consumer.
            self._respawn(state)
        # Backpressure: drain responses until the target worker is
        # below its in-flight cap, so neither its request queue nor its
        # response pipe can fill while the dispatcher is still
        # submitting (see _MAX_WORKER_INFLIGHT).
        while len(state.inflight) >= _MAX_WORKER_INFLIGHT:
            if not self._poll(0.05):
                self._reap_dead_workers()
        seq = self._seq
        self._seq += 1
        # A request enqueued now is answered at exactly the shadow's
        # current version: updates broadcast later queue behind it.
        self._inflight[seq] = _Request(
            request, state.worker_id, time.monotonic(), self._cache.stamp()
        )
        state.inflight.add(seq)
        self._dispatched += 1
        state.queue.put(("query", seq, request))
        return seq

    @staticmethod
    def _key(request: QueryRequest) -> tuple:
        return result_key(
            request.query, request.k, request.exclude,
            request.overrides.audit,
        )

    def _answer_hit(
        self, request: QueryRequest, result: TopKResult, started: float
    ) -> int:
        """Complete a request from the cache, with no worker round trip.

        The per-call options are validated as a worker session would
        (before its cache lookup), so a bad override fails this request
        whether or not its answer is cached.
        """
        seq = self._seq
        self._seq += 1
        try:
            request.overrides.apply(self._options).validate(request.k)
        except Exception as err:
            self._finish(seq, started, ("error", err))
        else:
            self._cache_hits += 1
            self._finish(seq, started, ("ok", result))
        return seq

    def _finish(
        self,
        seq: int,
        submitted: float,
        outcome: tuple[str, object],
        abandoned: bool = False,
    ) -> float:
        """Resolve one request; returns its latency.

        The one place a request is counted done — a cache hit, a
        worker's ``"ok"`` or ``"error"``, and the two-crash give-up of
        :meth:`_respawn` all end here, so each request counts exactly
        once.  An abandoned request's outcome is dropped; any other is
        parked for :meth:`_wait`.
        """
        now = time.monotonic()
        latency = now - submitted
        self._latencies.append(latency)
        self._completed_count += 1
        self._last_completion = now
        if not abandoned:
            self._completed[seq] = outcome
        return latency

    def _poll(self, timeout: float) -> bool:
        """Receive every deliverable response; True if any arrived.

        A worker's pipe becoming readable with no message (EOF) is how
        a crashed worker announces itself — valid responses it managed
        to send before dying are still consumed first, so a crash never
        discards finished work.
        """
        from multiprocessing.connection import wait as connection_wait

        conns = {
            state.conn: state
            for state in self._workers
            if state.conn is not None
        }
        received = False
        for conn in connection_wait(list(conns), timeout=timeout):
            state = conns[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # Writer died; the stream is drained or truncated.
                self._respawn(state)
                continue
            received = True
            self._handle_response(message)
        return received

    def _abandon(self, seqs: list[int]) -> None:
        """Forget a batch whose submission aborted mid-way.

        Results that already landed are dropped now; still-in-flight
        requests are marked so :meth:`_finish` drops their outcomes
        instead of parking them in ``_completed`` forever.
        """
        for seq in seqs:
            self._completed.pop(seq, None)
            entry = self._inflight.get(seq)
            if entry is not None:
                entry.abandoned = True

    def _wait(self, seqs: list[int]) -> list[TopKResult]:
        pending = set(seqs) - self._completed.keys()
        while pending:
            if not self._poll(0.2):
                self._reap_dead_workers()
            pending -= self._completed.keys()
        out: list[TopKResult] = []
        failure: Exception | None = None
        for seq in seqs:
            kind, payload = self._completed.pop(seq)
            if kind == "error" and failure is None:
                failure = payload
            elif kind == "ok":
                out.append(payload)
        if failure is not None:
            raise failure
        return out

    def _handle_response(self, message) -> None:
        worker_id, seq, kind, payload = message
        if kind == "update_error":
            # Shadow validation makes this unreachable short of a
            # worker-side bug; surface it at the next apply_updates.
            self._update_errors.append(payload)
            return
        if kind not in ("ok", "error"):
            # "updated" acknowledgements, and stray lifecycle messages
            # (a respawn raced a drain): nothing to track.
            return
        if kind == "ok":
            # The worker did this work even if nobody collects it.
            self._workers[worker_id].recorder.record_miss(payload)
        entry = self._inflight.pop(seq, None)
        if entry is None:
            return  # duplicate answer after a retry — already served
        state = self._workers[entry.worker_id]
        state.inflight.discard(seq)
        if kind == "error":
            outcome = ("error", _rebuild_error(*payload))
            self._finish(seq, entry.submitted, outcome, entry.abandoned)
            return
        self._cache.store(self._key(entry.request), payload, entry.stamp)
        latency = self._finish(
            seq, entry.submitted, ("ok", payload), entry.abandoned
        )
        state.ewma_seconds = (
            latency
            if state.ewma_seconds is None
            else _EWMA_ALPHA * state.ewma_seconds
            + (1.0 - _EWMA_ALPHA) * latency
        )

    # ------------------------------------------------------------------
    # Worker lifecycle / crash recovery
    # ------------------------------------------------------------------

    def _spawn(self, state: _WorkerState) -> None:
        # A fresh request queue per (re)spawn: a worker killed mid-read
        # can leave the old queue's reader lock held forever, and any
        # bytes it half-consumed are unrecoverable.  In-flight requests
        # are re-enqueued from the dispatcher's own records instead.
        state.queue = self._ctx.SimpleQueue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        state.conn = recv_conn
        state.process = self._ctx.Process(
            target=worker_main,
            args=(
                state.worker_id,
                self._shared.descriptor,
                self._measure,
                self._options,
                state.queue,
                send_conn,
                self._mutable,
            ),
            daemon=True,
            name=f"flos-serve-{state.worker_id}",
        )
        state.process.start()
        # Drop the parent's copy of the send end: the worker now holds
        # the only writer, so its death EOFs the pipe — the signal
        # _poll turns into a respawn.
        send_conn.close()
        self._await_ready(state)
        if self._updates:
            # A (re)spawned worker starts from the pristine shared
            # segment: replay the full update history before anything
            # else enters its FIFO queue, so every later query sees the
            # same overlay as the surviving workers.
            seq = self._seq
            self._seq += 1
            state.queue.put(("update", seq, list(self._updates)))

    def _await_ready(self, state: _WorkerState, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if state.conn.poll(0.2):
                try:
                    message = state.conn.recv()
                except (EOFError, OSError) as err:
                    raise WorkerCrashError(
                        f"worker {state.worker_id} died during startup "
                        f"(exit code {state.process.exitcode})"
                    ) from err
                _worker_id, _seq, kind, payload = message
                if kind == "ready":
                    state.pid = payload
                    return
                if kind == "fatal":
                    name, text = payload
                    state.process.join(timeout=1.0)
                    raise WorkerCrashError(
                        f"worker {state.worker_id} failed to start: "
                        f"{name}: {text}"
                    )
                self._handle_response(message)  # pragma: no cover
                continue
            if not state.process.is_alive():
                raise WorkerCrashError(
                    f"worker {state.worker_id} died during startup "
                    f"(exit code {state.process.exitcode})"
                )
            if time.monotonic() > deadline:  # pragma: no cover
                raise WorkerCrashError(
                    f"worker {state.worker_id} did not report ready "
                    f"within {timeout:.0f}s"
                )

    def _reap_dead_workers(self) -> None:
        for state in self._workers:
            if state.process is not None and not state.process.is_alive():
                self._respawn(state)

    def _respawn(self, state: _WorkerState) -> None:
        state.process.join(timeout=1.0)
        # Salvage every answer the worker managed to send before dying:
        # those requests are finished work, not retry candidates.
        try:
            while state.conn.poll(0):
                self._handle_response(state.conn.recv())
        except (EOFError, OSError):
            pass
        state.conn.close()
        state.conn = None
        stranded = sorted(state.inflight)
        state.inflight.clear()
        state.respawns += 1
        self._respawns += 1
        self._spawn(state)
        for seq in stranded:
            entry = self._inflight[seq]
            if entry.retried:
                # Second crash holding the same request: give up
                # rather than retrying forever.
                del self._inflight[seq]
                error = WorkerCrashError(
                    f"request for query {entry.request.query} was in "
                    f"flight on worker {state.worker_id} through two "
                    "crashes; giving up after one retry"
                )
                self._finish(
                    seq, entry.submitted, ("error", error), entry.abandoned
                )
                continue
            entry.retried = True
            self._retried += 1
            # The retry queues behind the full update history _spawn
            # replayed, so it is answered at the shadow's version now.
            entry.stamp = self._cache.stamp()
            state.inflight.add(seq)
            state.queue.put(("query", seq, entry.request))

    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SearchError("server is closed")
