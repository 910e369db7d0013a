"""The benchmark's three workloads: ``cold``, ``serve`` and ``churn``.

Each workload is a function ``run_<name>(spec, seed, seconds, trace)``
returning an :class:`Outcome`.  ``spec`` holds the workload's fixed
sizes (the ``*Spec`` defaults below; the self-test passes toy ones).
The seed only chooses the generated inputs -- query nodes, request mix,
arrival times and edge updates, drawn over fixed hot sets where a
workload has one -- and the library sees only those inputs.

Every run has the same shape: generate inputs (untimed), set up several
times and report the median as ``setup_s``, warm up, measure, then
check a seeded sample of the answers.  A traced run replays a fixed
window of the same request stream twice, each time on a fresh set-up:
once plain and once under :func:`spans.instrument`.  Per-layer metrics
are totals over the traced window, so counts repeat exactly for a seed,
and the two passes give the tracing overhead.
"""

from __future__ import annotations

import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import FLoSOptions, QuerySession
from repro.core.api import QueryRequest
from repro.graph import datasets, updates
from repro.graph.dynamic import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.measures.exact import power_iteration
from repro.serve import ShardedServer

import check
import spans

#: The latency limit of ``slo_pct`` (recorded, not gated).
SLO_SECONDS = 0.100

#: Per-layer metrics and units, in report order.  A layer a workload
#: does not exercise reports 0.
PER_LAYER = {
    "graph.fetch_calls": "count",
    "graph.fetch_s": "s",
    "updates.events": "count",
    "updates.apply_s": "s",
    "localgraph.expand_calls": "count",
    "localgraph.expand_s": "s",
    "localgraph.visited_mean": "nodes",
    "localgraph.visited_ratio": "ratio",
    "kernels.dual_refresh_calls": "count",
    "kernels.dual_refresh_s": "s",
    "kernels.tht_dp_s": "s",
    "kernels.sweeps": "count",
    "kernels.rows_swept": "count",
    "degree_index.calls": "count",
    "degree_index.s": "s",
    "engine.runs": "count",
    "engine.iterations": "count",
    "engine.self_s": "s",
    "session.self_s": "s",
    "session.hit_rate": "ratio",
    "session.invalidations": "count",
    "session.warm_starts": "count",
    "session.warm_start_pct": "%",
    "dispatcher.batches": "count",
    "dispatcher.batch_size_mean": "count",
    "dispatcher.p50_ms": "ms",
    "dispatcher.p95_ms": "ms",
    "dispatcher.wait_ms": "ms",
    "dispatcher.rejected": "count",
    "dispatcher.retried": "count",
    "dispatcher.respawns": "count",
    "worker.busy_pct": "%",
    "worker.hit_rate": "ratio",
    "worker.imbalance": "ratio",
    "shared.publish_s": "s",
    "shared.spawn_s": "s",
    "loadgen.offered_qps": "req/s",
    "loadgen.lag_p99_ms": "ms",
    "trace.qps": "req/s",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}

END_TO_END = {
    "qps": "req/s",
    "p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: name -> value; the units are in END_TO_END / PER_LAYER.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Further measurements for the result record (not gated).
    extras: dict = field(default_factory=dict)
    graph: dict = field(default_factory=dict)
    spans: spans.SpanRecorder | None = None


@dataclass
class Pass:
    """One closed-loop pass: per-request latencies and kept answers."""

    started: float = 0.0
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: perf_counter() at each request's completion.
    done: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    #: (request id, TopKResult) of every answered request.
    answers: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _load(scale: float):
    """Generate the AZ stand-in from scratch (no memo, no disk cache)."""
    datasets.clear_memo()
    return datasets.load_dataset("AZ", scale=scale, use_disk_cache=False)


def _graph_info(graph, scale: float) -> dict:
    return {"dataset": "AZ", "scale": scale,
            "nodes": int(graph.num_nodes), "edges": int(graph.num_edges)}


def _non_isolated(graph) -> np.ndarray:
    return np.flatnonzero(np.asarray(graph.degrees) > 0)


def _zipf_draws(rng, hot: np.ndarray, s: float, count: int) -> np.ndarray:
    """``count`` draws over ``hot`` with Zipf(s) rank weights."""
    weights = 1.0 / np.arange(1, len(hot) + 1) ** s
    return hot[rng.choice(len(hot), size=count, p=weights / weights.sum())]


def _timed_setups(build, repeats: int):
    """Run ``build`` ``repeats`` times; returns (median seconds, objects)."""
    times, built = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        built.append(build())
        times.append(time.perf_counter() - started)
    return float(np.median(times)), built


def _peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


#: Latency percentiles are medians over this many consecutive chunks of
#: a run's requests, so a slow stretch of the host moves one chunk only.
LATENCY_CHUNKS = 6


def _latency_metrics(out: Outcome, latencies, ok) -> None:
    """Percentiles of answered requests, and the share of all requests
    that returned an exact answer within ``SLO_SECONDS`` of being due."""
    lat = np.asarray(latencies, dtype=np.float64)
    ok = np.asarray(ok, dtype=bool)
    served = lat[ok]
    chunks = np.array_split(served, min(LATENCY_CHUNKS, len(served)))
    p50, p95 = (
        1e3 * float(np.median([np.percentile(c, q) for c in chunks]))
        for q in (50, 95)
    )
    out.metrics["p50_ms"] = p50
    # Tails are recorded, not gated: on a shared 2-CPU VM the
    # serve p95 spread 0.20-0.33 between seeds and p99 0.2-0.45 on
    # every workload, beyond any allowed bound.
    out.extras["p95_ms"] = p95
    out.extras["p99_ms"] = float(np.percentile(served, 99)) * 1e3
    within = np.count_nonzero(ok & (lat <= SLO_SECONDS))
    out.extras["slo_pct"] = 100.0 * within / max(1, len(lat))
    out.extras["latency_samples"] = int(len(served))


def _closed_loop_metrics(out: Outcome, p: Pass, chunk: int) -> None:
    """``qps`` is the median over consecutive chunks of ``chunk``
    requests of requests per second: machine noise on a shared host
    comes in bursts of a second or two, and the median ignores them."""
    edges = np.concatenate([[p.started], p.done])
    starts = np.arange(0, len(p.done) - chunk + 1, chunk)
    if len(starts):
        rates = chunk / (edges[starts + chunk] - edges[starts])
        out.metrics["qps"] = float(np.median(rates))
    else:
        out.metrics["qps"] = len(p.done) / p.wall
    out.extras["qps_mean"] = len(p.done) / p.wall
    _latency_metrics(out, p.latencies, p.ok)


def _layer_metrics(rec: spans.SpanRecorder, answers, num_nodes: int) -> dict:
    """Per-layer metrics of an in-process traced pass.

    Only answers whose request ran an engine (not cache hits, which
    replay a stored result's stats) contribute engine-side counts.
    """
    counts, self_s = rec.totals()
    ran = rec.requests_with("engine.run")
    engine_answers = [res for rid, res in answers if rid in ran]
    runs = len(engine_answers)
    expands = counts.get("localgraph.expand", 0)
    visited = float(np.mean(
        [r.stats.visited_nodes for r in engine_answers] or [0]
    ))

    def layer_s(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    return {
        "graph.fetch_calls": counts.get("graph.fetch", 0),
        "graph.fetch_s": layer_s("graph."),
        "updates.events": counts.get("updates.event", 0),
        "updates.apply_s": layer_s("updates."),
        "localgraph.expand_calls": expands,
        "localgraph.expand_s": layer_s("localgraph."),
        "localgraph.visited_mean": visited,
        "localgraph.visited_ratio": visited / num_nodes,
        "kernels.dual_refresh_calls": counts.get("kernels.dual_refresh", 0),
        "kernels.dual_refresh_s": layer_s("kernels.dual_refresh"),
        "kernels.tht_dp_s": layer_s("kernels.tht_dp"),
        "kernels.sweeps": sum(r.stats.solver_iterations for r in engine_answers),
        "kernels.rows_swept": sum(r.stats.rows_swept for r in engine_answers),
        "degree_index.calls": counts.get("degree_index.next", 0),
        "degree_index.s": layer_s("degree_index."),
        "engine.runs": runs,
        "engine.iterations": expands / max(1, runs),
        "engine.self_s": layer_s("engine."),
        "session.self_s": layer_s("session."),
    }


def _session_delta(before, after) -> dict:
    misses = after.cache_misses - before.cache_misses
    served = after.queries_served - before.queries_served
    warm = after.warm_starts - before.warm_starts
    return {
        "session.hit_rate": (after.cache_hits - before.cache_hits)
        / max(1, served),
        "session.invalidations": after.cache_invalidations
        - before.cache_invalidations,
        "session.warm_starts": warm,
        "session.warm_start_pct": 100.0 * warm / max(1, misses),
    }


def _trace_overhead(out: Outcome, rec, plain_wall, traced_wall, requests):
    """Tracing overhead (traced vs plain qps) and span coverage."""
    plain_qps, traced_qps = requests / plain_wall, requests / traced_wall
    out.metrics["trace.qps"] = traced_qps
    out.metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_qps / plain_qps)
    out.metrics["trace.coverage_pct"] = 100.0 * rec.root_seconds() / traced_wall
    out.extras["untraced_qps"] = plain_qps


def _fill_zero_layers(out: Outcome) -> None:
    for name in PER_LAYER:
        out.metrics.setdefault(name, 0)


# ----------------------------------------------------------------------
# cold: closed loop, one client, in-process, cache off
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColdSpec:
    scale: float = 0.03
    k: int = 20
    c: float = 0.5
    horizon: int = 10
    #: Request mix PHP : RWR : THT.
    mix: tuple = (4, 4, 1)
    tie_epsilon: float = 1e-5
    setups: int = 15
    warmup: int = 9
    #: Requests per chunk of the chunked-median ``qps``.
    qps_chunk: int = 45
    #: Requests replayed by each pass of a traced run.
    trace_requests: int = 200
    checks: int = 24


_MEASURES = ("php", "rwr", "tht")


def _cold_setup(spec: ColdSpec):
    graph = _load(spec.scale)
    options = FLoSOptions(tie_epsilon=spec.tie_epsilon)
    params = {"php": {"c": spec.c}, "rwr": {"c": spec.c},
              "tht": {"horizon": spec.horizon}}
    return graph, [
        QuerySession(graph, m, options=options, cache_size=0, **params[m])
        for m in _MEASURES
    ]


def _cold_pass(sessions, stream, k, *, seconds=None, count=None, rec=None):
    """Serve ``stream`` (cycled) in a closed loop for ``seconds`` or
    ``count`` requests."""
    p = Pass()
    n = len(stream)
    p.started = time.perf_counter()
    stop = p.started + seconds if seconds is not None else float("inf")
    i = 0
    while (count is None or i < count) and time.perf_counter() < stop:
        m, q = stream[i % n]
        if rec is not None:
            rec.request_id = i
        with rec.span("loadgen.request") if rec is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                res = sessions[m].top_k(q, k)
            except Exception as err:  # counted as a failure, not fatal
                res = None
                p.errors.append(f"request {i}: {type(err).__name__}: {err}")
            p.done.append(time.perf_counter())
            p.latencies.append(p.done[-1] - t0)
            p.ok.append(res is not None and res.exact)
            if res is not None:
                p.answers.append((i, res))
        i += 1
    p.wall = time.perf_counter() - p.started
    return p


def run_cold(spec: ColdSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng([seed, 1])
    base = _load(spec.scale)
    nodes = _non_isolated(base)
    out.graph = _graph_info(base, spec.scale)
    # The mix is exact in every block of sum(mix) requests (shuffled
    # within the block), so the measure shares do not vary by seed.
    block = np.repeat(np.arange(3), spec.mix)
    blocks = max(1000, int(2000 * seconds)) // len(block) + 1
    kinds = np.concatenate([rng.permutation(block) for _ in range(blocks)])
    length = len(kinds)
    stream = list(zip(kinds.tolist(), rng.choice(nodes, size=length).tolist()))
    warm = [(i % 3, q) for i, q in
            enumerate(rng.choice(nodes, size=spec.warmup).tolist())]

    def fresh():
        setup_s, built = _timed_setups(lambda: _cold_setup(spec), spec.setups)
        graph, sessions = built[-1]
        _cold_pass(sessions, warm, spec.k, count=len(warm))
        return setup_s, graph, sessions

    if not trace:
        setup_s, graph, sessions = fresh()
        p = _cold_pass(sessions, stream, spec.k, seconds=seconds)
        out.metrics["setup_s"] = setup_s
        out.metrics["peak_rss_mb"] = _peak_rss_mb()
        _closed_loop_metrics(out, p, spec.qps_chunk)
        kinds = np.array([stream[i % length][0] for i in range(len(p.ok))])
        lat = np.asarray(p.latencies)
        for m, name in enumerate(_MEASURES):
            mine = lat[kinds == m]
            out.extras[f"{name}_p50_ms"] = (
                float(np.percentile(mine, 50)) * 1e3 if len(mine) else None
            )
            out.extras[f"{name}_samples"] = int(len(mine))
    else:
        window = spec.trace_requests
        _s, graph, sessions = fresh()
        plain = _cold_pass(sessions, stream, spec.k, count=window)
        _s, graph, sessions = fresh()
        rec = spans.SpanRecorder()
        with spans.instrument(rec, spans.LIBRARY_ENTRY_POINTS):
            p = _cold_pass(sessions, stream, spec.k, count=window, rec=rec)
        out.spans = rec
        out.metrics.update(_layer_metrics(rec, p.answers, graph.num_nodes))
        out.metrics["loadgen.offered_qps"] = window / p.wall
        _trace_overhead(out, rec, plain.wall, p.wall, window)
        _fill_zero_layers(out)

    out.attempted = len(p.ok)
    out.problems += p.errors
    out.failed = len(p.errors) + sum(
        1 for i, res in p.answers if not res.exact
    )
    # A seeded sample against the global solve.
    pick = rng.choice(len(p.answers), size=min(spec.checks, len(p.answers)),
                      replace=False)
    for j in sorted(pick.tolist()):
        i, res = p.answers[j]
        measure = sessions[stream[i % length][0]].measure
        # Power iteration to 1e-12: a direct sparse LU of the 10k-node
        # system fills in and takes about a minute per query.
        truth, _it = power_iteration(measure, graph, int(res.query), tau=1e-12)
        problem = check.against_truth(res, truth, measure, spec.tie_epsilon)
        if problem is not None:
            out.problems.append(f"request {i}: {problem}")
            out.failed += 1
    out.extras["checked"] = int(len(pick))
    return out


# ----------------------------------------------------------------------
# serve: open loop at a fixed Poisson rate through ShardedServer
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    scale: float = 0.1
    k: int = 20
    c: float = 0.5
    workers: int = 2
    cache_size: int = 256
    hot: int = 2000
    hot_seed: int = 20140622
    #: Zipf exponent over the hot set.  At 1.1 about 60% of requests hit
    #: and the median sits on the hit/miss boundary, moving by 3x between
    #: seeds; at 1.5 hits are about 85% and the median is a hit.
    zipf: float = 1.5
    #: Offered rate (req/s), below the knee of the latency curve on a
    #: 2-CPU VM.
    rate: float = 40.0
    warmup_seconds: float = 5.0
    tie_epsilon: float = 1e-5
    setups: int = 7
    #: Seconds of arrivals replayed by each pass of a traced run.
    trace_seconds: float = 10.0
    checks: int = 24


def _arrivals(rng, rate: float, start: float, seconds: float) -> np.ndarray:
    """Poisson arrivals conditioned on their count: ``rate * seconds``
    uniform points, sorted, so every seed offers exactly the same load."""
    count = max(1, int(round(rate * seconds)))
    return start + np.sort(rng.uniform(0.0, seconds, size=count))


def _serve_setup(spec: ServeSpec):
    graph = _load(spec.scale)
    server = ShardedServer(
        graph, "rwr", c=spec.c,
        options=FLoSOptions(tie_epsilon=spec.tie_epsilon),
        cache_size=spec.cache_size, workers=spec.workers,
    )
    return graph, server


@dataclass
class OpenLoop:
    """One open-loop pass: per-request latency from due time."""

    latencies: np.ndarray
    ok: np.ndarray
    lags: np.ndarray
    batches: list[int]
    answers: list
    errors: list[str]
    window_wall: float


def _serve_pass(server, queries, due, k, measure_from: float, rec=None):
    """Send every due request as one ``serve_requests`` batch.

    Requests due before ``measure_from`` (seconds into the pass) warm the
    caches and are not reported.
    """
    n = len(due)
    latency = np.full(n, np.inf)
    lag = np.zeros(n)
    ok = np.zeros(n, dtype=bool)
    answers, errors, batches = [], [], []
    started = time.perf_counter()
    i = 0
    last_done = started
    while i < n:
        now = time.perf_counter() - started
        if due[i] > now:
            time.sleep(due[i] - now)
            continue
        j = int(np.searchsorted(due, now, side="right"))
        batch = [QueryRequest(query=int(q), k=k) for q in queries[i:j]]
        sent = time.perf_counter() - started
        if rec is not None:
            rec.request_id = i
        try:
            with rec.span("loadgen.batch") if rec is not None else nullcontext():
                results = server.serve_requests(batch)
        except Exception as err:  # the whole batch fails
            results = None
            errors.append(f"batch at {i}: {type(err).__name__}: {err}")
        done = time.perf_counter() - started
        last_done = done
        if due[i] >= measure_from or due[j - 1] >= measure_from:
            batches.append(j - i)
        for r in range(i, j):
            lag[r] = sent - due[r]
            if results is not None:
                res = results[r - i]
                latency[r] = done - due[r]
                ok[r] = res.exact
                answers.append((r, res))
        i = j
    measured = due >= measure_from
    first = measure_from
    return OpenLoop(
        latencies=latency[measured],
        ok=ok[measured],
        lags=lag[measured],
        batches=batches,
        answers=[(r, res) for r, res in answers if measured[r]],
        errors=errors,
        window_wall=max(last_done - first, 1e-9),
    )


def _serve_layer_metrics(before, after, wall: float, workers: int) -> dict:
    """Dispatcher and worker metrics from two ``ServeMetrics`` snapshots."""
    rows0 = {w["worker"]: w for w in before.per_worker}
    served, hits, busy, p50s = [], 0, 0.0, []
    for w in after.per_worker:
        w0 = rows0.get(w["worker"], {})
        n = w.get("queries_served", 0) - w0.get("queries_served", 0)
        served.append(n)
        hits += w.get("cache_hits", 0) - w0.get("cache_hits", 0)
        busy += w.get("total_wall_seconds", 0.0) - w0.get(
            "total_wall_seconds", 0.0)
        p50s.append((n, w.get("p50_wall_seconds", 0.0)))
    total = max(1, sum(served))
    worker_p50 = sum(n * p for n, p in p50s) / total
    return {
        "dispatcher.p50_ms": after.p50_wall_seconds * 1e3,
        "dispatcher.p95_ms": after.p95_wall_seconds * 1e3,
        "dispatcher.wait_ms": (after.p50_wall_seconds - worker_p50) * 1e3,
        "dispatcher.rejected": after.rejected - before.rejected,
        "dispatcher.retried": after.retried - before.retried,
        "dispatcher.respawns": after.respawns - before.respawns,
        "worker.busy_pct": 100.0 * busy / (workers * wall),
        "worker.hit_rate": hits / total,
        "worker.imbalance": max(served) / (total / len(served)),
    }


def run_serve(spec: ServeSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng([seed, 2])
    base = _load(spec.scale)
    out.graph = _graph_info(base, spec.scale)
    # The hot set and its popularity order are part of the workload,
    # like the graph; the seed draws the traffic over them.  With a
    # seeded hot set, p95 moved by 30% between seeds.
    hot = np.random.default_rng(spec.hot_seed).choice(
        _non_isolated(base), size=spec.hot, replace=False)
    span = spec.trace_seconds if trace else seconds
    due = np.concatenate([
        _arrivals(rng, spec.rate, 0.0, spec.warmup_seconds),
        _arrivals(rng, spec.rate, spec.warmup_seconds, span),
    ])
    queries = _zipf_draws(rng, hot, spec.zipf, len(due))

    def fresh():
        setup_s, built = _timed_setups(lambda: _serve_setup(spec), spec.setups)
        for _graph, server in built[:-1]:
            server.close()
        graph, server = built[-1]
        return setup_s, graph, server

    if not trace:
        setup_s, graph, server = fresh()
        try:
            p = _serve_pass(server, queries, due, spec.k, spec.warmup_seconds)
        finally:
            server.close()
        out.metrics["setup_s"] = setup_s
        out.metrics["peak_rss_mb"] = max(_peak_rss_mb(), _peak_rss_mb(True))
        out.metrics["qps"] = np.count_nonzero(p.ok) / p.window_wall
        _latency_metrics(out, p.latencies, p.ok)
        out.extras["rate"] = spec.rate
    else:
        _s, graph, server = fresh()
        try:
            plain = _serve_pass(server, queries, due, spec.k,
                                spec.warmup_seconds)
        finally:
            server.close()
        rec = spans.SpanRecorder()
        with spans.instrument(rec, spans.SERVE_ENTRY_POINTS):
            started = time.perf_counter()
            graph, server = _serve_setup(spec)
            try:
                server.top_k(int(queries[0]), spec.k)
                spawn_s = time.perf_counter() - started
                _counts, self_s = rec.totals()
                publish_s = self_s.get("shared.open_shared", 0.0)
                warm_due = due[due < spec.warmup_seconds]
                _serve_pass(server, queries, warm_due, spec.k, np.inf)
                before = server.metrics()
                window = due >= spec.warmup_seconds
                rec.clear()
                p = _serve_pass(server, queries[window],
                                due[window] - spec.warmup_seconds, spec.k,
                                0.0, rec=rec)
                after = server.metrics()
            finally:
                server.close()
        out.spans = rec
        out.metrics.update(
            _serve_layer_metrics(before, after, p.window_wall, spec.workers)
        )
        out.metrics["dispatcher.batches"] = len(p.batches)
        out.metrics["dispatcher.batch_size_mean"] = float(np.mean(p.batches))
        out.metrics["shared.publish_s"] = publish_s
        out.metrics["shared.spawn_s"] = spawn_s
        out.metrics["loadgen.offered_qps"] = len(p.latencies) / span
        out.metrics["loadgen.lag_p99_ms"] = float(
            np.percentile(p.lags, 99)) * 1e3
        _trace_overhead(out, rec, plain.window_wall, p.window_wall,
                        len(p.latencies))
        _fill_zero_layers(out)

    out.attempted = len(p.latencies)
    out.problems += p.errors
    out.failed = int(np.count_nonzero(~p.ok))
    # A seeded sample against an untimed in-process session.
    reference = QuerySession(
        graph, "rwr", c=spec.c,
        options=FLoSOptions(tie_epsilon=spec.tie_epsilon), cache_size=0,
    )
    pick = rng.choice(len(p.answers), size=min(spec.checks, len(p.answers)),
                      replace=False)
    for j in sorted(pick.tolist()):
        r, res = p.answers[j]
        problem = check.against_reference(
            res, reference.top_k(int(res.query), spec.k)
        )
        if problem is not None:
            out.problems.append(f"request {r}: {problem}")
            out.failed += 1
    out.extras["checked"] = int(len(pick))
    return out


# ----------------------------------------------------------------------
# churn: closed loop, in-process, edge updates beside reads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnSpec:
    scale: float = 0.03
    k: int = 10
    c: float = 0.5
    cache_size: int = 1024
    hot: int = 300
    hot_seed: int = 20140622
    #: Zipf exponent over the hot set.  At 1.1 the top node draws ~20% of
    #: the queries, so the seed's choice of a few head nodes decides the
    #: hit rate: qps moved by 30% between seeds.  At 0.6 ~14% of queries
    #: hit and the median is a miss.
    zipf: float = 0.6
    updates_per_round: int = 8
    remove_share: float = 0.2
    queries_per_round: int = 20
    warmup_rounds: int = 10
    tie_epsilon: float = 1e-5
    setups: int = 15
    #: Queries per chunk of the chunked-median ``qps`` (5 rounds).
    qps_chunk: int = 100
    #: Rounds replayed by each pass of a traced run (after warm-up).
    trace_rounds: int = 10
    check_rounds: int = 5
    checks_per_round: int = 3
    #: Rounds of updates simulated per second of measurement: the
    #: schedule must outlast the fastest plausible pass.
    rounds_per_second: int = 60


def _update_schedule(rng, base, rounds: int, spec: ChurnSpec):
    """Pre-simulate always-valid update batches (~80% add, 20% remove).

    The schedule is replayed on a scratch overlay so that every remove
    names an edge that exists at its point in the sequence.
    """
    sim = DynamicGraph(base)
    n = base.num_nodes
    batches = []
    for _ in range(rounds):
        batch = []
        for _ in range(spec.updates_per_round):
            u = int(rng.integers(n))
            update = None
            if rng.random() < spec.remove_share:
                ids, _w = sim.neighbors(u)
                if len(ids):
                    v = int(ids[int(rng.integers(len(ids)))])
                    update = EdgeUpdate(u, v, "remove")
            if update is None:
                v = int(rng.integers(n - 1))
                v += v >= u
                update = EdgeUpdate(u, v, "add",
                                    weight=float(rng.uniform(0.5, 1.5)))
            updates.apply_edge_updates(sim, [update])
            batch.append(update)
        batches.append(batch)
    return batches


def _churn_setup(spec: ChurnSpec):
    graph = DynamicGraph(_load(spec.scale))
    session = QuerySession(
        graph, "php", c=spec.c,
        options=FLoSOptions(tie_epsilon=spec.tie_epsilon),
        cache_size=spec.cache_size,
    )
    return graph, session


def _churn_pass(graph, session, schedule, queries, k, rounds, *,
                seconds=None, rec=None):
    """Run ``rounds`` (a range of round numbers) of updates + queries,
    stopping early once ``seconds`` have passed.

    Round ``r`` is operation ``r * (queries per round + 1)`` (its update
    batch) followed by one operation per query; answers carry that id.
    """
    p = Pass()
    update_lat = []
    per_round = queries.shape[1]
    p.started = time.perf_counter()
    stop = p.started + seconds if seconds is not None else float("inf")
    rounds_done = []
    for r in rounds:
        if time.perf_counter() >= stop or r >= len(schedule):
            break
        op = r * (per_round + 1)
        if rec is not None:
            rec.request_id = op
        with rec.span("loadgen.update") if rec is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                updates.apply_edge_updates(graph, schedule[r])
            except Exception as err:  # counted as a failure, not fatal
                p.errors.append(f"round {r} updates: {err}")
            update_lat.append(time.perf_counter() - t0)
        for j, q in enumerate(queries[r]):
            if rec is not None:
                rec.request_id = op + 1 + j
            with rec.span("loadgen.request") if rec is not None else nullcontext():
                t0 = time.perf_counter()
                try:
                    res = session.top_k(int(q), k)
                except Exception as err:
                    res = None
                    p.errors.append(f"round {r} query {q}: {err}")
                p.done.append(time.perf_counter())
                p.latencies.append(p.done[-1] - t0)
                p.ok.append(res is not None and res.exact)
                if res is not None:
                    p.answers.append((op + 1 + j, res))
        rounds_done.append(r)
    p.wall = time.perf_counter() - p.started
    return p, update_lat, rounds_done


def run_churn(spec: ChurnSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng([seed, 3])
    base = _load(spec.scale)
    out.graph = _graph_info(base, spec.scale)
    # As on ``serve``, the hot set is part of the workload.
    hot = np.random.default_rng(spec.hot_seed).choice(
        _non_isolated(base), size=spec.hot, replace=False)
    measured = (spec.trace_rounds if trace
                else int(spec.rounds_per_second * seconds) + 1)
    total_rounds = spec.warmup_rounds + measured
    schedule = _update_schedule(rng, base, total_rounds, spec)
    queries = _zipf_draws(
        rng, hot, spec.zipf, total_rounds * spec.queries_per_round
    ).reshape(total_rounds, spec.queries_per_round)
    warm_rounds = range(spec.warmup_rounds)
    window = range(spec.warmup_rounds, total_rounds)

    def fresh():
        setup_s, built = _timed_setups(lambda: _churn_setup(spec), spec.setups)
        graph, session = built[-1]
        _churn_pass(graph, session, schedule, queries, spec.k, warm_rounds)
        return setup_s, graph, session

    if not trace:
        setup_s, graph, session = fresh()
        p, update_lat, rounds_done = _churn_pass(
            graph, session, schedule, queries, spec.k, window, seconds=seconds
        )
        out.metrics["setup_s"] = setup_s
        out.metrics["peak_rss_mb"] = _peak_rss_mb()
        _closed_loop_metrics(out, p, spec.qps_chunk)
        out.extras["update_p50_ms"] = float(np.percentile(update_lat, 50)) * 1e3
        out.extras["rounds"] = len(rounds_done)
        m = session.metrics()
        out.extras["hit_rate"] = m.cache_hit_rate
        out.extras["invalidations"] = m.cache_invalidations
        out.extras["warm_starts"] = m.warm_starts
    else:
        _s, graph, session = fresh()
        plain, _u, _r = _churn_pass(
            graph, session, schedule, queries, spec.k, window
        )
        _s, graph, session = fresh()
        before = session.metrics()
        rec = spans.SpanRecorder()
        with spans.instrument(rec, spans.LIBRARY_ENTRY_POINTS):
            p, update_lat, rounds_done = _churn_pass(
                graph, session, schedule, queries, spec.k, window, rec=rec
            )
        after = session.metrics()
        out.spans = rec
        out.metrics.update(_layer_metrics(rec, p.answers, base.num_nodes))
        out.metrics.update(_session_delta(before, after))
        out.metrics["loadgen.offered_qps"] = len(p.latencies) / p.wall
        _trace_overhead(out, rec, plain.wall, p.wall, len(p.latencies))
        _fill_zero_layers(out)

    out.attempted = len(p.latencies) + len(rounds_done)
    out.problems += p.errors
    out.failed = len(p.errors) + sum(1 for _, res in p.answers if not res.exact)

    # A seeded sample of rounds, each checked against a cold start on
    # the compacted graph as it stood after that round's updates.
    sampled = set(rng.choice(rounds_done, size=min(spec.check_rounds,
                                                   len(rounds_done)),
                             replace=False).tolist())
    by_round: dict[int, list] = {}
    for op, res in p.answers:
        r = op // (spec.queries_per_round + 1)
        if r in sampled:
            by_round.setdefault(r, []).append(res)
    mirror = DynamicGraph(base)
    checked = 0
    options = FLoSOptions(tie_epsilon=spec.tie_epsilon)
    for r in range(max(sampled) + 1 if sampled else 0):
        updates.apply_edge_updates(mirror, schedule[r])
        if r not in by_round:
            continue
        reference = QuerySession(mirror.compact(), "php", c=spec.c,
                                 options=options, cache_size=0)
        mine = by_round[r]
        pick = rng.choice(len(mine), size=min(spec.checks_per_round, len(mine)),
                          replace=False)
        for j in sorted(pick.tolist()):
            res = mine[j]
            problem = check.against_reference(
                res, reference.top_k(int(res.query), spec.k),
                warm=res.stats.warm_started,
            )
            checked += 1
            if problem is not None:
                out.problems.append(f"round {r}: {problem}")
                out.failed += 1
    out.extras["checked"] = checked
    return out


WORKLOADS = {
    "cold": (run_cold, ColdSpec()),
    "serve": (run_serve, ServeSpec()),
    "churn": (run_churn, ChurnSpec()),
}
