"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``    sample a synthetic graph and write it to a file
``convert``     convert between edge-list / npz / disk-store formats
``stats``       print summary statistics of a graph file
``query``       run a top-k proximity query against a graph file
``bench serve`` replay a query workload through a QuerySession and
                print the serving-metrics table
``fuzz``        differential-fuzz the engines against the global
                oracles (exit 1 on any invariant violation)
``datasets``    list or materialise the paper's dataset stand-ins

Graph files are recognised by extension: ``.txt``/``.edges`` (SNAP edge
list), ``.npz`` (binary CSR), ``.flos`` (paged disk store).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import __version__
from repro.core.api import QueryOverrides, flos_top_k
from repro.core.flos import FLoSOptions
from repro.core.session import QuerySession
from repro.errors import ReproError
from repro.graph.base import GraphAccess
from repro.graph.datasets import DATASETS, cache_dir, load_dataset
from repro.graph.disk import DiskGraph, write_disk_graph
from repro.graph.generators import chung_lu, community_graph, erdos_renyi, rmat
from repro.graph.io import load_npz, read_edgelist, save_npz, write_edgelist
from repro.graph.memory import CSRGraph
from repro.graph.stats import graph_stats
from repro.measures import Measure, measure_names, resolve_measure

MEASURE_CHOICES = measure_names()


def measure_from_args(args) -> Measure:
    """Build the measure named on the command line (c / horizon knobs)."""
    if args.measure == "tht":
        return resolve_measure("tht", horizon=args.horizon)
    return resolve_measure(args.measure, c=args.c)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FLoS: exact local top-k proximity search (SIGMOD 2014 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("generate", help="sample a synthetic graph")
    gen.add_argument(
        "model", choices=["er", "rmat", "chung-lu", "community"]
    )
    gen.add_argument("output", type=Path)
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--edges", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weighted", action="store_true")
    gen.add_argument(
        "--exponent", type=float, default=2.1, help="chung-lu power-law exponent"
    )
    gen.add_argument(
        "--communities", type=int, default=0, help="community count (community model)"
    )
    gen.set_defaults(func=cmd_generate)

    conv = sub.add_parser("convert", help="convert between graph formats")
    conv.add_argument("input", type=Path)
    conv.add_argument("output", type=Path)
    conv.set_defaults(func=cmd_convert)

    st = sub.add_parser("stats", help="print graph statistics")
    st.add_argument("input", type=Path)
    st.set_defaults(func=cmd_stats)

    qy = sub.add_parser("query", help="run a top-k proximity query")
    qy.add_argument("input", type=Path)
    qy.add_argument("--query", "-q", type=int, required=True)
    qy.add_argument("--k", type=int, default=10)
    qy.add_argument(
        "--measure", choices=MEASURE_CHOICES, default="php"
    )
    qy.add_argument("--c", type=float, default=0.5, help="decay/restart")
    qy.add_argument("--horizon", type=int, default=10, help="THT horizon L")
    qy.add_argument("--tau", type=float, default=1e-5)
    qy.add_argument(
        "--tie-epsilon",
        type=float,
        default=0.0,
        help="tolerate ties closer than this (0 = strictly exact)",
    )
    qy.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock deadline in seconds (anytime result on expiry)",
    )
    qy.add_argument(
        "--max-visited",
        type=int,
        default=None,
        help="visited-node budget",
    )
    qy.add_argument(
        "--on-budget",
        choices=["raise", "degrade"],
        default="degrade",
        help="on budget exhaustion: error out, or return the certified "
        "anytime answer (default: degrade)",
    )
    qy.add_argument(
        "--memory-budget",
        type=int,
        default=64 * 1024 * 1024,
        help="page-cache bytes for .flos stores",
    )
    qy.set_defaults(func=cmd_query)

    bench = sub.add_parser(
        "bench", help="serving benchmarks over a QuerySession"
    )
    bench_sub = bench.add_subparsers(dest="bench_command")
    serve = bench_sub.add_parser(
        "serve",
        help="replay a query workload through one session and print metrics",
    )
    serve.add_argument("input", type=Path)
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument(
        "--measure", choices=MEASURE_CHOICES, default="php"
    )
    serve.add_argument("--c", type=float, default=0.5, help="decay/restart")
    serve.add_argument(
        "--horizon", type=int, default=10, help="THT horizon L"
    )
    serve.add_argument("--tau", type=float, default=1e-5)
    serve.add_argument(
        "--tie-epsilon",
        type=float,
        default=0.0,
        help="tolerate ties closer than this (0 = strictly exact)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-query wall-clock deadline in seconds",
    )
    serve.add_argument(
        "--on-budget",
        choices=["raise", "degrade"],
        default="degrade",
        help="on budget exhaustion: error out, or return the certified "
        "anytime answer (default: degrade)",
    )
    serve.add_argument(
        "--queries", type=int, default=50, help="distinct query nodes sampled"
    )
    serve.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="workload replays (rounds > 1 exercise the result cache)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="fan-out width"
    )
    serve.add_argument(
        "--mode",
        choices=["thread", "process"],
        default="thread",
        help="thread: QuerySession.top_k_many thread pool (default); "
        "process: ShardedServer worker processes over a zero-copy "
        "shared graph",
    )
    serve.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write a JSON summary (qps, p50/p95) to this path",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256, help="LRU result-cache entries"
    )
    serve.add_argument("--seed", type=int, default=20140622)
    serve.add_argument(
        "--memory-budget",
        type=int,
        default=64 * 1024 * 1024,
        help="page-cache bytes for .flos stores",
    )
    serve.add_argument(
        "--churn",
        type=int,
        default=0,
        help="edge updates applied between query rounds (> 0 switches to "
        "the evolving-graph benchmark: localized invalidation vs. a "
        "flush-everything baseline, every served result checked "
        "against a cold-start oracle; implies in-process serving)",
    )
    # argparse namespace defaults set by a parent parser win over a
    # sub-subparser's, so ``serve`` registers under a distinct dest and
    # ``cmd_bench`` dispatches on it.
    serve.set_defaults(bench_func=cmd_bench_serve)
    bench.set_defaults(func=cmd_bench, bench_parser=bench)

    fz = sub.add_parser(
        "fuzz",
        help="differential-fuzz the engines against the global oracles",
    )
    fz.add_argument(
        "--cases", type=int, default=200, help="random cases to run"
    )
    fz.add_argument(
        "--seed", type=int, default=0, help="sweep seed (case i replays "
        "identically for a given seed regardless of --cases)"
    )
    fz.add_argument(
        "--out-dir",
        type=Path,
        default=Path("fuzz-failures"),
        help="directory for minimized failing-case repros "
        "(created only on failure)",
    )
    fz.set_defaults(func=cmd_fuzz)

    ds = sub.add_parser("datasets", help="list or build dataset stand-ins")
    ds.add_argument(
        "name", nargs="?", help="dataset to materialise (omit to list)"
    )
    ds.add_argument("--scale", type=float, default=None)
    ds.set_defaults(func=cmd_datasets)

    return parser


# ----------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.model == "er":
        graph = erdos_renyi(
            args.nodes, args.edges, seed=args.seed, weighted=args.weighted
        )
    elif args.model == "rmat":
        scale = max(1, (args.nodes - 1).bit_length())
        graph = rmat(
            scale, args.edges, seed=args.seed, weighted=args.weighted
        )
    elif args.model == "chung-lu":
        graph = chung_lu(
            args.nodes, args.edges, exponent=args.exponent, seed=args.seed
        )
    else:
        communities = args.communities or max(1, args.nodes // 50)
        avg_degree = 2.0 * args.edges / args.nodes
        graph = community_graph(
            args.nodes,
            communities,
            avg_internal_degree=avg_degree * 0.8,
            avg_external_degree=avg_degree * 0.2,
            seed=args.seed,
        )
    write_graph(graph, args.output)
    print(
        f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges "
        f"to {args.output}"
    )
    return 0


def cmd_convert(args) -> int:
    graph = read_graph_memory(args.input)
    write_graph(graph, args.output)
    print(f"converted {args.input} -> {args.output}")
    return 0


def cmd_stats(args) -> int:
    graph = open_graph(args.input, memory_budget=64 * 1024 * 1024)
    try:
        s = graph_stats(graph)
        for key, value in s.as_row().items():
            print(f"{key:>10}: {value}")
    finally:
        if isinstance(graph, DiskGraph):
            graph.close()
    return 0


def cmd_query(args) -> int:
    measure: Measure = measure_from_args(args)
    # Session-shaped knobs go in FLoSOptions; the per-request knobs ride
    # the same QueryOverrides contract the serving tier speaks.
    options = FLoSOptions(
        tau=args.tau,
        tie_epsilon=args.tie_epsilon,
        max_visited=args.max_visited,
    )
    overrides = QueryOverrides(
        deadline_seconds=args.deadline,
        on_budget=args.on_budget,
    )
    graph = open_graph(args.input, memory_budget=args.memory_budget)
    try:
        result = flos_top_k(
            graph, measure, args.query, args.k,
            options=options, overrides=overrides,
        )
    finally:
        if isinstance(graph, DiskGraph):
            graph.close()
    print(
        f"top-{args.k} for node {args.query} under "
        f"{measure.name}({measure.params()}):"
    )
    for rank, (node, value, lo, hi) in enumerate(
        zip(result.nodes, result.values, result.lower, result.upper), 1
    ):
        print(f"  {rank:>3}. node {int(node):<8} {value:.6g}  [{lo:.6g}, {hi:.6g}]")
    stats = result.stats
    print(
        f"visited {stats.visited_nodes} nodes "
        f"({stats.visited_ratio(graph.num_nodes):.3%}) "
        f"in {stats.wall_time_seconds * 1e3:.1f} ms"
    )
    print(
        f"bound refresh: {stats.solver_iterations} sweeps, "
        f"{stats.rows_swept} row updates"
    )
    if not result.exact:
        print(
            f"anytime result: {stats.termination} budget fired before the "
            f"certificate closed (residual bound gap {stats.bound_gap:.4g}); "
            "per-node [lower, upper] intervals remain certified"
        )
    if result.exhausted_component:
        print("note: the query's component holds fewer reachable nodes than k")
    return 0


def cmd_bench(args) -> int:
    args.bench_func = getattr(args, "bench_func", None)
    if args.bench_func is None:
        args.bench_parser.print_help()
        return 2
    return args.bench_func(args)


def cmd_bench_serve(args) -> int:
    if getattr(args, "churn", 0) > 0:
        return _bench_serve_churn(args)
    if getattr(args, "mode", "thread") == "process":
        return _bench_serve_process(args)
    return _bench_serve_thread(args)


def _bench_serve_options(args) -> tuple[Measure, FLoSOptions, QueryOverrides]:
    measure = measure_from_args(args)
    options = FLoSOptions(tau=args.tau, tie_epsilon=args.tie_epsilon)
    overrides = QueryOverrides(
        deadline_seconds=args.deadline,
        on_budget=args.on_budget,
    )
    return measure, options, overrides


def _write_bench_output(args, payload: dict) -> None:
    if args.output is None:
        return
    import json

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


def _bench_serve_process(args) -> int:
    from repro.bench.tables import format_table
    from repro.bench.workload import sample_queries
    from repro.serve import ShardedServer

    measure, options, overrides = _bench_serve_options(args)
    graph = open_graph(args.input, memory_budget=args.memory_budget)
    round_seconds = []
    try:
        queries = sample_queries(graph, args.queries, seed=args.seed)
        with ShardedServer.from_graph(
            graph,
            measure,
            options=options,
            cache_size=args.cache_size,
            workers=args.workers,
        ) as server:
            for round_no in range(1, max(1, args.rounds) + 1):
                round_started = time.perf_counter()
                batch = server.top_k_many(
                    queries, args.k, overrides=overrides
                )
                elapsed = time.perf_counter() - round_started
                round_seconds.append(elapsed)
                print(
                    f"round {round_no}: {len(batch)} queries in "
                    f"{elapsed * 1e3:.1f} ms wall "
                    f"({elapsed / len(batch) * 1e3:.2f} ms/query), "
                    f"all_exact={batch.all_exact}"
                )
            metrics = server.metrics()
    finally:
        if isinstance(graph, DiskGraph):
            graph.close()

    d = metrics.to_dict()
    rows = [
        ["worker processes", d["workers"]],
        ["requests completed", d["requests_completed"]],
        ["rejected / degraded admissions",
         f"{d['rejected']} / {d['degraded_admissions']}"],
        ["worker respawns / retried", f"{d['respawns']} / {d['retried']}"],
        ["cache hits (all workers)", d["cache_hits"]],
        ["degraded results", d["degraded_results"]],
        ["qps", f"{d['qps']:.1f}"],
        ["p50 request latency", f"{d['p50_wall_seconds'] * 1e3:.3f} ms"],
        ["p95 request latency", f"{d['p95_wall_seconds'] * 1e3:.3f} ms"],
    ]
    print()
    print(
        format_table(
            f"sharded serving metrics — {measure.name}({measure.params()}), "
            f"k={args.k}, workers={args.workers}",
            ["metric", "value"],
            rows,
        )
    )
    print("per-worker:")
    for w in d["per_worker"]:
        print(
            f"  worker {w['worker']} (pid {w['pid']}): "
            f"served={w.get('queries_served', '?')} "
            f"cache_hits={w.get('cache_hits', '?')} "
            f"respawns={w['respawns']}"
        )
    _write_bench_output(
        args,
        {
            "mode": "process",
            "workers": args.workers,
            "queries": args.queries,
            "rounds": args.rounds,
            "k": args.k,
            "round_seconds": round_seconds,
            "qps": d["qps"],
            "p50_wall_seconds": d["p50_wall_seconds"],
            "p95_wall_seconds": d["p95_wall_seconds"],
            "metrics": d,
        },
    )
    return 0


def _churn_schedule(base: CSRGraph, rounds: int, churn: int, seed: int):
    """Pre-generate a valid edge-update schedule (~80% add / 20% remove).

    The schedule is simulated on a scratch overlay so every remove names
    an edge that exists at its point in the sequence; both policies (and
    the oracle mirror) then replay the *same* batches, so any divergence
    between them is a serving bug, not workload noise.
    """
    import numpy as np

    from repro.graph.dynamic import DynamicGraph
    from repro.graph.updates import EdgeUpdate, apply_edge_updates

    if base.num_nodes < 2:
        raise ReproError("--churn needs a graph with at least 2 nodes")
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


def _oracle_mismatch(result, oracle, *, atol: float = 1e-8) -> str | None:
    """Why ``result`` disagrees with the cold-start ``oracle`` (or None).

    Exact ties at the rank-k boundary admit more than one correct top-k
    set (the fuzz harness documents the same caveat), so the check is
    tie-aware rather than naively bitwise.  Every served result replays
    the oracle's trajectory, so its top-k *value multiset* must match up
    to float tolerance, each shared node's certified interval must
    contain the oracle's value, and any node outside the oracle set must
    tie the rank-k boundary (interval overlap with the oracle's k-th
    entry).
    """
    import numpy as np

    if len(result.nodes) != len(oracle.nodes):
        return (
            f"returned {len(result.nodes)} nodes, oracle returned "
            f"{len(oracle.nodes)}"
        )
    if len(oracle.nodes) == 0:
        return None
    served_values = np.sort(np.asarray(result.values, dtype=np.float64))
    oracle_values = np.sort(np.asarray(oracle.values, dtype=np.float64))
    if not np.allclose(served_values, oracle_values, rtol=1e-6, atol=atol):
        return "top-k value multiset diverges from the cold oracle"
    truth = {
        int(n): (float(v), float(lo), float(hi))
        for n, v, lo, hi in zip(
            oracle.nodes, oracle.values, oracle.lower, oracle.upper
        )
    }
    boundary_lo = float(oracle.lower[-1])
    boundary_hi = float(oracle.upper[-1])
    for node, value, lo, hi in zip(
        result.nodes, result.values, result.lower, result.upper
    ):
        node = int(node)
        if node in truth:
            t_value, t_lo, t_hi = truth[node]
            if max(lo, t_lo) > min(hi, t_hi) + atol:
                return (
                    f"node {node}: certified [{lo:.6g}, {hi:.6g}] disjoint "
                    f"from oracle's [{t_lo:.6g}, {t_hi:.6g}]"
                )
            if not (lo - atol <= t_value <= hi + atol):
                return (
                    f"oracle value {t_value:.6g} for node {node} outside "
                    f"certified [{lo:.6g}, {hi:.6g}]"
                )
        elif max(lo, boundary_lo) > min(hi, boundary_hi) + atol:
            return (
                f"node {node} absent from the oracle top-k and not a "
                f"rank-k boundary tie"
            )
    return None


def _bench_serve_churn(args) -> int:
    """Evolving-graph benchmark: localized invalidation vs. full flush.

    Replays one pre-generated update schedule against two policies over
    the same base graph — a session with update-log-driven localized
    invalidation and a baseline that flushes its whole cache after every
    batch, both under ``audit="check"`` — and checks
    **every** served result of both policies against a cold-start oracle
    on a compacted snapshot.  Exit 1 on any oracle mismatch, any audit
    violation (raised by the engine), or if localized invalidation fails
    to *strictly* beat the flush baseline's hit rate.
    """
    from repro.bench.tables import format_table
    from repro.bench.workload import sample_queries
    from repro.graph.dynamic import DynamicGraph
    from repro.graph.updates import apply_edge_updates

    if args.input.suffix.lower() == ".flos":
        raise ReproError(
            "--churn needs an in-memory graph (.txt/.edges/.npz): the "
            "update overlay wraps a frozen CSR base"
        )
    measure, _options, overrides = _bench_serve_options(args)
    # audit="check" raises on any invariant violation, on both policies
    # so the latency comparison stays apples-to-apples.
    options = FLoSOptions(
        tau=args.tau, tie_epsilon=args.tie_epsilon, audit="check"
    )
    base = read_graph_memory(args.input)
    queries = sample_queries(base, args.queries, seed=args.seed)
    rounds = max(1, args.rounds)
    batches = _churn_schedule(base, rounds, args.churn, args.seed)

    graph_localized = DynamicGraph(base)
    graph_flush = DynamicGraph(base)
    oracle_mirror = DynamicGraph(base)  # private log; compacted per round
    session_localized = QuerySession(
        graph_localized, measure, options=options, cache_size=args.cache_size
    )
    session_flush = QuerySession(
        graph_flush, measure, options=options, cache_size=args.cache_size
    )

    mismatches: list[str] = []
    results_checked = 0
    updates_total = 0
    for round_no in range(rounds + 1):
        if round_no > 0:
            batch = batches[round_no - 1]
            apply_edge_updates(graph_localized, batch)
            apply_edge_updates(graph_flush, batch)
            apply_edge_updates(oracle_mirror, batch)
            session_flush.clear_cache()  # the baseline policy
            updates_total += len(batch)
        oracle_graph = oracle_mirror.compact() if round_no > 0 else base
        round_started = time.perf_counter()
        for query in queries:
            result_localized = session_localized.top_k(
                query, args.k, overrides=overrides
            )
            result_flush = session_flush.top_k(
                query, args.k, overrides=overrides
            )
            oracle = flos_top_k(
                oracle_graph, measure, query, args.k,
                options=options, overrides=overrides,
            )
            results_checked += 2
            for label, result in (
                ("localized", result_localized),
                ("flush", result_flush),
            ):
                problem = _oracle_mismatch(result, oracle)
                if problem is not None:
                    mismatches.append(
                        f"round {round_no} query {query} [{label}]: {problem}"
                    )
        elapsed = time.perf_counter() - round_started
        print(
            f"round {round_no}: {len(queries)} queries x 2 policies "
            f"+ oracle in {elapsed * 1e3:.1f} ms"
            + (f" ({len(batches[round_no - 1])} updates)" if round_no else "")
        )

    d_localized = session_localized.metrics().to_dict()
    d_flush = session_flush.metrics().to_dict()
    hit_rate_localized = d_localized["cache_hit_rate"]
    hit_rate_flush = d_flush["cache_hit_rate"]

    rows = [
        ["updates applied", updates_total],
        ["results oracle-checked", results_checked],
        ["localized: hit rate",
         f"{hit_rate_localized:.1%} "
         f"({d_localized['cache_hits']}/{d_localized['queries_served']})"],
        ["localized: invalidations", d_localized["cache_invalidations"]],
        ["localized: p50 / p95",
         f"{d_localized['p50_wall_seconds'] * 1e3:.3f} / "
         f"{d_localized['p95_wall_seconds'] * 1e3:.3f} ms"],
        ["flush: hit rate",
         f"{hit_rate_flush:.1%} "
         f"({d_flush['cache_hits']}/{d_flush['queries_served']})"],
        ["flush: p50 / p95",
         f"{d_flush['p50_wall_seconds'] * 1e3:.3f} / "
         f"{d_flush['p95_wall_seconds'] * 1e3:.3f} ms"],
        ["oracle mismatches", len(mismatches)],
    ]
    print()
    print(
        format_table(
            f"churn serving — {measure.name}({measure.params()}), k={args.k}, "
            f"{args.churn} updates/round, {rounds} rounds",
            ["metric", "value"],
            rows,
        )
    )

    _write_bench_output(
        args,
        {
            "mode": "churn",
            "graph": str(args.input),
            "nodes": base.num_nodes,
            "edges": base.num_edges,
            "measure": measure.name,
            "k": args.k,
            "queries": len(queries),
            "rounds": rounds,
            "churn": args.churn,
            "updates_applied": updates_total,
            "localized": {
                "cache_hit_rate": hit_rate_localized,
                "cache_hits": d_localized["cache_hits"],
                "cache_misses": d_localized["cache_misses"],
                "cache_invalidations": d_localized["cache_invalidations"],
                "p50_wall_seconds": d_localized["p50_wall_seconds"],
                "p95_wall_seconds": d_localized["p95_wall_seconds"],
            },
            "flush": {
                "cache_hit_rate": hit_rate_flush,
                "cache_hits": d_flush["cache_hits"],
                "cache_misses": d_flush["cache_misses"],
                "p50_wall_seconds": d_flush["p50_wall_seconds"],
                "p95_wall_seconds": d_flush["p95_wall_seconds"],
            },
            "oracle": {
                "results_checked": results_checked,
                "mismatches": len(mismatches),
            },
            "hit_rate_advantage": hit_rate_localized - hit_rate_flush,
        },
    )

    status = 0
    if mismatches:
        print(
            f"{len(mismatches)} served result(s) disagree with the "
            "cold-start oracle:", file=sys.stderr,
        )
        for line in mismatches[:10]:
            print(f"  {line}", file=sys.stderr)
        status = 1
    if hit_rate_localized <= hit_rate_flush:
        print(
            f"localized invalidation hit rate {hit_rate_localized:.1%} does "
            f"not strictly beat the flush baseline {hit_rate_flush:.1%}",
            file=sys.stderr,
        )
        status = 1
    if status == 0:
        print(
            f"OK: all {results_checked} served results match the cold "
            f"oracle; hit rate "
            f"{hit_rate_localized:.1%} vs flush {hit_rate_flush:.1%}"
        )
    return status


def _bench_serve_thread(args) -> int:
    from repro.bench.tables import format_table
    from repro.bench.workload import sample_queries

    measure, options, overrides = _bench_serve_options(args)
    graph = open_graph(args.input, memory_budget=args.memory_budget)
    round_seconds = []
    try:
        session = QuerySession(
            graph, measure, options=options, cache_size=args.cache_size
        )
        queries = sample_queries(graph, args.queries, seed=args.seed)
        for round_no in range(1, max(1, args.rounds) + 1):
            round_started = time.perf_counter()
            batch = session.top_k_many(
                queries, args.k, workers=args.workers, overrides=overrides
            )
            elapsed = time.perf_counter() - round_started
            round_seconds.append(elapsed)
            print(
                f"round {round_no}: {len(batch)} queries in "
                f"{elapsed * 1e3:.1f} ms wall "
                f"({elapsed / len(batch) * 1e3:.2f} ms/query), "
                f"all_exact={batch.all_exact}"
            )
        metrics = session.metrics()
        slow = session.slow_queries()
    finally:
        if isinstance(graph, DiskGraph):
            graph.close()

    d = metrics.to_dict()
    rows = [
        ["queries served", d["queries_served"]],
        ["cache hits", d["cache_hits"]],
        ["cache misses", d["cache_misses"]],
        ["cache hit rate", f"{d['cache_hit_rate']:.1%}"],
        ["visited nodes (total)", d["visited_nodes_total"]],
        ["expansions (total)", d["expansions_total"]],
        ["solver iterations (total)", d["solver_iterations_total"]],
        ["degraded results", d["degraded_results"]],
        ["p50 serve time", f"{d['p50_wall_seconds'] * 1e3:.3f} ms"],
        ["p95 serve time", f"{d['p95_wall_seconds'] * 1e3:.3f} ms"],
        ["total serve time", f"{d['total_wall_seconds'] * 1e3:.1f} ms"],
    ]
    for reason, count in d["terminations"].items():
        rows.append([f"terminated: {reason}", count])
    print()
    print(
        format_table(
            f"serving metrics — {measure.name}({measure.params()}), "
            f"k={args.k}, workers={args.workers}",
            ["metric", "value"],
            rows,
        )
    )
    hist = d["visited_histogram"]
    if hist:
        print("visited-node histogram (bucket upper bound: queries):")
        for bucket, count in hist.items():
            print(f"  <= {bucket:>8}: {count}")
    if slow:
        print("slowest queries (worst first):")
        for entry in slow[:5]:
            print(
                f"  q={entry['query']:<8} k={entry['k']:<4} "
                f"{entry['wall_seconds'] * 1e3:8.2f} ms  "
                f"visited={entry['visited_nodes']:<8} "
                f"{entry['termination']}"
            )
    total = sum(round_seconds)
    _write_bench_output(
        args,
        {
            "mode": "thread",
            "workers": args.workers,
            "queries": args.queries,
            "rounds": args.rounds,
            "k": args.k,
            "round_seconds": round_seconds,
            "qps": (d["queries_served"] / total) if total > 0 else 0.0,
            "p50_wall_seconds": d["p50_wall_seconds"],
            "p95_wall_seconds": d["p95_wall_seconds"],
            "metrics": d,
        },
    )
    return 0


def cmd_fuzz(args) -> int:
    from repro.audit.fuzz import run_fuzz

    if args.cases < 1:
        raise ReproError("--cases must be >= 1")

    def heartbeat(done: int, total: int) -> None:
        if done % 50 == 0 or done == total:
            print(f"  {done}/{total} cases", flush=True)

    print(
        f"fuzzing {args.cases} cases (seed {args.seed}): "
        "default + anytime + excluded runs, "
        "vs direct solve + GI oracle"
    )
    summary = run_fuzz(
        args.cases, args.seed, out_dir=args.out_dir, progress=heartbeat
    )
    print(
        f"{summary.runs} engine runs, {summary.checks} differential checks "
        f"in {summary.elapsed_seconds:.1f}s"
    )
    if summary.ok:
        print("no invariant violations")
        return 0
    print(f"{len(summary.failures)} failing case(s):", file=sys.stderr)
    for failure in summary.failures:
        print(str(failure), file=sys.stderr)
        if failure.repro_path:
            print(f"  repro: {failure.repro_path}", file=sys.stderr)
    return 1


def cmd_datasets(args) -> int:
    if not args.name:
        print(f"cache dir: {cache_dir()}")
        for name, spec in DATASETS.items():
            print(
                f"  {name}: {spec.full_name} — paper {spec.paper_nodes}/"
                f"{spec.paper_edges}, default scale {spec.scale:g}"
            )
        return 0
    graph = load_dataset(args.name, scale=args.scale)
    s = graph_stats(graph)
    print(
        f"{args.name}: {s.num_nodes} nodes, {s.num_edges} edges, "
        f"density {s.density:.2f}, max degree {s.max_degree}"
    )
    return 0


# ----------------------------------------------------------------------


def read_graph_memory(path: Path) -> CSRGraph:
    """Load any supported format fully into memory."""
    suffix = path.suffix.lower()
    if suffix == ".npz":
        return load_npz(path)
    if suffix == ".flos":
        raise ReproError(
            "reading a .flos store fully into memory is not supported; "
            "query it directly or convert from its source"
        )
    return read_edgelist(path)


def open_graph(path: Path, *, memory_budget: int) -> GraphAccess:
    """Open a graph for querying; .flos stores stay on disk."""
    if path.suffix.lower() == ".flos":
        return DiskGraph(path, memory_budget=memory_budget)
    return read_graph_memory(path)


def write_graph(graph: CSRGraph, path: Path) -> None:
    suffix = path.suffix.lower()
    if suffix == ".npz":
        save_npz(graph, path)
    elif suffix == ".flos":
        write_disk_graph(graph, path)
    else:
        write_edgelist(graph, path, write_weights=True)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
