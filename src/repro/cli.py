"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``    sample a synthetic graph and write it to a file
``convert``     convert between edge-list / npz / disk-store formats
``stats``       print summary statistics of a graph file
``query``       run a top-k proximity query against a graph file
``fuzz``        differential-fuzz the engines against the global
                oracles (exit 1 on any invariant violation)
``datasets``    list or materialise the paper's dataset stand-ins

Graph files are recognised by extension: ``.txt``/``.edges`` (SNAP edge
list), ``.npz`` (binary CSR), ``.flos`` (paged disk store).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import __version__
from repro.core.api import QueryOverrides, flos_top_k
from repro.core.flos import FLoSOptions
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
