"""Shared plumbing for the per-figure benchmark modules."""

from __future__ import annotations

from benchkit.runner import MethodRun, prepare_index, run_method
from benchkit.tables import format_table, write_report
from benchkit.workload import bench_config, sample_queries
from repro.baselines.registry import get_method
from repro.graph.datasets import load_dataset
from repro.graph.memory import CSRGraph
from repro.measures.base import Measure

#: Per-figure dataset scales (fraction of the real SNAP sizes).  The
#: paper runs the full graphs in C++; these defaults keep one pytest
#: run of the whole suite within a few minutes of pure Python.
FIG7_SCALES = {"AZ": 0.10, "DP": 0.10, "YT": 0.05, "LJ": 0.010}
FIG8_SCALES = {"AZ": 0.05, "DP": 0.05, "YT": 0.02, "LJ": 0.005}
FIG10_SCALES = {"AZ": 0.03, "DP": 0.03, "YT": 0.010, "LJ": 0.003}

#: Datasets where the heavy-preprocess methods run (paper Sec. 6.2.2:
#: K-dash and GE "can only be applied on two medium-sized real graphs").
SMALL_ENOUGH_FOR_PREPROCESS = ("AZ", "DP")


def sweep_family(
    graph: CSRGraph,
    measure: Measure,
    method_names: list[str],
    ks: list[int],
    *,
    queries: int,
    seed: int,
) -> tuple[list[MethodRun], dict[str, float]]:
    """Run every (method, k) cell; returns runs + preprocess seconds.

    Each query's answer is kept in ``MethodRun.results``.
    """
    workload = sample_queries(graph, queries, seed=seed)
    runs: list[MethodRun] = []
    prep_seconds: dict[str, float] = {}
    for name in method_names:
        method = get_method(name)
        index, seconds = prepare_index(method, graph, measure)
        if seconds > 0.01 or method.heavy_preprocess:
            prep_seconds[name] = seconds
        for k in ks:
            runs.append(
                run_method(
                    method,
                    graph,
                    measure,
                    workload,
                    k,
                    index=index,
                    keep_results=True,
                )
            )
    return runs, prep_seconds


def time_table(
    title: str,
    runs: list[MethodRun],
    ks: list[int],
    *,
    prep_seconds: dict[str, float] | None = None,
    note: str | None = None,
) -> str:
    """Paper-figure-style table: one row per method, one column per k."""
    by_method: dict[str, dict[int, MethodRun]] = {}
    for run in runs:
        by_method.setdefault(run.method, {})[run.k] = run
    columns = ["method"] + [f"k={k} (ms)" for k in ks]
    if prep_seconds:
        columns.append("prep (s)")
    rows = []
    for name, cells in by_method.items():
        row: list[object] = [name]
        for k in ks:
            run = cells.get(k)
            row.append(run.mean_seconds * 1e3 if run else "-")
        if prep_seconds:
            row.append(prep_seconds.get(name, 0.0))
        rows.append(row)
    return format_table(title, columns, rows, note=note)


def one_query_callable(method_name: str, graph, measure, query: int, k: int):
    """Closure benchmarked by pytest-benchmark for representative cells."""
    method = get_method(method_name)
    index = method.prepare(graph, measure)

    def run():
        return method.query(graph, measure, index, query, k)

    return run


__all__ = [
    "FIG7_SCALES",
    "FIG8_SCALES",
    "FIG10_SCALES",
    "SMALL_ENOUGH_FOR_PREPROCESS",
    "bench_config",
    "format_table",
    "load_dataset",
    "one_query_callable",
    "prepare_index",
    "run_method",
    "sample_queries",
    "sweep_family",
    "time_table",
    "write_report",
]
