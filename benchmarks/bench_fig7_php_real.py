"""Figure 7 — running time of PHP methods vs k on the real-graph stand-ins.

Paper series: FLoS_PHP, GI_PHP, DNE, NN_EI, LS_EI over k ∈ {1..32} on
AZ / DP / YT / LJ, 10³ random queries each, c = 0.5, τ = 1e-5.

Expected shape (paper Sec. 6.2.1): FLoS_PHP fastest and growing mildly
with k; GI_PHP flat in k but much slower (whole-graph iteration); DNE
flat (fixed 4,000-node budget); NN_EI exact but slower than FLoS; LS_EI
flat (cluster lookup) after an expensive preprocessing step.
"""

from __future__ import annotations

import pytest

from _helpers import (
    FIG7_SCALES,
    bench_config,
    load_dataset,
    one_query_callable,
    sample_queries,
    sweep_family,
    time_table,
    write_report,
)
from repro.measures import PHP

KS = [1, 4, 16, 32]
METHOD_NAMES = ["FLoS_PHP", "GI_PHP", "DNE", "NN_EI", "LS_EI"]
DATASETS = list(FIG7_SCALES)


@pytest.fixture(scope="module", params=DATASETS)
def dataset(request):
    name = request.param
    return name, load_dataset(name, scale=FIG7_SCALES[name])


def test_fig7_report(dataset, benchmark):
    """Regenerate one panel of Figure 7 (one dataset, all methods)."""
    name, graph = dataset
    cfg = bench_config(default_queries=3)

    def sweep():
        return sweep_family(
            graph,
            PHP(0.5),
            METHOD_NAMES,
            KS,
            queries=cfg.queries,
            seed=cfg.seed,
        )

    runs, prep = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = time_table(
        f"Figure 7({name}) — PHP running time, "
        f"|V|={graph.num_nodes}, |E|={graph.num_edges}",
        runs,
        KS,
        prep_seconds=prep,
        note=f"{cfg.queries} random queries per cell; paper uses the "
        "full SNAP graphs in C++ — compare shapes, not absolutes",
    )
    from benchkit.ascii_chart import chart_from_runs

    table += "\n" + chart_from_runs(
        runs, KS, title=f"Figure 7({name}) series"
    )
    write_report(f"fig7_{name}", table)
    # Shape assertions from Sec. 6.2.1 — checked at k=16: on the scaled
    # stand-ins, k=32 is proportionally 10-100x deeper into the ranking
    # than on the full SNAP graphs, where exact certification becomes
    # expensive for *any* local method (see EXPERIMENTS.md).
    by = {(r.method, r.k): r for r in runs}
    flos = by[("FLoS_PHP", 16)].mean_seconds
    gi = by[("GI_PHP", 16)].mean_seconds
    assert flos < gi, "FLoS_PHP must beat global iteration"
    # FLoS visits a small part of the graph.
    assert by[("FLoS_PHP", 16)].mean_visited < 0.5 * graph.num_nodes


@pytest.mark.parametrize("method", ["FLoS_PHP", "GI_PHP", "DNE"])
def test_fig7_single_query_az(benchmark, method):
    """Representative single-query timings for the pytest-benchmark table."""
    graph = load_dataset("AZ", scale=FIG7_SCALES["AZ"])
    q = int(sample_queries(graph, 1, seed=1)[0])
    benchmark.pedantic(
        one_query_callable(method, graph, PHP(0.5), q, 16),
        rounds=3,
        iterations=1,
    )
