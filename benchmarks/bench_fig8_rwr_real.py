"""Figure 8 — running time of RWR methods vs k on the real-graph stand-ins.

Paper series: FLoS_RWR, GI_RWR, Castanet, K-dash, GE_RWR, LS_RWR on
AZ / DP / YT / LJ; K-dash and GE only on the two medium graphs because
their preprocessing "takes tens of hours" (Sec. 6.2.2).

Expected shape: K-dash fastest per query after its heavy precompute;
GE fast but approximate; Castanet cuts GI by a large factor; LS_RWR
near-constant.  FLoS_RWR is exact with no preprocessing; on these
*scaled* stand-ins its visited fraction is large (exact RWR top-k
certification must rule out every mid-degree hub — see EXPERIMENTS.md),
so unlike the paper it does not dominate the global methods here.
"""

from __future__ import annotations

import pytest

from _helpers import (
    FIG8_SCALES,
    SMALL_ENOUGH_FOR_PREPROCESS,
    bench_config,
    load_dataset,
    one_query_callable,
    sample_queries,
    sweep_family,
    time_table,
    write_report,
)
from repro.measures import RWR

KS = [4, 20]
BASE_METHODS = ["FLoS_RWR", "GI_RWR", "Castanet", "LS_RWR"]
HEAVY_METHODS = ["K-dash", "GE_RWR"]
DATASETS = list(FIG8_SCALES)


@pytest.fixture(scope="module", params=DATASETS)
def dataset(request):
    name = request.param
    return name, load_dataset(name, scale=FIG8_SCALES[name])


def test_fig8_report(dataset, benchmark):
    """Regenerate one panel of Figure 8 (one dataset, all methods)."""
    name, graph = dataset
    cfg = bench_config(default_queries=2)
    methods = list(BASE_METHODS)
    if name in SMALL_ENOUGH_FOR_PREPROCESS:
        methods += HEAVY_METHODS  # paper: only on the medium graphs

    def sweep():
        return sweep_family(
            graph, RWR(0.5), methods, KS, queries=cfg.queries, seed=cfg.seed
        )

    runs, prep = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = time_table(
        f"Figure 8({name}) — RWR running time, "
        f"|V|={graph.num_nodes}, |E|={graph.num_edges}",
        runs,
        KS,
        prep_seconds=prep,
        note=f"{cfg.queries} random queries per cell; K-dash/GE_RWR "
        "restricted to AZ/DP as in the paper",
    )
    from benchkit.ascii_chart import chart_from_runs

    table += "\n" + chart_from_runs(
        runs, KS, title=f"Figure 8({name}) series"
    )
    write_report(f"fig8_{name}", table)

    by = {(r.method, r.k): r for r in runs}
    # Castanet certifies the exact top-k from a bounded prefix of the
    # walk-length decomposition.  On the stand-ins GI's τ=1e-5 update
    # stop can fire in *fewer* sweeps — but that stop is heuristic (an
    # update-norm threshold certifies nothing about the ranking), so
    # the honest comparison is: Castanet's certified sweep count is
    # small and its wall time stays within a small factor of heuristic
    # GI (the paper measured it faster at full scale).
    assert 0 < by[("Castanet", 4)].mean_solver_iterations <= 45
    assert (
        by[("Castanet", 20)].mean_seconds
        <= 4.0 * by[("GI_RWR", 20)].mean_seconds
    )
    if name in SMALL_ENOUGH_FOR_PREPROCESS:
        # Heavy-precompute methods answer fast only after a precompute
        # that dwarfs any single query (paper: "tens of hours").
        for heavy in HEAVY_METHODS:
            assert prep[heavy] > 10 * by[(heavy, 20)].mean_seconds


@pytest.mark.parametrize("method", ["GI_RWR", "Castanet", "LS_RWR"])
def test_fig8_single_query_az(benchmark, method):
    graph = load_dataset("AZ", scale=FIG8_SCALES["AZ"])
    q = int(sample_queries(graph, 1, seed=1)[0])
    benchmark.pedantic(
        one_query_callable(method, graph, RWR(0.5), q, 20),
        rounds=3,
        iterations=1,
    )
