"""Figure 11 — PHP running time on in-memory synthetic graphs (k = 20).

Four panels (paper Sec. 6.3.1, Table 6):

(a) RAND, varying size at fixed density 9.5;
(b) R-MAT, varying size at fixed density 9.5;
(c) RAND, varying density at fixed size;
(d) R-MAT, varying density at fixed size.

Paper sizes are 2²⁰–2²³ nodes; we scale by 1/64 (2¹³–2¹⁶) so one pytest
run stays in minutes of pure Python.  Expected shapes: GI_PHP grows
linearly with |V| while the local methods (FLoS_PHP, DNE, NN_EI, LS_EI)
stay flat; all methods grow with density.
"""

from __future__ import annotations

import pytest

from _helpers import (
    bench_config,
    sweep_family,
    format_table,
    write_report,
)
from repro.graph.generators import erdos_renyi, rmat
from repro.measures import PHP

K = 20
METHOD_NAMES = ["FLoS_PHP", "GI_PHP", "DNE", "NN_EI", "LS_EI"]
SIZES = [2**13, 2**14, 2**15, 2**16]
FIXED_DENSITY = 9.5
DENSITIES = [4.8, 9.5, 14.3, 19.1]
DENSITY_SIZE = 2**14


def _make(model: str, nodes: int, density: float, seed: int):
    edges = int(nodes * density / 2)
    if model == "RAND":
        return erdos_renyi(nodes, edges, seed=seed)
    scale = nodes.bit_length() - 1
    return rmat(scale, int(edges * 1.25), seed=seed)


def _sweep_rows(model: str, vary: str, cfg):
    rows = []
    points = (
        [(n, FIXED_DENSITY) for n in SIZES]
        if vary == "size"
        else [(DENSITY_SIZE, d) for d in DENSITIES]
    )
    for seed_offset, (nodes, density) in enumerate(points):
        graph = _make(model, nodes, density, seed=1000 + seed_offset)
        runs, _ = sweep_family(
            graph,
            PHP(0.5),
            METHOD_NAMES,
            [K],
            queries=cfg.queries,
            seed=cfg.seed,
        )
        for run in runs:
            rows.append(
                [
                    model,
                    graph.num_nodes,
                    round(graph.density, 1),
                    run.method,
                    run.mean_seconds * 1e3,
                    int(run.mean_visited),
                ]
            )
    return rows


@pytest.mark.parametrize("model", ["RAND", "R-MAT"])
def test_fig11_varying_size(benchmark, model):
    cfg = bench_config(default_queries=3)
    rows = benchmark.pedantic(
        lambda: _sweep_rows(model, "size", cfg), rounds=1, iterations=1
    )
    table = format_table(
        f"Figure 11 ({model}, varying size) — PHP, k=20",
        ["model", "nodes", "density", "method", "mean (ms)", "visited"],
        rows,
        note="paper sizes / 64; expect GI to grow with |V|, local "
        "methods to stay nearly flat",
    )
    from benchkit.ascii_chart import ascii_chart

    series = {}
    for r in rows:
        series.setdefault(r[3], []).append((r[1], r[4]))
    table += "\n" + ascii_chart(
        series,
        title=f"Figure 11 ({model}) — time vs |V|",
        x_label="|V|",
        y_label="mean query time (ms)",
    )
    write_report(f"fig11_size_{model}", table)

    gi = {r[1]: r[4] for r in rows if r[3] == "GI_PHP"}
    flos = {r[1]: r[4] for r in rows if r[3] == "FLoS_PHP"}
    sizes = sorted(gi)
    # GI scales with size: at least 3x from smallest to largest.
    assert gi[sizes[-1]] > 3.0 * gi[sizes[0]]
    # FLoS stays within a much smaller growth envelope than GI's.
    flos_growth = flos[sizes[-1]] / max(flos[sizes[0]], 1e-9)
    gi_growth = gi[sizes[-1]] / gi[sizes[0]]
    assert flos_growth < gi_growth
    # And FLoS beats GI at the largest size.
    assert flos[sizes[-1]] < gi[sizes[-1]]


@pytest.mark.parametrize("model", ["RAND", "R-MAT"])
def test_fig11_varying_density(benchmark, model):
    cfg = bench_config(default_queries=3)
    rows = benchmark.pedantic(
        lambda: _sweep_rows(model, "density", cfg), rounds=1, iterations=1
    )
    table = format_table(
        f"Figure 11 ({model}, varying density) — PHP, k=20",
        ["model", "nodes", "density", "method", "mean (ms)", "visited"],
        rows,
        note="expect every method's time to grow with density",
    )
    write_report(f"fig11_density_{model}", table)

    flos = [r[4] for r in rows if r[3] == "FLoS_PHP"]
    # Densest point costs more than sparsest for FLoS (paper Sec. 6.3.1).
    assert flos[-1] > flos[0]
