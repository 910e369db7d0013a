"""Figure 12 — RWR running time on in-memory synthetic graphs (k = 20).

Same four panels as Figure 11 with the RWR method set: FLoS_RWR,
GI_RWR, Castanet, LS_RWR.  Paper shapes: GI and Castanet grow with |V|
(Castanet cutting GI by 69–88%), local methods near-flat; everything
grows with density.

Sizes are scaled harder than Figure 11 (2¹¹–2¹⁴) because exact RWR
certification is the most expensive workload in the suite (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from _helpers import (
    bench_config,
    format_table,
    sweep_family,
    write_report,
)
from repro.graph.generators import erdos_renyi, rmat
from repro.measures import RWR

K = 20
METHOD_NAMES = ["FLoS_RWR", "GI_RWR", "Castanet", "LS_RWR"]
SIZES = [2**11, 2**12, 2**13, 2**14]
FIXED_DENSITY = 9.5
DENSITIES = [4.8, 9.5, 14.3, 19.1]
DENSITY_SIZE = 2**12


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
        graph = _make(model, nodes, density, seed=2000 + seed_offset)
        runs, _ = sweep_family(
            graph,
            RWR(0.5),
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
def test_fig12_varying_size(benchmark, model):
    cfg = bench_config(default_queries=2)
    rows = benchmark.pedantic(
        lambda: _sweep_rows(model, "size", cfg), rounds=1, iterations=1
    )
    table = format_table(
        f"Figure 12 ({model}, varying size) — RWR, k=20",
        ["model", "nodes", "density", "method", "mean (ms)", "visited"],
        rows,
        note="paper sizes / 512; Castanet should cut GI's time; "
        "LS_RWR near-flat",
    )
    from benchkit.ascii_chart import ascii_chart

    series = {}
    for r in rows:
        series.setdefault(r[3], []).append((r[1], r[4]))
    table += "\n" + ascii_chart(
        series,
        title=f"Figure 12 ({model}) — time vs |V|",
        x_label="|V|",
        y_label="mean query time (ms)",
    )
    write_report(f"fig12_size_{model}", table)

    gi = {r[1]: r[4] for r in rows if r[3] == "GI_RWR"}
    cast = {r[1]: r[4] for r in rows if r[3] == "Castanet"}
    ls = {r[1]: r[4] for r in rows if r[3] == "LS_RWR"}
    sizes = sorted(gi)
    # Castanet stays within a small factor of τ-stopped GI while being
    # the *certified* method (see bench_fig8 for the sweep-count story).
    assert cast[sizes[-1]] < 4.0 * gi[sizes[-1]]
    # Both global methods grow with |V|.
    assert gi[sizes[-1]] > 2.0 * gi[sizes[0]]
    # LS_RWR stays near-flat while GI grows.
    ls_growth = ls[sizes[-1]] / max(ls[sizes[0]], 1e-9)
    gi_growth = gi[sizes[-1]] / gi[sizes[0]]
    assert ls_growth < gi_growth


@pytest.mark.parametrize("model", ["RAND", "R-MAT"])
def test_fig12_varying_density(benchmark, model):
    cfg = bench_config(default_queries=2)
    rows = benchmark.pedantic(
        lambda: _sweep_rows(model, "density", cfg), rounds=1, iterations=1
    )
    table = format_table(
        f"Figure 12 ({model}, varying density) — RWR, k=20",
        ["model", "nodes", "density", "method", "mean (ms)", "visited"],
        rows,
        note="expect every method's time to grow with density",
    )
    write_report(f"fig12_density_{model}", table)

    gi = [r[4] for r in rows if r[3] == "GI_RWR"]
    assert gi[-1] > gi[0]
