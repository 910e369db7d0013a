"""Tables 3, 4, 6 and Figure 4 — dataset statistics and the worked example.

* Table 4: statistics of the real-graph stand-ins next to the paper's
  SNAP numbers.
* Table 6: statistics of the in-memory synthetic graph series.
* Table 3 / Figure 4: the 8-node walkthrough — newly visited nodes per
  iteration and the monotone bound trajectories, printed exactly like
  the paper's example.
"""

from __future__ import annotations

from _helpers import bench_config, format_table, write_report
from repro import PHP, FLoSOptions, flos_top_k
from repro.graph.datasets import DATASETS, load_dataset
from repro.graph.generators import erdos_renyi, paper_example_graph, rmat
from repro.graph.stats import graph_stats


def test_table4_dataset_stats(benchmark):
    def collect():
        rows = []
        for name, spec in DATASETS.items():
            graph = load_dataset(name)
            s = graph_stats(graph)
            rows.append(
                [
                    name,
                    spec.paper_nodes,
                    spec.paper_edges,
                    f"{spec.scale:g}",
                    s.num_nodes,
                    s.num_edges,
                    s.density,
                    s.max_degree,
                ]
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    table = format_table(
        "Table 4 — real dataset stand-ins",
        [
            "name",
            "paper |V|",
            "paper |E|",
            "scale",
            "|V|",
            "|E|",
            "density",
            "max deg",
        ],
        rows,
        note="stand-ins replicate size, density, and degree-tail shape "
        "at the stated scale (DESIGN.md §5)",
    )
    write_report("table4_datasets", table)
    for row in rows:
        # Node count within 1% of the scaled target; density within 40%.
        scale = float(row[3])
        assert abs(row[4] - row[1] * scale) <= max(2, 0.01 * row[1] * scale)
        paper_density = 2 * row[2] / row[1]
        assert 0.6 * paper_density <= row[6] <= 1.6 * paper_density


def test_table6_synthetic_stats(benchmark):
    def collect():
        rows = []
        for nodes in (2**13, 2**14, 2**15, 2**16):
            g = erdos_renyi(nodes, int(nodes * 4.75), seed=nodes)
            s = graph_stats(g)
            rows.append(["RAND", s.num_nodes, s.num_edges, s.density])
        for density in (4.8, 9.5, 14.3, 19.1):
            g = rmat(14, int(2**14 * density / 2 * 1.25), seed=int(density * 10))
            s = graph_stats(g)
            rows.append(["R-MAT", s.num_nodes, s.num_edges, s.density])
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    table = format_table(
        "Table 6 — in-memory synthetic graph statistics",
        ["model", "nodes", "edges", "density"],
        rows,
        note="paper sizes / 64 (varying size) and densities 4.8-19.1",
    )
    write_report("table6_synthetic_stats", table)
    assert len(rows) == 8


def test_table3_fig4_walkthrough(benchmark):
    def walkthrough():
        g = paper_example_graph()
        return flos_top_k(
            g,
            PHP(0.8),
            0,
            2,
            options=FLoSOptions(
                audit="record", tighten=False, adaptive_batching=False
            ),
        )

    result = benchmark.pedantic(walkthrough, rounds=1, iterations=1)
    # One audit snapshot per bound refresh; the last one is the round
    # that terminated.  Round t first visited ``nodes[prev.size:size]``.
    snaps = result.audit.snapshots
    sizes = [1] + [snap.size for snap in snaps]
    newly = [snap.nodes[prev : snap.size] + 1 for prev, snap in zip(sizes, snaps)]
    rows = []
    for snap, fresh in zip(snaps, newly):
        rows.append(
            [
                snap.iteration,
                "{" + ",".join(str(v) for v in fresh) + "}",
                round(snap.dummy_value, 4),
                "yes" if snap is snaps[-1] else "no",
            ]
        )
    table = format_table(
        "Table 3 / Figure 4 — example walkthrough (PHP, q=1, c=0.8)",
        ["iteration", "newly visited (1-based)", "r_d", "terminated"],
        rows,
        note="paper Table 3: {2,3} {4} {5} {6,7} {8}; termination fires "
        "at iteration 4 so node 8 is never visited",
    )
    bounds_rows = []
    final = snaps[-1]
    for i in final.nodes.argsort():
        bounds_rows.append(
            [
                final.nodes[i] + 1,
                round(final.lower[i], 4),
                round(final.upper[i], 4),
            ]
        )
    table += format_table(
        "Figure 4 — final bounds at termination",
        ["node (1-based)", "lower", "upper"],
        bounds_rows,
    )
    write_report("table3_fig4_example", table)

    assert [tuple(sorted(fresh.tolist())) for fresh in newly] == [
        (2, 3),
        (4,),
        (5,),
        (6, 7),
    ]
    assert result.exact
    assert result.node_set() == {1, 2}
