"""Anytime-search budget sweep (serving-quality benchmark, not a paper
figure).

Graceful degradation trades certified exactness for bounded latency:
``FLoSOptions(on_budget="degrade")`` returns the best-k by the ranking
midpoint whenever a budget fires, with the residual certificate gap in
``stats.bound_gap``.  This benchmark quantifies the trade-off on a hard
RWR workload (hub-heavy R-MAT graph, where exact certification is
expensive at small scale — see EXPERIMENTS.md):

* **visited-budget sweep** — recall@k against the exact answer, the
  mean residual bound gap, and latency as ``max_visited`` grows.
  Deterministic, so this is also a regression test for the anytime
  ranking quality;
* **deadline sweep** — the same quantities under wall-clock deadlines,
  which is what a serving deployment actually configures.

The written table shows the anytime knee: recall climbs steeply with
the first few hundred visited nodes while the bound gap collapses, long
before the exact certificate closes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchkit.tables import format_table, write_report
from benchkit.workload import sample_queries
from repro.core.flos import FLoSOptions
from repro.core.session import QuerySession
from repro.graph.generators import rmat
from repro.measures import RWR

K = 10
VISITED_BUDGETS = [50, 200, 800, 3200, None]
DEADLINES = [0.002, 0.01, 0.05, None]


@pytest.fixture(scope="module")
def graph():
    return rmat(12, 40_000, seed=21)


@pytest.fixture(scope="module")
def workload(graph):
    return [int(q) for q in sample_queries(graph, 12, seed=20140622)]


@pytest.fixture(scope="module")
def exact_answers(graph, workload):
    session = QuerySession(
        graph, RWR(0.5), options=FLoSOptions(tie_epsilon=1e-5)
    )
    return {q: session.top_k(q, K) for q in workload}


def _sweep_row(session, workload, exact_answers, **overrides):
    """Serve the workload under one budget; aggregate quality/latency."""
    recalls, gaps, visited = [], [], []
    degraded = 0
    started = time.perf_counter()
    for q in workload:
        result = session.top_k(q, K, **overrides)
        want = exact_answers[q].node_set()
        recalls.append(len(result.node_set() & want) / max(len(want), 1))
        gaps.append(result.stats.bound_gap)
        visited.append(result.stats.visited_nodes)
        degraded += 0 if result.exact else 1
    elapsed = time.perf_counter() - started
    return {
        "recall": float(np.mean(recalls)),
        "gap": float(np.mean(gaps)),
        "visited": float(np.mean(visited)),
        "degraded": degraded,
        "ms_per_query": elapsed / len(workload) * 1e3,
    }


def test_visited_budget_sweep(graph, workload, exact_answers):
    """Recall@k and bound gap vs visited budget (deterministic)."""
    rows = []
    by_budget = {}
    for budget in VISITED_BUDGETS:
        session = QuerySession(
            graph,
            RWR(0.5),
            options=FLoSOptions(
                tie_epsilon=1e-5, max_visited=budget, on_budget="degrade"
            ),
            cache_size=0,
        )
        row = _sweep_row(session, workload, exact_answers)
        by_budget[budget] = row
        rows.append(
            [
                "unbounded" if budget is None else budget,
                f"{row['recall']:.3f}",
                f"{row['gap']:.4g}",
                f"{row['visited']:.0f}",
                row["degraded"],
                f"{row['ms_per_query']:.2f}",
            ]
        )

    write_report(
        "budget_sweep_visited",
        format_table(
            f"anytime RWR, visited-budget sweep — recall@{K} and residual "
            f"bound gap ({len(workload)} queries, R-MAT {graph.num_nodes} "
            "nodes)",
            ["max_visited", "recall@k", "bound gap", "visited", "degraded",
             "ms/query"],
            rows,
            note="on_budget='degrade': every query returns within budget; "
            "the unbounded row is the exact baseline",
        ),
    )

    unbounded = by_budget[None]
    assert unbounded["recall"] == 1.0
    assert unbounded["gap"] == 0.0
    assert unbounded["degraded"] == 0
    smallest = by_budget[VISITED_BUDGETS[0]]
    assert smallest["degraded"] > 0
    assert smallest["gap"] > 0.0
    # Quality is monotone in budget (ties allowed): recall never drops,
    # the residual gap never grows, as the budget increases.
    ordered = [by_budget[b] for b in VISITED_BUDGETS]
    for tighter, looser in zip(ordered, ordered[1:]):
        assert looser["recall"] >= tighter["recall"] - 1e-12
        assert looser["gap"] <= tighter["gap"] + 1e-9


def test_deadline_sweep(graph, workload, exact_answers):
    """Recall@k and bound gap vs wall-clock deadline (timing-dependent)."""
    rows = []
    results = {}
    for deadline in DEADLINES:
        session = QuerySession(
            graph,
            RWR(0.5),
            options=FLoSOptions(
                tie_epsilon=1e-5,
                deadline_seconds=deadline,
                on_budget="degrade",
            ),
            cache_size=0,
        )
        row = _sweep_row(session, workload, exact_answers)
        results[deadline] = row
        rows.append(
            [
                "unbounded" if deadline is None else f"{deadline * 1e3:g} ms",
                f"{row['recall']:.3f}",
                f"{row['gap']:.4g}",
                f"{row['visited']:.0f}",
                row["degraded"],
                f"{row['ms_per_query']:.2f}",
            ]
        )

    write_report(
        "budget_sweep_deadline",
        format_table(
            f"anytime RWR, deadline sweep — recall@{K} and residual bound "
            f"gap ({len(workload)} queries, R-MAT {graph.num_nodes} nodes)",
            ["deadline", "recall@k", "bound gap", "visited", "degraded",
             "ms/query"],
            rows,
            note="wall-clock measurements; absolute numbers vary with the "
            "machine, the recall/gap trend is the signal",
        ),
    )

    unbounded = results[None]
    assert unbounded["recall"] == 1.0 and unbounded["degraded"] == 0
    # A tight deadline must actually bound per-query latency: generous
    # margin for bound-refresh overshoot, but nowhere near the exact
    # baseline's unbounded worst case.
    tightest = results[DEADLINES[0]]
    assert tightest["ms_per_query"] < 1e3
