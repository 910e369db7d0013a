"""Differential fuzzer: FLoS engines vs the global oracles.

Each case draws a random small graph, measure, query, and ``k`` from a
deterministic per-case stream (``default_rng([seed, index])`` — case
``i`` replays identically regardless of how many cases run) and serves
the query through every configuration that shares a correctness
contract:

* one default run;
* for THT, one ``paper-schedule`` run (``adaptive_batching=False``):
  on these small graphs the default THT run mostly finishes with the
  global DP after its first round, and the paper's schedule never
  switches, so this run keeps the local THT bounds under test;
* one anytime run under a tight ``max_visited`` budget;
* one ``excluded`` run that bars a seeded half of the query's
  neighbours from the answer.

Every run executes under ``audit="record"`` so the per-iteration
invariant checkers (:mod:`repro.audit.invariants`) ride along, and the
results are then compared against two *independent* oracles — the
direct sparse solve (:func:`repro.measures.exact.solve_direct`) and the
GI power-iteration baseline
(:func:`repro.baselines.global_iteration.global_iteration_top_k`):

* audited invariants must hold (no recorded violations);
* the truth vector must sit inside the returned ``[lower, upper]``
  sandwich on every returned node;
* when the oracle shows a *clear gap* at rank ``k`` (no near-tie the
  solver's τ could legitimately resolve either way), every exact run
  must return the oracle's node set.  Both are taken within the
  query's connected component: no other node can answer, and a
  component with at most ``k`` eligible nodes is returned whole.
  Without a clear gap — curated symmetric graphs (cycles, stars,
  grids, cliques) tie *every* rival — any tie-completing subset is a
  correct answer, so only the audited invariants and the truth
  sandwich are asserted there.  The
  ``excluded`` run is held to the same rule against the direct solve
  with the excluded nodes filtered out.

A failing case is reduced with :func:`repro.audit.trace.shrink_case`
and persisted via :func:`repro.audit.trace.write_repro` for offline
replay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.baselines.global_iteration import global_iteration_top_k
from repro.core.flos import FLoSOptions
from repro.core.result import TopKResult
from repro.core.session import QuerySession
from repro.graph.generators import (
    community_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    random_tree,
    star_graph,
    watts_strogatz,
)
from repro.graph.memory import CSRGraph
from repro.measures.base import Direction
from repro.measures.exact import solve_direct
from repro.measures.resolve import resolve_measure

__all__ = ["FuzzFailure", "FuzzSummary", "run_fuzz"]

# Measure grid: name -> constructor kwargs drawn per case.
_MEASURE_GRID = [
    ("php", [{"c": 0.3}, {"c": 0.5}, {"c": 0.8}]),
    ("ei", [{"c": 0.3}, {"c": 0.5}, {"c": 0.8}]),
    ("dht", [{"c": 0.3}, {"c": 0.5}, {"c": 0.8}]),
    ("rwr", [{"c": 0.3}, {"c": 0.5}, {"c": 0.8}]),
    ("tht", [{"horizon": 3}, {"horizon": 5}, {"horizon": 10}]),
]


@dataclass
class FuzzFailure:
    """One failing case, shrunk and (optionally) persisted."""

    index: int
    config: dict
    messages: list[str]
    repro_path: str | None = None

    def __str__(self) -> str:
        head = f"case {self.index} ({self.config}):"
        return head + "".join(f"\n  - {m}" for m in self.messages)


@dataclass
class FuzzSummary:
    """Aggregate outcome of one :func:`run_fuzz` sweep."""

    cases: int
    runs: int = 0
    checks: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_graph(rng: np.random.Generator) -> tuple[CSRGraph, bool]:
    """A small graph plus whether it is a curated symmetric tie-factory."""
    kind = int(rng.integers(0, 8))
    seed = int(rng.integers(0, 2**31 - 1))
    if kind == 0:
        n = int(rng.integers(8, 65))
        m = int(rng.integers(n, 3 * n))
        return erdos_renyi(n, m, seed=seed), False
    if kind == 1:
        n = int(rng.integers(8, 49))
        nbrs = 2 * int(rng.integers(1, 3))
        return watts_strogatz(n, nbrs, 0.2, seed=seed), False
    if kind == 2:
        return random_tree(int(rng.integers(8, 49)), seed=seed), False
    if kind == 3:
        n = int(rng.integers(12, 61))
        return community_graph(n, 3, 4.0, 1.0, seed=seed), False
    if kind == 4:
        return cycle_graph(int(rng.integers(6, 33))), True
    if kind == 5:
        return star_graph(int(rng.integers(5, 33))), True
    if kind == 6:
        rows = int(rng.integers(3, 8))
        cols = int(rng.integers(3, 8))
        return grid_graph(rows, cols), True
    return complete_graph(int(rng.integers(5, 17))), True


def _rank_gap(truth: np.ndarray, skip, k: int, direction) -> float:
    """The oracle's margin between rank k and rank k+1 (0 if tied/short),
    over every node but ``skip`` (the query, plus any excluded nodes)."""
    vals = np.delete(truth, skip)
    if len(vals) <= k:
        return np.inf  # everything is returned; no rank boundary exists
    if direction is Direction.HIGHER_IS_CLOSER:
        ordered = np.sort(vals)[::-1]
        return float(ordered[k - 1] - ordered[k])
    ordered = np.sort(vals)
    return float(ordered[k] - ordered[k - 1])


def _serve(
    graph: CSRGraph,
    measure_name: str,
    measure_kwargs: dict,
    query: int,
    k: int,
    exclude: frozenset[int] = frozenset(),
    **option_overrides,
) -> TopKResult:
    options = FLoSOptions(audit="record", **option_overrides)
    session = QuerySession(
        graph, measure=measure_name, **measure_kwargs, options=options
    )
    return session.top_k(query, k, exclude=exclude)


def _check_run(
    result: TopKResult,
    truth: np.ndarray,
    slack: float,
    label: str,
) -> list[str]:
    """Audit report + truth sandwich for one served result."""
    problems: list[str] = []
    report = result.audit
    if report is None:
        problems.append(f"{label}: no audit report attached")
    elif not report.ok:
        problems += [f"{label}: {v}" for v in report.violations]
    t = truth[result.nodes]
    low_bad = np.flatnonzero(t < result.lower - slack)
    up_bad = np.flatnonzero(t > result.upper + slack)
    for i in low_bad[:3]:
        problems.append(
            f"{label}: truth {t[i]:.6g} below lower bound "
            f"{result.lower[i]:.6g} at node {int(result.nodes[i])}"
        )
    for i in up_bad[:3]:
        problems.append(
            f"{label}: truth {t[i]:.6g} above upper bound "
            f"{result.upper[i]:.6g} at node {int(result.nodes[i])}"
        )
    return problems


def _case_messages(
    graph: CSRGraph,
    measure_name: str,
    measure_kwargs: dict,
    query: int,
    k: int,
    symmetric: bool,
    counters: FuzzSummary | None = None,
) -> list[str]:
    """Run every configuration of one case; return failure messages."""
    messages: list[str] = []
    measure = resolve_measure(measure_name, **measure_kwargs)
    truth = solve_direct(measure, graph, query)
    scale = float(np.ptp(truth)) or 1.0
    # Sandwich slack: the engines certify bounds up to the solver's τ
    # truncation; scale-relative with a small absolute floor.
    slack = 1e-4 * scale + 1e-9

    # Only the query's component can answer: with fewer than k eligible
    # nodes there, the search returns all of them (exhausted component),
    # so rank gaps and oracle sets are taken within the component.
    component = graph.subgraph_nodes_within_hops(query, graph.num_nodes)
    outside = np.setdiff1d(np.arange(graph.num_nodes), component)
    gap = _rank_gap(truth, np.append(outside, query), k, measure.direction)
    clear = gap > 2.0 * slack

    oracle = global_iteration_top_k(graph, measure, query, k)
    oracle_set = set(oracle.nodes.tolist()) & set(component.tolist())

    def bump(n: int = 1) -> None:
        if counters is not None:
            counters.checks += n

    def serve_and_check(label: str, **option_overrides) -> TopKResult:
        res = _serve(
            graph, measure_name, measure_kwargs, query, k, **option_overrides
        )
        if counters is not None:
            counters.runs += 1
        messages.extend(_check_run(res, truth, slack, label))
        bump(2)
        return res

    exact_runs = {"default": {}}
    if measure_name == "tht":
        exact_runs["paper-schedule"] = {"adaptive_batching": False}
    for label, options in exact_runs.items():
        res = serve_and_check(label, **options)
        if not res.exact:
            messages.append(f"{label}: unbudgeted run came back anytime")
            bump()
        if clear and set(int(v) for v in res.nodes) != oracle_set:
            messages.append(
                f"{label}: node set {sorted(int(v) for v in res.nodes)} "
                f"!= GI oracle {sorted(oracle_set)} despite clear rank gap "
                f"{gap:.3g}"
            )
        bump()

    # Anytime run under a tight visited budget: flags + sandwich.
    budget = max(4, k + 1, graph.num_nodes // 4)
    any_res = serve_and_check(
        "anytime", max_visited=budget, on_budget="degrade"
    )
    if any_res.stats.bound_gap < 0:
        messages.append(
            f"anytime: negative bound_gap {any_res.stats.bound_gap}"
        )
    bump()

    # Excluded run: an excluded node still carries walk mass, and on the
    # boundary it still leads to unvisited rivals.
    nbrs = np.unique(graph.neighbors(query)[0])
    excluded = np.random.default_rng([query, k, graph.num_nodes]).choice(
        nbrs, size=len(nbrs) // 2, replace=False
    )
    barred = frozenset(int(v) for v in excluded)
    res = serve_and_check("excluded", exclude=barred)
    if not res.exact:
        messages.append("excluded: unbudgeted run came back anytime")
    got = set(int(v) for v in res.nodes)
    if got & barred:
        messages.append(f"excluded: returned an excluded node {sorted(got)}")
    skip = np.concatenate([outside, excluded, [query]])
    gap = _rank_gap(truth, skip, k, measure.direction)
    if gap > 2.0 * slack:
        order = measure.top_k_from_vector(truth, query, graph.num_nodes)
        want = [int(v) for v in order if v not in skip][:k]
        if got != set(want):
            messages.append(
                f"excluded: node set {sorted(got)} != filtered direct "
                f"solve {sorted(want)} despite clear rank gap {gap:.3g}"
            )
    bump(2)
    return messages


def run_fuzz(
    cases: int,
    seed: int,
    *,
    out_dir: str | Path | None = None,
    progress=None,
) -> FuzzSummary:
    """Fuzz ``cases`` random cases; shrink and persist any failure.

    ``out_dir`` receives one ``case<i>.npz`` + ``case<i>.json`` repro
    pair per failing case (omitted when ``None``).  ``progress``, when
    given, is called with ``(index, cases)`` after each case — the CLI
    uses it for a heartbeat.  Fully deterministic in ``(cases, seed)``.
    """
    summary = FuzzSummary(cases=cases)
    started = time.perf_counter()
    for index in range(cases):
        rng = np.random.default_rng([seed, index])
        graph, symmetric = _random_graph(rng)
        name, grid = _MEASURE_GRID[int(rng.integers(0, len(_MEASURE_GRID)))]
        kwargs = grid[int(rng.integers(0, len(grid)))]
        connected = np.flatnonzero(graph.degrees > 0)
        if len(connected) == 0:
            continue
        query = int(connected[rng.integers(0, len(connected))])
        k = int(rng.integers(1, min(8, graph.num_nodes - 1) + 1))

        messages = _case_messages(
            graph, name, kwargs, query, k, symmetric, summary
        )
        if messages:
            summary.failures.append(
                _shrink_and_persist(
                    index, graph, name, kwargs, query, k, symmetric,
                    messages, out_dir,
                )
            )
        if progress is not None:
            progress(index + 1, cases)
    summary.elapsed_seconds = time.perf_counter() - started
    return summary


def _shrink_and_persist(
    index: int,
    graph: CSRGraph,
    name: str,
    kwargs: dict,
    query: int,
    k: int,
    symmetric: bool,
    messages: list[str],
    out_dir: str | Path | None,
) -> FuzzFailure:
    from repro.audit.trace import shrink_case, write_repro

    config = {"measure": name, **kwargs, "query": query, "k": k}
    failure = FuzzFailure(index=index, config=config, messages=messages)

    def fails(g: CSRGraph, q: int, kk: int) -> bool:
        try:
            return bool(_case_messages(g, name, kwargs, q, kk, symmetric))
        except Exception:
            return True  # a crash is still the failure we're chasing

    try:
        small, s_query, s_k, node_map = shrink_case(graph, query, k, fails)
    except Exception:  # shrinking must never mask the original failure
        small, s_query, s_k = graph, query, k
        node_map = np.arange(graph.num_nodes, dtype=np.int64)

    if out_dir is not None:
        manifest = {
            "case_index": index,
            "measure": name,
            "measure_kwargs": kwargs,
            "query": s_query,
            "k": s_k,
            "original_query": query,
            "original_k": k,
            "node_map": node_map,
            "messages": messages,
        }
        path = write_repro(
            out_dir, small, manifest, stem=f"case{index}"
        )
        failure.repro_path = str(path)
    return failure
