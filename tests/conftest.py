"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    paper_example_graph,
    path_graph,
    random_tree,
    rmat,
    star_graph,
)
from repro.measures import DHT, EI, PHP, RWR, THT, solve_direct
from repro.measures.base import Measure


@pytest.fixture
def example_graph():
    """The paper's 8-node Figure 1 graph."""
    return paper_example_graph()


@pytest.fixture
def er_graph():
    """Medium Erdős–Rényi graph, connected with high probability."""
    return erdos_renyi(200, 600, seed=7)


@pytest.fixture
def rmat_graph():
    return rmat(9, 2000, seed=13)


@pytest.fixture(params=["er", "rmat", "tree", "grid", "star", "path"])
def any_graph(request):
    """A spread of graph shapes for cross-cutting invariants."""
    return {
        "er": lambda: erdos_renyi(120, 360, seed=3),
        "rmat": lambda: rmat(7, 500, seed=4),
        "tree": lambda: random_tree(60, seed=5),
        "grid": lambda: grid_graph(7, 8),
        "star": lambda: star_graph(15),
        "path": lambda: path_graph(30),
    }[request.param]()


ALL_MEASURES: list[Measure] = [PHP(0.5), EI(0.5), DHT(0.5), RWR(0.5), THT(10)]


@pytest.fixture(params=range(len(ALL_MEASURES)), ids=lambda i: ALL_MEASURES[i].name)
def measure(request):
    return ALL_MEASURES[request.param]


def schedule_options(monkeypatch, schedule: dict) -> dict:
    """``FLoSOptions`` fields of an expansion schedule.

    Upper-case keys name schedule constants of :mod:`repro.core.flos`
    (``EXPAND_BATCH``, ``GROWTH_DIVISOR``, ``MIN_REACH``,
    ``MAX_BATCH``) and are set through ``monkeypatch``; the remaining
    keys are returned.
    """
    from repro.core import flos

    options = {}
    for name, value in schedule.items():
        if name.isupper():
            monkeypatch.setattr(flos, name, value)
        else:
            options[name] = value
    return options


def expire_deadline_after_first_round(monkeypatch, deadline: float = 1.0):
    """Drive the engine's deadline check with a clock that jumps.

    Replaces the clock :mod:`repro.core.flos` reads with one whose first
    reading (the start of one engine run) is 0 and every later reading
    is ``10 * deadline``, so a run with ``deadline_seconds=deadline``
    expires at its first check, right after round 1.  Returns the
    ``FLoSOptions`` fields that arm the deadline.
    """
    import types

    from repro.core import flos

    readings = iter([0.0])

    def monotonic() -> float:
        return next(readings, 10.0 * deadline)

    clock = types.SimpleNamespace(monotonic=monotonic)
    monkeypatch.setattr(flos, "time", clock)
    return {"deadline_seconds": deadline}


def assert_topk_matches_oracle(graph, measure, result, q, k, *, atol=1e-6):
    """The returned set must be *a* valid top-k under the exact values.

    Comparison is by value (tie tolerant): the sorted exact values of the
    returned nodes must equal the sorted exact values of the brute-force
    top-k, and each returned node's exact value must lie within the
    reported bounds.
    """
    exact = solve_direct(measure, graph, q)
    oracle = measure.top_k_from_vector(exact, q, k)
    assert len(result.nodes) == len(oracle), (
        f"expected {len(oracle)} nodes, got {len(result.nodes)}"
    )
    got = np.sort(exact[result.nodes])
    want = np.sort(exact[oracle])
    np.testing.assert_allclose(got, want, atol=atol)
    assert q not in set(map(int, result.nodes))
    for i, node in enumerate(result.nodes):
        assert result.lower[i] - 1e-4 <= exact[node] <= result.upper[i] + 1e-4, (
            f"bounds [{result.lower[i]}, {result.upper[i]}] do not contain "
            f"exact value {exact[node]} of node {node}"
        )
    return exact
