"""Result and statistics containers returned by every search algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.audit.invariants import AuditReport


#: Valid values of :attr:`SearchStats.termination`.
TERMINATION_REASONS = (
    "exact",
    "deadline",
    "visited_budget",
)


@dataclass
class SearchStats:
    """Work counters common to all top-k algorithms.

    ``visited_nodes`` is ``|S|`` in the paper's notation — the number of
    nodes whose neighbor lists were fetched plus those discovered on the
    boundary.  The visited-node *ratio* of Figure 9 / 13 is
    ``visited_nodes / graph.num_nodes``.

    ``termination`` records why the search stopped: ``"exact"`` when the
    certificate of Algorithm 6 closed, or ``"deadline"`` /
    ``"visited_budget"`` when a soft budget
    (``FLoSOptions(on_budget="degrade")``) cut the search short.
    ``bound_gap`` is the residual certificate gap in ranking-score space
    (PHP-space, degree-weighted for RWR; hitting-time space for THT):
    how far the best rival's bound still overlaps the k-th returned
    node's bound.  It is 0 for exact results and shrinks toward 0 as an
    anytime search is given more budget.

    ``solver_iterations`` counts per-column sweeps (two warm-started
    systems per refresh, so a single refresh contributes at least 2;
    THT counts ``2L`` DP steps per refresh) and ``rows_swept`` counts
    row updates — a sweep over ``m`` visited nodes adds ``m``.

    ``global_finish`` marks a search that finished with its bound
    model's global solve (THT on a ``CSRGraph``: the ``L``-step DP over
    every node, which adds ``L`` sweeps over ``num_nodes`` rows).  Such
    a result is exact, with ``termination == "exact"`` and
    ``visited_nodes`` equal to the graph's node count.

    ``audit_checks`` counts the invariant checks the runtime audit layer
    ran for this query (0 when ``FLoSOptions.audit="off"``);
    ``audit_violations`` counts recorded failures — always 0 under
    ``audit="check"`` for a returned result, because the first violation
    raises :class:`~repro.errors.AuditError` instead of returning.
    """

    visited_nodes: int = 0
    expansions: int = 0
    solver_iterations: int = 0
    neighbor_queries: int = 0
    wall_time_seconds: float = 0.0
    termination: str = "exact"
    bound_gap: float = 0.0
    rows_swept: int = 0
    audit_checks: int = 0
    audit_violations: int = 0
    #: Sorted closed visited ball (visited ∪ one-hop boundary) as a
    #: compact read-only unsigned array (the narrowest dtype that holds
    #: the graph's node ids), recorded on versioned graphs so
    #: the serving cache can localize invalidation; ``None`` elsewhere.
    visited_ball: np.ndarray | None = None
    #: Always False: every search runs from scratch.  Kept because the
    #: ``perfbench`` harness reads it.
    warm_started: bool = False
    global_finish: bool = False

    def visited_ratio(self, num_nodes: int) -> float:
        return self.visited_nodes / num_nodes if num_nodes else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable mapping of every counter."""
        return {
            "visited_nodes": int(self.visited_nodes),
            "expansions": int(self.expansions),
            "solver_iterations": int(self.solver_iterations),
            "neighbor_queries": int(self.neighbor_queries),
            "wall_time_seconds": float(self.wall_time_seconds),
            "termination": str(self.termination),
            "bound_gap": float(self.bound_gap),
            "rows_swept": int(self.rows_swept),
            "audit_checks": int(self.audit_checks),
            "audit_violations": int(self.audit_violations),
            "global_finish": bool(self.global_finish),
        }


@dataclass
class TopKResult:
    """Outcome of a top-k proximity query.

    ``nodes`` are ordered closest first.  ``values`` hold the measure's
    native proximity (point estimates); ``lower`` / ``upper`` hold native
    value bounds when the algorithm produces them (exact local search),
    and equal ``values`` for methods that compute proximity directly.

    ``exact=False`` marks an *anytime* result: a soft budget
    (``FLoSOptions(on_budget="degrade")``) stopped the search before the
    top-k certificate closed.  The ``lower`` / ``upper`` intervals are
    still certified — every returned node's true proximity lies inside
    its interval — and ``stats.termination`` / ``stats.bound_gap`` say
    which budget fired and how far the certificate was from closing.
    """

    query: int
    k: int
    measure_name: str
    nodes: np.ndarray
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    exact: bool
    stats: SearchStats = field(default_factory=SearchStats)
    #: True when the search exhausted the query's connected component and
    #: had to pad/truncate (fewer reachable nodes than ``k``).
    exhausted_component: bool = False
    #: Audit trail recorded by the invariant layer (``audit != "off"``):
    #: per-refresh bound snapshots plus the final termination
    #: certificate, replayable offline via :mod:`repro.audit.invariants`.
    audit: "AuditReport | None" = None

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)

    def copy(self) -> "TopKResult":
        """Independent copy safe to hand to callers.

        Every mutable field a caller could plausibly write to — the
        result arrays and ``stats`` — is freshly allocated, so mutating
        the copy can never corrupt another holder of the original (the
        session result cache relies on this).  ``audit`` is shared by
        reference: it is a write-once diagnostic.
        """
        return TopKResult(
            query=self.query,
            k=self.k,
            measure_name=self.measure_name,
            nodes=self.nodes.copy(),
            values=self.values.copy(),
            lower=self.lower.copy(),
            upper=self.upper.copy(),
            exact=self.exact,
            stats=replace(self.stats),
            exhausted_component=self.exhausted_component,
            audit=self.audit,
        )

    def node_set(self) -> set[int]:
        return {int(n) for n in self.nodes}

    def to_dict(self) -> dict:
        """JSON-serializable serving response (plain python scalars)."""
        return {
            "query": int(self.query),
            "k": int(self.k),
            "measure": self.measure_name,
            "nodes": [int(n) for n in self.nodes],
            "values": [float(v) for v in self.values],
            "lower": [float(v) for v in self.lower],
            "upper": [float(v) for v in self.upper],
            "exact": bool(self.exact),
            "exhausted_component": bool(self.exhausted_component),
            "stats": self.stats.to_dict(),
        }

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        """Yield ``(node, value)`` pairs, closest first."""
        for node, value in zip(self.nodes, self.values):
            yield int(node), float(value)

    def __getitem__(self, index):
        """``result[i] -> (node, value)``; slices return a list of pairs."""
        if isinstance(index, slice):
            return [
                (int(n), float(v))
                for n, v in zip(self.nodes[index], self.values[index])
            ]
        return int(self.nodes[index]), float(self.values[index])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = ", ".join(
            f"{int(n)}:{v:.4g}" for n, v in zip(self.nodes[:5], self.values[:5])
        )
        suffix = ", ..." if len(self.nodes) > 5 else ""
        return (
            f"TopKResult({self.measure_name}, q={self.query}, k={self.k}, "
            f"exact={self.exact}, [{pairs}{suffix}])"
        )


@dataclass
class BatchSummary:
    """Aggregate statistics over one batch of queries (workload order)."""

    results: list[TopKResult]

    @property
    def total_seconds(self) -> float:
        return sum(r.stats.wall_time_seconds for r in self.results)

    @property
    def mean_visited(self) -> float:
        if not self.results:
            return 0.0
        return float(
            np.mean([r.stats.visited_nodes for r in self.results])
        )

    @property
    def all_exact(self) -> bool:
        return all(r.exact for r in self.results)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> TopKResult:
        return self.results[index]
