"""Opt-in per-iteration audit recorder and the failure shrinker.

:class:`AuditRecorder` is the runtime half of the audit layer.  The
FLoS driver (:class:`~repro.core.flos.FLoSDriver`) constructs one when
``FLoSOptions.audit != "off"`` and feeds it from its consumer of the
round stream:

* :meth:`AuditRecorder.observe` reads every
  :class:`~repro.core.flos.Round` — bound ordering of the raw,
  pre-clamp bounds, monotone bound evolution against the previous
  snapshot, the :meth:`~repro.core.localgraph.LocalView.check_invariants`
  state invariants, then the bound model's convergence claim;
* :meth:`AuditRecorder.bracket` at a global finish — every visited
  node's certified local bounds must contain its globally solved value;
* :meth:`AuditRecorder.seal` at the finish — replays the termination
  decision from the final bounds
  (:func:`~repro.audit.invariants.check_certificate`).

Under ``audit="check"`` any violation raises
:class:`~repro.errors.AuditError` immediately, turning a silent
wrong-answer bug into a loud failure at the iteration that introduced
it.  Under ``audit="record"`` violations and per-refresh snapshots are
accumulated into an :class:`~repro.audit.invariants.AuditReport`
attached to the result, which offline tooling (the fuzzer) replays
against a global oracle.

The second half of this module is the fuzzer's failure minimizer:
:func:`shrink_case` reduces a failing ``(graph, query, k)`` to a
locally minimal one by shrinking ``k`` and cutting the graph to BFS
balls around the query, and :func:`write_repro` persists the shrunken
case (graph npz + JSON manifest) for offline replay.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.audit.invariants import (
    AuditReport,
    BoundSnapshot,
    CertificateRecord,
    InvariantViolation,
    check_bound_order,
    check_certificate,
    check_monotone_evolution,
    check_sandwich,
)
from repro.errors import AuditError
from repro.graph.memory import CSRGraph

__all__ = ["AuditRecorder", "shrink_case", "write_repro"]


class AuditRecorder:
    """Runtime invariant checker fed the rounds of one engine run.

    Parameters
    ----------
    mode:
        ``"check"`` raises :class:`~repro.errors.AuditError` on the
        first violation; ``"record"`` accumulates violations and the
        full per-refresh snapshot history for offline replay.
    monotone_slack:
        Allowed bound regression between refreshes.  The bound models
        pass ``2 * tau / (1 - decay)`` (the tau-truncation residual of
        two consecutive solves, by the contraction argument) for PHP
        space and a tiny float-noise allowance for the exact
        finite-horizon DP of THT.
    order_slack:
        Allowed ``lower - upper`` inversion within one refresh; same
        derivation, checked on the round's raw bounds, which the
        driver's cosmetic ``min(lb, ub)`` clamp leaves untouched.
    context:
        Human-readable run label used in raised error messages.
    """

    def __init__(
        self,
        *,
        mode: str,
        monotone_slack: float,
        order_slack: float,
        context: str = "",
    ):
        if mode not in ("record", "check"):
            raise ValueError(f"audit mode must be 'record' or 'check', got {mode!r}")
        self.mode = mode
        self.monotone_slack = float(monotone_slack)
        self.order_slack = float(order_slack)
        self.context = context
        self.checks = 0
        self.violations: list[InvariantViolation] = []
        self._snapshots: list[BoundSnapshot] = []
        self._last: BoundSnapshot | None = None

    # ------------------------------------------------------------------

    def observe(self, step, view) -> None:
        """Audit one :class:`~repro.core.flos.Round` of the driver.

        Reads the round's raw, pre-clamp bounds: bound ordering,
        monotone evolution against the previous snapshot and the
        :meth:`~repro.core.localgraph.LocalView.check_invariants` state
        invariants first, then the bound model's convergence claim.
        """
        gids = view.global_ids()
        snap = BoundSnapshot(
            iteration=1 if self._last is None else self._last.iteration + 1,
            lower=step.lower.copy(),
            upper=step.upper.copy(),
            dummy_value=float(step.dummy_value),
            size=len(step.lower),
            nodes=gids.copy(),
            expanded=gids[step.expanded],
        )
        found: list[InvariantViolation] = []

        self.checks += 1
        found += check_bound_order(
            snap.lower,
            snap.upper,
            slack=self.order_slack,
            iteration=snap.iteration,
        )
        if self._last is not None:
            self.checks += 1
            found += check_monotone_evolution(
                self._last, snap, slack=self.monotone_slack
            )
        self.checks += 1
        found += [
            InvariantViolation("local_view", msg, iteration=snap.iteration)
            for msg in view.check_invariants()
        ]

        self._last = snap
        if self.mode == "record":
            self._snapshots.append(snap)
        self._handle(found)
        if step.residuals is None:
            return
        self.checks += 1
        *residuals, tol = step.residuals()
        self._handle(
            [
                InvariantViolation(
                    "solver",
                    f"{name}-bound system residual {value:.3g} exceeds the "
                    f"convergence tolerance {tol:.3g} — the solver reported "
                    "convergence it did not reach",
                    iteration=snap.iteration,
                )
                for name, value in zip(("lower", "upper"), residuals)
                if value > tol
            ]
        )

    def bracket(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        values: np.ndarray,
        nodes: np.ndarray,
    ) -> None:
        """Audit a switch to the global finish: each visited node's
        certified ``[lower, upper]`` must contain its global ``value``
        (``nodes``: global ids), within the round-off slack."""
        self.checks += 1
        self._handle(
            check_sandwich(
                lower,
                upper,
                values,
                slack=self.order_slack,
                iteration=self._last.iteration,
                nodes=nodes,
                check="bracket",
            )
        )

    def seal(self, cert: CertificateRecord) -> AuditReport:
        """Audit the termination decision (once, at the finish) and
        return the audit trail attached to the result."""
        self.checks += 2  # flag consistency + certificate replay
        self._handle(check_certificate(cert))
        return AuditReport(
            mode=self.mode,
            checks=self.checks,
            violations=list(self.violations),
            # Every run observes at least one round before its finish.
            snapshots=(
                self._snapshots if self.mode == "record" else [self._last]
            ),
            certificate=cert,
        )

    # ------------------------------------------------------------------

    def _handle(self, found: list[InvariantViolation]) -> None:
        if not found:
            return
        self.violations.extend(found)
        if self.mode == "check":
            raise AuditError(found, context=self.context)


# ----------------------------------------------------------------------
# Failure minimization (used by the fuzzer)
# ----------------------------------------------------------------------


def shrink_case(
    graph: CSRGraph,
    query: int,
    k: int,
    fails,
) -> tuple[CSRGraph, int, int, np.ndarray]:
    """Reduce a failing ``(graph, query, k)`` to a locally minimal repro.

    ``fails(graph, query, k) -> bool`` must deterministically report
    whether the case still exhibits the failure.  Two reductions are
    applied greedily:

    1. shrink ``k`` to the smallest value that still fails;
    2. cut the graph to the smallest BFS ball around the query (by hop
       radius) on which the failure reproduces, relabelling node ids to
       the ball.

    Returns ``(graph, query, k, node_map)`` where ``node_map[i]`` is the
    original global id of shrunken node ``i`` (the identity when no cut
    helped).  The input case is assumed failing; the returned case is
    guaranteed failing under ``fails``.
    """
    for smaller in range(1, k):
        if fails(graph, query, smaller):
            k = smaller
            break

    node_map = np.arange(graph.num_nodes, dtype=np.int64)
    for hops in range(1, 17):
        ball = np.sort(graph.subgraph_nodes_within_hops(query, hops))
        if len(ball) >= graph.num_nodes:
            break
        sub = CSRGraph.from_scipy(
            graph.to_scipy()[np.ix_(ball, ball)]
        )
        sub_query = int(np.searchsorted(ball, query))
        if fails(sub, sub_query, k):
            return sub, sub_query, k, ball
    return graph, query, k, node_map


def write_repro(
    directory: str | Path,
    graph: CSRGraph,
    manifest: dict,
    *,
    stem: str = "repro",
) -> Path:
    """Persist a minimized failing case: ``<stem>.npz`` + ``<stem>.json``.

    The manifest is written as JSON next to the graph file with numpy
    scalars/arrays coerced to plain python, plus a ``graph_file`` key
    pointing at the npz.  Returns the manifest path.
    """
    from repro.graph.io import save_npz

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    graph_path = directory / f"{stem}.npz"
    save_npz(graph, graph_path)

    def _plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, (np.integer, np.floating, np.bool_)):
            return value.item()
        if isinstance(value, dict):
            return {key: _plain(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [_plain(v) for v in value]
        return value

    manifest = dict(manifest)
    manifest["graph_file"] = graph_path.name
    manifest_path = directory / f"{stem}.json"
    manifest_path.write_text(json.dumps(_plain(manifest), indent=2))
    return manifest_path
