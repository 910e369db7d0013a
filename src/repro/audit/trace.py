"""Opt-in per-iteration audit recorder and the failure shrinker.

:class:`AuditRecorder` is the runtime half of the audit layer.  The
FLoS driver (:class:`~repro.core.flos.FLoSDriver`) constructs one when
``FLoSOptions.audit != "off"``, and it is called:

* :meth:`AuditRecorder.on_refresh` after every bound refresh, from the
  driver's one refresh epilogue — checks bound ordering, monotone bound
  evolution against the previous snapshot, and the
  :meth:`~repro.core.localgraph.LocalView.check_invariants` state
  invariants;
* :meth:`AuditRecorder.on_solver_residuals` from the PHP-space bound
  model's refresh, just before the ``on_refresh`` of the same refresh,
  which checks it;
* :meth:`AuditRecorder.on_certificate` at finalize — replays the
  termination decision from the recorded final bounds
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
)
from repro.errors import AuditError
from repro.graph.memory import CSRGraph

__all__ = ["AuditRecorder", "shrink_case", "write_repro"]


class AuditRecorder:
    """Runtime invariant checker hooked into one engine run.

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
        derivation, checked *before* the driver's cosmetic
        ``min(lb, ub)`` clamp would hide it — which is why the driver
        invokes :meth:`on_refresh` pre-clamp.
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
        self._certificate: CertificateRecord | None = None
        self._refreshes = 0
        self._residuals: tuple[float, float, float] | None = None

    # ------------------------------------------------------------------

    def on_refresh(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        dummy_value: float,
        view,
        expanded: np.ndarray,
    ) -> None:
        """Audit one bound refresh (called by the driver pre-clamp).

        ``expanded`` holds the local ids this round expanded.
        """
        self._refreshes += 1
        gids = view.global_ids()
        snap = BoundSnapshot(
            iteration=self._refreshes,
            lower=lower.copy(),
            upper=upper.copy(),
            dummy_value=float(dummy_value),
            size=len(lower),
            nodes=gids.copy(),
            expanded=gids[expanded],
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
        if self._residuals is not None:
            residuals, self._residuals = self._residuals, None
            self._check_residuals(*residuals)

    def on_solver_residuals(
        self, lower_res: float, upper_res: float, tol: float
    ) -> None:
        """Hold the solver's convergence claim for the refresh in flight.

        The bound model passes fixed-point residual inf-norms measured by
        an independent operator application
        (:meth:`~repro.core.kernels.DualBoundKernel.residual_norms`)
        before its raw bounds reach the driver; the next
        :meth:`on_refresh` checks them after that refresh's own
        invariants.
        """
        self._residuals = (lower_res, upper_res, tol)

    def _check_residuals(
        self, lower_res: float, upper_res: float, tol: float
    ) -> None:
        self.checks += 1
        found = [
            InvariantViolation(
                "solver",
                f"{name}-bound system residual {value:.3g} exceeds the "
                f"convergence tolerance {tol:.3g} — the solver reported "
                "convergence it did not reach",
                iteration=self._refreshes,
            )
            for name, value in (("lower", lower_res), ("upper", upper_res))
            if value > tol
        ]
        self._handle(found)

    def on_certificate(self, cert: CertificateRecord) -> None:
        """Audit the termination decision (called once at finalize)."""
        self._certificate = cert
        self.checks += 2  # flag consistency + certificate replay
        self._handle(check_certificate(cert))

    def report(self) -> AuditReport:
        """The accumulated audit trail (attached to the TopKResult)."""
        snapshots = (
            self._snapshots
            if self.mode == "record"
            else ([self._last] if self._last is not None else [])
        )
        return AuditReport(
            mode=self.mode,
            checks=self.checks,
            violations=list(self.violations),
            snapshots=snapshots,
            certificate=self._certificate,
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
