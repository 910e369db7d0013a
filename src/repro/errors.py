"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch one
type at an API boundary without swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphError(ReproError):
    """A graph is structurally invalid or an operation on it is illegal."""


class NodeNotFoundError(GraphError):
    """A node id is outside the graph's node range."""

    def __init__(self, node: int, num_nodes: int):
        super().__init__(
            f"node {node} does not exist (graph has nodes 0..{num_nodes - 1})"
        )
        self.node = node
        self.num_nodes = num_nodes


class DiskFormatError(GraphError):
    """A disk-resident graph file is corrupt or has the wrong format."""


class MeasureError(ReproError):
    """A proximity measure was configured with invalid parameters."""


class SearchError(ReproError):
    """A top-k search could not be completed."""


class ConfigurationError(SearchError):
    """Search options are invalid, detected up front at session creation.

    Subclasses :class:`SearchError` so call sites that guarded the old
    deep-in-the-engine failures keep working unchanged.
    """


class ConvergenceError(SearchError):
    """An iterative solver failed to converge within its iteration budget."""

    def __init__(self, iterations: int, residual: float, tol: float):
        super().__init__(
            f"iterative solver did not converge after {iterations} iterations "
            f"(residual {residual:.3e} > tol {tol:.3e})"
        )
        self.iterations = iterations
        self.residual = residual
        self.tol = tol


class TransitionStoreError(SearchError):
    """A visited subgraph's transition store is inconsistent.

    Raised before a compiled sparse product would read the store out of
    bounds: its row pointers do not match the visited-set size or its
    entry arrays, or an input vector has the wrong length.  It always
    means a restoration bug, never bad user input.
    """


class AuditError(SearchError):
    """A runtime invariant audit detected a certification violation.

    Raised under ``FLoSOptions(audit="check")`` the moment a recorded
    invariant (bound sandwich ordering, monotone bound evolution, solver
    residual, local-view state consistency, termination-certificate
    replay) fails — the exactness claim of Theorems 1–6 no longer holds
    for this run.  ``violations`` carries the structured
    :class:`~repro.audit.invariants.InvariantViolation` records.
    """

    def __init__(self, violations, *, context: str = ""):
        self.violations = list(violations)
        head = "; ".join(str(v) for v in self.violations[:3])
        more = (
            f" (+{len(self.violations) - 3} more)"
            if len(self.violations) > 3
            else ""
        )
        prefix = f"{context}: " if context else ""
        super().__init__(
            f"{prefix}invariant audit failed with "
            f"{len(self.violations)} violation(s): {head}{more}"
        )


class BudgetExceededError(SearchError):
    """A search exceeded its visited-node budget before it could terminate.

    Raised only under ``FLoSOptions(on_budget="raise")`` (the default);
    with ``on_budget="degrade"`` the search returns an anytime
    :class:`~repro.core.result.TopKResult` instead (see
    ``docs/serving.md``).
    """

    def __init__(self, visited: int, budget: int):
        super().__init__(
            f"search visited {visited} nodes, exceeding its budget of {budget} "
            "before the termination criterion was met"
        )
        self.visited = visited
        self.budget = budget


class DeadlineExceededError(SearchError):
    """A search ran past its wall-clock deadline before it could terminate.

    Raised only under ``FLoSOptions(on_budget="raise")``; with
    ``on_budget="degrade"`` the search returns an anytime result instead.
    """

    def __init__(self, elapsed: float, deadline: float):
        super().__init__(
            f"search ran for {elapsed:.4f}s, exceeding its deadline of "
            f"{deadline:.4f}s before the termination criterion was met"
        )
        self.elapsed = elapsed
        self.deadline = deadline


class AdmissionRejectedError(SearchError):
    """The serving dispatcher rejected a request before dispatching it.

    Raised by :class:`repro.serve.ShardedServer` when a request's
    deadline has already passed, or cannot plausibly be met given the
    target worker's queue depth and recent service times, and the
    request's ``on_budget`` policy is ``"raise"``.  Under
    ``on_budget="degrade"`` the request is dispatched anyway and the
    anytime machinery returns the best certified answer the remaining
    budget buys.
    """

    def __init__(self, deadline: float, estimate: float):
        if deadline <= 0:
            msg = (
                f"request deadline of {deadline:.4f}s has already passed"
            )
        else:
            msg = (
                f"request deadline of {deadline:.4f}s cannot be met "
                f"(estimated completion in {estimate:.4f}s)"
            )
        super().__init__(
            msg + "; rejected before dispatch (on_budget='degrade' would "
            "degrade instead of rejecting)"
        )
        self.deadline = deadline
        self.estimate = estimate


class WorkerCrashError(ReproError):
    """A serving worker process died and the request could not be saved.

    The dispatcher retries a request exactly once on a respawned
    worker; this error means the retry's worker died too (or a worker
    failed during startup), so the request is abandoned rather than
    retried forever.
    """

