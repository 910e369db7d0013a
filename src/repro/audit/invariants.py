"""The invariant catalogue: pure checkers over recorded engine state.

Every function here is side-effect free — it takes recorded snapshots
(arrays copied out of an engine at well-defined points) and returns a
list of :class:`InvariantViolation` records, empty when the invariant
holds.  The :class:`~repro.audit.trace.AuditRecorder` decides what to do
with violations (raise immediately under ``audit="check"``, accumulate
under ``audit="record"``); the fuzzer replays recorded reports offline
against the global-iteration oracle.

Invariant catalogue (theorem cross-references; see
``docs/correctness.md`` for the prose version):

=====================  =============================================
checker                paper grounding
=====================  =============================================
check_bound_order      Thms 3 and 5: both bound systems bracket one
                       fixed point, so ``lower <= upper`` up to
                       solver-truncation noise.
check_monotone         Thm 4 (restoration only tightens) plus the
                       monotone dummy value of Alg. 5 line 7: across
                       expansions, lower bounds never decrease and
                       upper bounds never increase on nodes already
                       visited.
check_sandwich         Thms 3 and 5 against ground truth: the exact
                       (globally computed) proximity of every visited
                       node lies inside its ``[lower, upper]``.  The
                       same check, named ``"bracket"``, runs at a
                       global finish against the bound model's own
                       global solve.
check_certificate      Alg. 6 / Alg. 2 stopping condition replayed
                       from the recorded final bounds, including the
                       model's cap on unvisited nodes (Corollary 1,
                       the Sec. 5.6 RWR guard, Lemma 7 for THT).
check_flags            API contract: ``exact`` iff the certificate
                       closed (``termination == "exact"``), with a
                       zero residual ``bound_gap``; anytime results
                       name the budget that fired and carry a
                       non-negative gap; the reason is one of
                       ``result.TERMINATION_REASONS``.
=====================  =============================================

Tolerances.  The engines stop their inner solvers on a ``tau`` update
norm, so recorded bounds sit within ``~tau / (1 - decay)`` of their
system's true fixed point (contraction argument); monotone-evolution
and bound-order checks therefore allow a slack of twice that, while
certificate replay uses the *recorded floats themselves* and needs no
slack at all — the replay re-evaluates exactly the comparison the
engine claims to have made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.result import TERMINATION_REASONS

__all__ = [
    "AuditReport",
    "BoundSnapshot",
    "CertificateRecord",
    "InvariantViolation",
    "check_bound_order",
    "check_certificate",
    "check_flags",
    "check_monotone_evolution",
    "check_sandwich",
]


@dataclass(frozen=True)
class InvariantViolation:
    """One failed invariant check, locatable for debugging.

    ``check`` names the checker (``"bound_order"``, ``"monotone"``,
    ``"sandwich"``, ``"bracket"``, ``"certificate"``, ``"flags"``,
    ``"local_view"``, ``"differential"``); ``node`` is a *local* id
    inside the engine's visited set for the runtime checks, a global id
    for the fuzzer's offline checks, the bracket check and the
    certificate of a global finish, or ``None`` when the violation is
    not per-node.
    """

    check: str
    message: str
    iteration: int | None = None
    node: int | None = None

    def __str__(self) -> str:
        where = []
        if self.iteration is not None:
            where.append(f"iter {self.iteration}")
        if self.node is not None:
            where.append(f"node {self.node}")
        suffix = f" [{', '.join(where)}]" if where else ""
        return f"{self.check}: {self.message}{suffix}"


@dataclass
class BoundSnapshot:
    """Bounds over the visited set after one refresh (arrays copied).

    ``lower`` / ``upper`` are indexed by local id and taken before the
    driver's ``min(lower, upper)`` clamp; ``iteration`` counts refreshes
    from 1.  ``nodes`` maps local to global ids and ``expanded`` holds
    the global ids this round expanded.  The nodes first visited in
    round ``t`` are ``nodes[prev.size:size]``, where ``prev.size`` is 1
    (the query alone) before the first snapshot.
    """

    iteration: int
    lower: np.ndarray
    upper: np.ndarray
    dummy_value: float
    size: int
    nodes: np.ndarray
    expanded: np.ndarray


@dataclass
class CertificateRecord:
    """Everything needed to replay the termination decision offline.

    All arrays are indexed by *local* id (by global id after a global
    finish, whose frame is every node) and copied at finalize time.
    ``lb_score`` / ``ub_score`` are the bound model's ranking scores,
    oriented so that larger means closer: PHP-space bounds times the
    ranking weight ``omega`` (the weighted degree for RWR, 1 otherwise),
    or negated hitting-time bounds for THT (``-upper`` / ``-lower``).
    ``unvisited_cap`` is the model's cap on the ranking score of every
    unvisited node (Corollary 1, Sec. 5.6 or Lemma 7), ``None`` when
    the boundary is empty.
    """

    k: int
    tie_epsilon: float
    exact: bool
    exhausted: bool
    termination: str
    bound_gap: float
    top: np.ndarray
    lb_score: np.ndarray
    ub_score: np.ndarray
    eligible: np.ndarray
    settled: np.ndarray
    boundary: np.ndarray
    unvisited_cap: float | None = None


@dataclass
class AuditReport:
    """Audit trail attached to a result when ``audit != "off"``.

    ``checks`` counts individual invariant evaluations; ``violations``
    is empty for any result returned under ``audit="check"`` (the first
    violation raises :class:`~repro.errors.AuditError` instead).
    ``snapshots`` holds the per-refresh bound history and ``certificate``
    the final termination record — the raw material the fuzzer replays
    against the global-iteration oracle.
    """

    mode: str
    checks: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)
    snapshots: list[BoundSnapshot] = field(default_factory=list)
    certificate: CertificateRecord | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# Checkers
# ----------------------------------------------------------------------


def check_bound_order(
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    slack: float,
    iteration: int | None = None,
) -> list[InvariantViolation]:
    """``lower <= upper`` everywhere, up to solver-truncation slack.

    Theorems 3 and 5 put the true proximity between the two bounds, so
    an inversion beyond the ``tau``-truncation noise means at least one
    bound system was solved or assembled wrong.
    """
    bad = np.flatnonzero(lower > upper + slack)
    if len(bad) == 0:
        return []
    i = int(bad[np.argmax(lower[bad] - upper[bad])])
    return [
        InvariantViolation(
            "bound_order",
            f"lower {float(lower[i]):.9g} exceeds upper "
            f"{float(upper[i]):.9g} by more than slack {slack:.3g} "
            f"({len(bad)} node(s) inverted)",
            iteration=iteration,
            node=i,
        )
    ]


def check_monotone_evolution(
    prev: BoundSnapshot,
    cur: BoundSnapshot,
    *,
    slack: float,
) -> list[InvariantViolation]:
    """Bounds only tighten as the visited set grows (Theorem 4).

    On the nodes common to both snapshots (the previous visited set is a
    prefix of the current one — local ids are append-only), the lower
    bound must not decrease and the upper bound must not increase by
    more than the solver-truncation slack.  The dummy value of
    Algorithm 5 line 7 must be non-increasing outright (it is an exact
    running minimum, no solver in the loop).
    """
    out: list[InvariantViolation] = []
    m = min(prev.size, cur.size)
    drop = prev.lower[:m] - cur.lower[:m]
    bad = np.flatnonzero(drop > slack)
    if len(bad):
        i = int(bad[np.argmax(drop[bad])])
        out.append(
            InvariantViolation(
                "monotone",
                f"lower bound fell from {float(prev.lower[i]):.9g} to "
                f"{float(cur.lower[i]):.9g} (slack {slack:.3g}, "
                f"{len(bad)} node(s) regressed)",
                iteration=cur.iteration,
                node=i,
            )
        )
    rise = cur.upper[:m] - prev.upper[:m]
    bad = np.flatnonzero(rise > slack)
    if len(bad):
        i = int(bad[np.argmax(rise[bad])])
        out.append(
            InvariantViolation(
                "monotone",
                f"upper bound rose from {float(prev.upper[i]):.9g} to "
                f"{float(cur.upper[i]):.9g} (slack {slack:.3g}, "
                f"{len(bad)} node(s) regressed)",
                iteration=cur.iteration,
                node=i,
            )
        )
    if cur.dummy_value > prev.dummy_value + 1e-15:
        out.append(
            InvariantViolation(
                "monotone",
                f"dummy value rose from {prev.dummy_value:.9g} to "
                f"{cur.dummy_value:.9g}",
                iteration=cur.iteration,
            )
        )
    return out


def check_sandwich(
    lower: np.ndarray,
    upper: np.ndarray,
    truth: np.ndarray,
    *,
    slack: float,
    iteration: int | None = None,
    nodes: np.ndarray | None = None,
    check: str = "sandwich",
) -> list[InvariantViolation]:
    """``lower - slack <= truth <= upper + slack`` per node (Thms 3/5).

    ``truth`` holds the exact values (global oracle) aligned with the
    bound arrays; ``nodes`` optionally maps positions to global ids for
    reporting; ``check`` names the violations.
    """
    out: list[InvariantViolation] = []

    def _gid(pos: int) -> int:
        return int(nodes[pos]) if nodes is not None else pos

    low_bad = np.flatnonzero(truth < lower - slack)
    if len(low_bad):
        i = int(low_bad[np.argmax(lower[low_bad] - truth[low_bad])])
        out.append(
            InvariantViolation(
                check,
                f"exact value {float(truth[i]):.9g} below lower bound "
                f"{float(lower[i]):.9g} (slack {slack:.3g}, "
                f"{len(low_bad)} node(s))",
                iteration=iteration,
                node=_gid(i),
            )
        )
    up_bad = np.flatnonzero(truth > upper + slack)
    if len(up_bad):
        i = int(up_bad[np.argmax(truth[up_bad] - upper[up_bad])])
        out.append(
            InvariantViolation(
                check,
                f"exact value {float(truth[i]):.9g} above upper bound "
                f"{float(upper[i]):.9g} (slack {slack:.3g}, "
                f"{len(up_bad)} node(s))",
                iteration=iteration,
                node=_gid(i),
            )
        )
    return out


def check_flags(cert: CertificateRecord) -> list[InvariantViolation]:
    """Exact/anytime flag consistency (the API contract of TopKResult)."""
    out: list[InvariantViolation] = []
    if cert.termination not in TERMINATION_REASONS:
        out.append(
            InvariantViolation(
                "flags", f"unknown termination reason {cert.termination!r}"
            )
        )
    if cert.exact and cert.termination != "exact":
        out.append(
            InvariantViolation(
                "flags",
                f"exact result carries termination reason "
                f"{cert.termination!r}",
            )
        )
    if cert.exact and cert.bound_gap != 0.0:
        out.append(
            InvariantViolation(
                "flags",
                f"exact result carries non-zero bound_gap "
                f"{cert.bound_gap:.3g}",
            )
        )
    if not cert.exact:
        if cert.termination == "exact":
            out.append(
                InvariantViolation(
                    "flags", "anytime result claims termination 'exact'"
                )
            )
        if cert.bound_gap < 0.0:
            out.append(
                InvariantViolation(
                    "flags", f"negative bound_gap {cert.bound_gap:.3g}"
                )
            )
        if cert.exhausted:
            out.append(
                InvariantViolation(
                    "flags",
                    "anytime result claims the component was exhausted",
                )
            )
    return out


def check_certificate(cert: CertificateRecord) -> list[InvariantViolation]:
    """Replay the Algorithm 2 stopping condition from the final bounds.

    For an exact, non-exhausted result the engine claims: every returned
    node is settled and eligible, and the k-th ranking lower score (plus
    ``tie_epsilon``) dominates both the ranking upper score of every
    other eligible visited node (Alg. 6) and the recorded cap on every
    unvisited node.  The cap is needed: a settled top-k puts every
    *eligible* boundary node among the rivals, but an excluded boundary
    node is no rival and still leads to unvisited ones.  The scores are
    oriented (larger is closer), so one rule serves every measure.
    Exhausted results instead claim an empty boundary — the bounds
    collapsed onto the exact component solution.  An anytime result
    claims its ``bound_gap``: ``max(0, best rival upper score - k-th
    lower score, unvisited cap - k-th lower score)``, recomputed here.
    The comparisons reuse the engine's own recorded floats, so no
    numerical slack is involved: this checks the *logic*, not the
    arithmetic.
    """
    out = check_flags(cert)
    top = cert.top
    m = len(cert.lb_score)

    in_range = (top >= 0) & (top < m)
    if not in_range.all():
        out.append(
            InvariantViolation(
                "certificate",
                f"top-k contains out-of-range local ids {top[~in_range]}",
            )
        )
        return out
    if len(np.unique(top)) != len(top):
        out.append(
            InvariantViolation("certificate", "top-k contains duplicates")
        )
    if not cert.eligible[top].all():
        bad = top[~cert.eligible[top]]
        out.append(
            InvariantViolation(
                "certificate",
                "top-k contains the query or an excluded node",
                node=int(bad[0]),
            )
        )

    if cert.exhausted:
        if cert.boundary.any():
            out.append(
                InvariantViolation(
                    "certificate",
                    "result claims component exhaustion but the boundary "
                    f"is non-empty ({int(cert.boundary.sum())} node(s))",
                )
            )
        expected = min(cert.k, int(cert.eligible.sum()))
        if len(top) != expected:
            out.append(
                InvariantViolation(
                    "certificate",
                    f"exhausted result returned {len(top)} nodes, "
                    f"component holds {expected}",
                )
            )
        return out

    rivals = cert.eligible.copy()
    rivals[top] = False
    rest = np.flatnonzero(rivals)

    if not cert.exact:
        # Anytime: no termination claim, but the recorded gap must be the
        # one the engine's certificate gives for these floats.
        gap = 0.0
        if len(top):
            kth = float(cert.lb_score[top].min())
            over = [float(cert.ub_score[rest].max())] if len(rest) else []
            if cert.unvisited_cap is not None:
                over.append(cert.unvisited_cap)
            gap = max([0.0] + [v - kth for v in over])
        if cert.bound_gap != gap:
            out.append(
                InvariantViolation(
                    "certificate",
                    f"recorded bound_gap {cert.bound_gap:.9g} differs from "
                    f"the replayed gap {gap:.9g}",
                )
            )
        return out

    if len(top) != cert.k:
        out.append(
            InvariantViolation(
                "certificate",
                f"exact non-exhausted result returned {len(top)} nodes "
                f"instead of k={cert.k}",
            )
        )
        return out
    if not cert.settled[top].all():
        bad = top[~cert.settled[top]]
        out.append(
            InvariantViolation(
                "certificate",
                "certified top-k contains an unsettled node (Corollary 1 "
                "requires all neighbors visited)",
                node=int(bad[0]),
            )
        )

    if not cert.boundary.any():
        # Terminated by component exhaustion (with >= k eligible nodes,
        # so ``exhausted`` stayed false): the dummy mass is zero, both
        # bound systems converged onto the component solution, and the
        # engine ranked by its converged lower score *without* a
        # rival-domination claim — the bounds still differ by the
        # solver's tau residual, so replaying the domination rule here
        # would be checking a claim never made.  Replay the selection
        # instead: no rival may strictly beat a returned node on the
        # ranking score the engine sorted by.
        if len(rest):
            worst_top = float(cert.lb_score[top].min())
            best_rival = float(cert.lb_score[rest].max())
            if best_rival > worst_top + cert.tie_epsilon:
                out.append(
                    InvariantViolation(
                        "certificate",
                        "exhausted-component ranking is wrong: rival lower "
                        f"bound {best_rival:.9g} beats returned lower bound "
                        f"{worst_top:.9g}",
                        node=int(rest[np.argmax(cert.lb_score[rest])]),
                    )
                )
        return out

    min_top = float(cert.lb_score[top].min()) + cert.tie_epsilon
    if len(rest):
        worst_rival = float(cert.ub_score[rest].max())
        if worst_rival > min_top:
            out.append(
                InvariantViolation(
                    "certificate",
                    f"rival upper bound {worst_rival:.9g} exceeds the "
                    f"certified top-k minimum {min_top:.9g}",
                    node=int(rest[np.argmax(cert.ub_score[rest])]),
                )
            )
    if cert.unvisited_cap is None:
        out.append(
            InvariantViolation(
                "certificate",
                "certificate closed with a non-empty boundary but no "
                "recorded unvisited cap",
            )
        )
    elif cert.unvisited_cap > min_top:
        out.append(
            InvariantViolation(
                "certificate",
                f"unvisited cap {cert.unvisited_cap:.9g} exceeds the "
                f"certified top-k minimum {min_top:.9g}",
            )
        )
    return out
