"""Answer checks for the benchmark: each returns ``None`` or a reason.

Exact score ties at rank ``k`` admit more than one correct top-k set,
so every check is tie-aware: a node may differ from the reference only
when its value ties the rank-k boundary within the stated tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.measures.base import Direction


def against_truth(result, truth: np.ndarray, measure, tie_epsilon: float):
    """Check a served result against the global proximity vector.

    ``truth`` is the measure's global proximity vector
    (:mod:`repro.measures.exact`).  The
    truth must sit inside every returned ``[lower, upper]`` interval, and
    no node outside the answer may beat the answer's worst node by more
    than ``tie_epsilon`` plus the solver's truncation slack.
    """
    q, k = int(result.query), int(result.k)
    nodes = np.asarray(result.nodes, dtype=np.int64)
    if len(nodes) != min(k, len(truth) - 1):
        return f"query {q}: returned {len(nodes)} nodes for k={k}"
    if len(set(nodes.tolist())) != len(nodes) or q in set(nodes.tolist()):
        return f"query {q}: duplicate or query node in the answer"
    # The engines certify bounds up to the solver's tau truncation; the
    # slack is scale-relative with a small absolute floor.
    slack = 1e-4 * float(np.ptp(truth)) + 1e-9
    t = truth[nodes]
    outside = np.flatnonzero(
        (t < result.lower - slack) | (t > result.upper + slack)
    )
    if len(outside):
        i = int(outside[0])
        return (
            f"query {q}: truth {t[i]:.6g} of node {int(nodes[i])} outside "
            f"certified [{result.lower[i]:.6g}, {result.upper[i]:.6g}]"
        )
    sign = 1.0 if measure.direction is Direction.HIGHER_IS_CLOSER else -1.0
    rest = np.ones(len(truth), dtype=bool)
    rest[nodes] = False
    rest[q] = False
    if rest.any():
        worst_in = float((sign * t).min())
        best_out = float((sign * truth[rest]).max())
        if best_out > worst_in + tie_epsilon + 2.0 * slack:
            return (
                f"query {q}: a node outside the answer beats its worst "
                f"member by {best_out - worst_in:.3g}"
            )
    return None


def against_reference(result, reference, *, warm: bool = False, atol=1e-8):
    """Check a served result against a reference FLoS result.

    A cold-start reference follows the same trajectory, so the top-k
    value multisets must agree to float tolerance.  A warm-started result
    converges along a different trajectory, so for it only the certified
    intervals must intersect.  A node missing from the reference must
    tie the reference's rank-k interval.
    """
    q = int(result.query)
    if len(result.nodes) != len(reference.nodes):
        return (
            f"query {q}: returned {len(result.nodes)} nodes, reference "
            f"{len(reference.nodes)}"
        )
    if len(reference.nodes) == 0:
        return None
    if not warm and not np.allclose(
        np.sort(result.values), np.sort(reference.values), rtol=1e-6, atol=atol
    ):
        return f"query {q}: top-k values diverge from the reference"
    truth = {
        int(n): (float(lo), float(hi))
        for n, lo, hi in zip(reference.nodes, reference.lower, reference.upper)
    }
    edge_lo, edge_hi = float(reference.lower[-1]), float(reference.upper[-1])
    for node, lo, hi in zip(result.nodes, result.lower, result.upper):
        ref_lo, ref_hi = truth.get(int(node), (edge_lo, edge_hi))
        if max(lo, ref_lo) > min(hi, ref_hi) + atol:
            return (
                f"query {q}: node {int(node)} interval [{lo:.6g}, {hi:.6g}] "
                f"disjoint from the reference [{ref_lo:.6g}, {ref_hi:.6g}]"
            )
    return None
