"""Certification audit layer: runtime invariant checks and fuzzing.

FLoS's headline claim is *exactness* — the returned top-k is identical
to a global computation (Theorems 1–6).  That claim rests on a chain of
invariants the engines maintain implicitly: the lower/upper bounds
sandwich the true proximities (Thms 3–5), the bounds only ever tighten
as the visited set grows (Thm 4), and the termination certificate of
Algorithm 6 (plus Corollary 1 for unvisited nodes and the Sec. 5.6 RWR
guard) actually held on the final bounds.  This package makes the chain
explicit and checkable:

* :mod:`repro.audit.invariants` — the invariant catalogue: pure checker
  functions over recorded bound snapshots and termination certificates,
  each returning structured :class:`InvariantViolation` records;
* :mod:`repro.audit.trace` — the opt-in per-iteration recorder hooked
  into the FLoS driver via ``FLoSOptions(audit="record"|"check")``, plus
  the failure shrinker / repro writer used by the fuzzer;
* :mod:`repro.audit.fuzz` — the differential fuzzer behind
  ``python -m repro fuzz``: random graphs x measures x LocalView
  paths x exact/anytime/excluded, cross-checked against the
  global-iteration oracle.

See ``docs/correctness.md`` for the full invariant catalogue with
theorem cross-references.
"""

from repro.audit.fuzz import FuzzFailure, FuzzSummary, run_fuzz
from repro.audit.invariants import (
    AuditReport,
    BoundSnapshot,
    CertificateRecord,
    InvariantViolation,
    check_bound_order,
    check_certificate,
    check_flags,
    check_monotone_evolution,
    check_sandwich,
)
from repro.audit.trace import AuditRecorder, shrink_case, write_repro

__all__ = [
    "AuditReport",
    "AuditRecorder",
    "BoundSnapshot",
    "CertificateRecord",
    "FuzzFailure",
    "FuzzSummary",
    "InvariantViolation",
    "run_fuzz",
    "check_bound_order",
    "check_certificate",
    "check_flags",
    "check_monotone_evolution",
    "check_sandwich",
    "shrink_case",
    "write_repro",
]
