"""Kernel-layer benchmark: bound refresh and restoration cost.

Runs three measurements on synthetic R-MAT graphs and writes a JSON
report (``BENCH_PR3.json``) so the perf trajectory accumulates across
changes:

* **refresh** — the one bound-refresh path on an RWR + PHP query
  workload: queries/sec, mean sweeps, mean visited nodes, mean rows
  swept;
* **restoration** — the library's batched ``LocalView`` restoration vs
  the one-node-at-a-time oracle ``ScalarLocalView`` from
  ``tests/references.py``, everything else held fixed;
* **session-amortized RWR workload** — the acceptance workload of
  ``bench_micro_engine.py`` (25 distinct queries x 3 repeats through a
  :class:`~repro.core.session.QuerySession`): the PR-2 baseline
  emulation (the driver on the scalar oracle) against the default
  path, with the required >= 2x speedup and identical top-k checked by
  ``--check``.

The oracle is swapped in through ``repro.core.flos.LocalView``, the one
name the FLoS driver constructs its view from.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --preset smoke --check --output BENCH_PR3.json

The ``smoke`` preset fits a CI job (a few seconds); ``full`` runs the
bench_micro_engine scale used for the committed ``BENCH_PR3.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core import flos
from repro.core.api import flos_top_k
from repro.core.flos import FLoSOptions
from repro.core.localgraph import LocalView
from repro.core.session import QuerySession
from repro.bench.workload import sample_queries
from repro.graph.generators import rmat
from repro.measures import PHP, RWR

# The scalar restoration oracle lives with the tests, at the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.references import ScalarLocalView  # noqa: E402

PRESETS = {
    # scale, edges, workload queries, repeats of each in the session run
    "smoke": {"scale": 10, "edges": 5_000, "queries": 6, "repeats": 2},
    "full": {"scale": 12, "edges": 40_000, "queries": 25, "repeats": 3},
}


@contextmanager
def restoration(view_cls):
    """Run the FLoS driver on ``view_cls`` instead of ``LocalView``."""
    prior = flos.LocalView
    flos.LocalView = view_cls
    try:
        yield
    finally:
        flos.LocalView = prior


def _run_queries(graph, measure, queries, k, *, view_cls=LocalView):
    """Time a workload; returns (results, elapsed_seconds)."""
    options = FLoSOptions(tie_epsilon=1e-5)
    with restoration(view_cls):
        started = time.perf_counter()
        results = [
            flos_top_k(graph, measure, int(q), k, options=options)
            for q in queries
        ]
        elapsed = time.perf_counter() - started
    return results, elapsed


def bench_refresh(graph, queries, k):
    """The bound-refresh path on the same RWR + PHP workload."""
    per_measure = [
        _run_queries(graph, measure, queries, k)
        for measure in (RWR(0.5), PHP(0.5))
    ]
    all_results = [r for results, _ in per_measure for r in results]
    total = sum(elapsed for _, elapsed in per_measure)
    return {
        "queries_per_second": len(all_results) / total,
        "total_seconds": total,
        "mean_sweeps": float(
            np.mean([r.stats.solver_iterations for r in all_results])
        ),
        "mean_visited": float(
            np.mean([r.stats.visited_nodes for r in all_results])
        ),
        "mean_rows_swept": float(
            np.mean([r.stats.rows_swept for r in all_results])
        ),
    }


def bench_restoration(graph, queries, k):
    """Scalar oracle vs batched restoration, everything else held fixed."""
    vec_results, vec_seconds = _run_queries(graph, RWR(0.5), queries, k)
    scal_results, scal_seconds = _run_queries(
        graph, RWR(0.5), queries, k, view_cls=ScalarLocalView
    )
    identical = all(
        list(a.nodes) == list(b.nodes)
        for a, b in zip(vec_results, scal_results)
    )
    return {
        "vectorized_seconds": vec_seconds,
        "scalar_seconds": scal_seconds,
        "speedup": scal_seconds / vec_seconds if vec_seconds else float("inf"),
        "topk_identical": bool(identical),
    }


def bench_session_amortized(graph, distinct, repeats, k):
    """The acceptance workload: PR-2 baseline emulation vs the default.

    The PR-2 code had scalar restoration and the same per-column Jacobi
    refresh, so the driver on the scalar oracle reproduces its hot path
    on today's engine.
    """
    workload = [int(q) for q in distinct] * repeats

    def serve(view_cls):
        options = FLoSOptions(tie_epsilon=1e-5)
        with restoration(view_cls):
            session = QuerySession(graph, RWR(0.5), options=options)
            started = time.perf_counter()
            batch = session.top_k_many(workload, k)
            elapsed = time.perf_counter() - started
        return batch, elapsed

    baseline, baseline_seconds = serve(ScalarLocalView)
    default, default_seconds = serve(LocalView)
    identical = all(
        list(a.nodes) == list(b.nodes) for a, b in zip(default, baseline)
    )
    return {
        "workload": f"{len(distinct)} distinct x {repeats} repeats, RWR(0.5)",
        "baseline_pr2_seconds": baseline_seconds,
        "default_seconds": default_seconds,
        "speedup": (
            baseline_seconds / default_seconds
            if default_seconds
            else float("inf")
        ),
        "topk_identical_to_baseline": bool(identical),
    }


def run(preset: str) -> dict:
    cfg = PRESETS[preset]
    graph = rmat(cfg["scale"], cfg["edges"], seed=21)
    queries = sample_queries(graph, cfg["queries"], seed=20140622)
    k = 10
    payload = {
        "bench": "bench_kernels",
        "preset": preset,
        "graph": {
            "model": "rmat",
            "nodes": int(graph.num_nodes),
            "edges": int(graph.num_edges),
            "seed": 21,
        },
        "k": k,
        "refresh": bench_refresh(graph, queries, k),
        "restoration": bench_restoration(graph, queries, k),
        "session_amortized_rwr": bench_session_amortized(
            graph, queries, cfg["repeats"], k
        ),
    }
    return payload


def check(payload: dict) -> list[str]:
    """Acceptance assertions; returns a list of failures (empty = pass)."""
    failures = []
    amortized = payload["session_amortized_rwr"]
    if amortized["speedup"] < 2.0:
        failures.append(
            "session-amortized RWR speedup "
            f"{amortized['speedup']:.2f}x < required 2x"
        )
    if not amortized["topk_identical_to_baseline"]:
        failures.append("default path top-k differs from the PR-2 baseline")
    if not payload["restoration"]["topk_identical"]:
        failures.append("scalar oracle and batched restoration disagree")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="smoke")
    parser.add_argument("--output", type=Path, default=Path("BENCH_PR3.json"))
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) unless the acceptance criteria hold",
    )
    args = parser.parse_args(argv)

    payload = run(args.preset)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    amortized = payload["session_amortized_rwr"]
    print(f"wrote {args.output}")
    print(
        f"session-amortized RWR: baseline "
        f"{amortized['baseline_pr2_seconds']:.3f}s -> default "
        f"{amortized['default_seconds']:.3f}s "
        f"({amortized['speedup']:.1f}x)"
    )
    row = payload["refresh"]
    print(
        f"refresh: {row['queries_per_second']:.2f} q/s, "
        f"mean sweeps {row['mean_sweeps']:.1f}, "
        f"mean visited {row['mean_visited']:.1f}"
    )

    if args.check:
        failures = check(payload)
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
