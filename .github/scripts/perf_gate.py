"""Fail when the head is slower than its base on the perfbench workloads.

Run it from a git checkout: ``python3 .github/scripts/perf_gate.py``.

The base is the merge base with ``origin/$GITHUB_BASE_REF`` on a pull
request and ``HEAD^`` otherwise; it is checked out as a detached git
worktree, and the head is the checkout itself.  Every workload in
``BENCHMARK.json`` runs ``PAIRS`` alternating base/head pairs of
``perfbench/run.py --trace 0`` at ``run_seconds``, each tree with its own
perfbench and both sides of a pair on the same seed.  The gate fails on
a nonzero exit or a failed operation, and when a head median of an
end-to-end metric is worse than the base median by more than that
metric's ``bound``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 3


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    )
    return done.stdout.strip()


def run(tree: Path, workload: str, seed: int):
    """One perfbench run: ``(metrics by name, problems)``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    problems = []
    if done.returncode:
        problems.append(f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
    try:
        line = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {}, problems + ["no result line"]
    if line["failed"] or not line["correct"]:
        problems.append(f"{line['failed']} of {line['attempted']} operations failed")
    return {name: m["value"] for name, m in line["metrics"].items()}, problems


def gate(base_tree: Path) -> list[str]:
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = {"base": [], "head": []}
        for pair in range(PAIRS):
            sides = [("base", base_tree), ("head", ROOT)]
            for side, tree in sides if pair % 2 == 0 else sides[::-1]:
                metrics, problems = run(tree, workload, pair + 1)
                print(f"{workload} pair {pair + 1} {side}: {problems or 'ok'}",
                      flush=True)
                failures += [f"{workload} {side} pair {pair + 1}: {p}"
                             for p in problems]
                if metrics:
                    runs[side].append(metrics)
        if not (runs["base"] and runs["head"]):
            continue
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = statistics.median(r[name] for r in runs["base"])
            h = statistics.median(r[name] for r in runs["head"])
            change = (h - b) / b if b else 0.0
            worse = -change if metric["better"] == "higher" else change
            print(f"{workload:6s} {name:12s} base {b:10.4g}  head {h:10.4g}  "
                  f"{change:+7.1%}  ({metric['better']} is better, bound "
                  f"{bound:.0%})  {'FAIL' if worse > bound else 'ok'}",
                  flush=True)
            if worse > bound:
                failures.append(f"{workload} {name} {change:+.1%}, bound {bound:.0%}")
    return failures


def main() -> int:
    branch = os.environ.get("GITHUB_BASE_REF")
    ref = git("merge-base", "HEAD", f"origin/{branch}") if branch else "HEAD^"
    print(f"base {git('rev-parse', '--short', ref)} vs head "
          f"{git('rev-parse', '--short', 'HEAD')}", flush=True)
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        base_tree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base_tree), ref)
        try:
            failures = gate(base_tree)
        finally:
            git("worktree", "remove", "--force", str(base_tree))
    for failure in failures:
        print(f"FAILED: {failure}")
    print("perf gate:", "FAIL" if failures else "pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
