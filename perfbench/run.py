"""Run one benchmark workload and print its result as a JSON line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A fuller
result record (host, versions, commit, graph sizes, seed, extra
measurements, failures) goes to ``.bench_out/`` in the checkout, with
the spans of a traced run beside it.  The exit code is 1 when any answer
was wrong or any operation failed, and 2 when the checkout has no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def stop_helper_processes(timeout: float = 10.0) -> None:
    """Stop every process the run started and wait until each has ended.

    ``ShardedServer.close`` joins its workers, but creating a shared
    memory segment also starts multiprocessing's resource tracker, which
    otherwise outlives this process by a moment as an orphan.  Closing
    its pipe ends it; it is killed if it has not gone within
    ``timeout`` seconds.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.02)


def report(outcome, trace: bool) -> dict:
    """The result line: every end-to-end (or, traced, every per-layer)
    metric by name with its unit, plus the operation counts."""
    import workloads

    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    return {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT} to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    run, spec = workloads.WORKLOADS[args.workload]
    try:
        outcome = run(spec, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_helper_processes()

    line = report(outcome, bool(args.trace))
    metrics, correct = line["metrics"], line["correct"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "graph": outcome.graph,
        "spec": dataclasses.asdict(spec),
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:50],
        "metrics": metrics,
        "extras": outcome.extras,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if outcome.spans is not None:
        outcome.spans.dump(OUT_DIR / f"{stem}.spans.json")

    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    for name, value in outcome.extras.items():
        print(f"{name:28s} {value!s:>14} (record only)")
    for problem in outcome.problems[:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
