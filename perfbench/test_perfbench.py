"""Self-test of the benchmark at toy scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from repro import QuerySession  # noqa: E402
from repro.serve import ShardedServer  # noqa: E402

#: Toy sizes: ~1,000-node stand-ins, a few requests per pass.
TOY = {
    "cold": workloads.ColdSpec(
        scale=0.003, k=5, setups=2, warmup=3, trace_requests=18, checks=6
    ),
    "serve": workloads.ServeSpec(
        scale=0.003, k=5, hot=40, rate=40.0, warmup_seconds=0.5,
        setups=2, trace_seconds=1.0, checks=6,
    ),
    "churn": workloads.ChurnSpec(
        scale=0.003, k=5, hot=30, queries_per_round=5, warmup_rounds=2,
        setups=2, trace_rounds=4, check_rounds=2, checks_per_round=2,
    ),
}

#: Layer self times must account for the traced wall time within this
#: share on the in-process workloads.
COVERAGE_TOLERANCE_PCT = 5.0


def _run(name: str, trace: bool, seed: int = 3):
    fn, _spec = workloads.WORKLOADS[name]
    return fn(TOY[name], seed, 1.0, trace)


def _declared():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def test_declared_metrics_match_the_code():
    end_to_end, per_layer = _declared()
    assert end_to_end == workloads.END_TO_END
    assert per_layer == workloads.PER_LAYER
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(TOY))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    outcome = _run(name, trace)
    line = run.report(outcome, trace)
    end_to_end, per_layer = _declared()
    expected = per_layer if trace else end_to_end
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    assert line["correct"], outcome.problems
    assert line["attempted"] >= 1 and line["failed"] == 0
    if not trace:
        assert all(line["metrics"][m]["value"] > 0 for m in end_to_end)


@pytest.mark.parametrize("name", ["cold", "churn"])
def test_self_times_add_up_to_the_traced_wall_time(name):
    outcome = _run(name, True)
    coverage = outcome.metrics["trace.coverage_pct"]
    assert abs(coverage - 100.0) <= COVERAGE_TOLERANCE_PCT
    _counts, self_s = outcome.spans.totals()
    assert sum(self_s.values()) == pytest.approx(
        outcome.spans.root_seconds(), rel=1e-9
    )


def _corrupt(result):
    """A wrong answer: the best node swapped for a non-member, with its
    value and bounds inflated."""
    bad = result.copy()
    nodes = np.array(bad.nodes, copy=True)
    outsider = next(v for v in range(10**6)
                    if v not in set(nodes.tolist()) and v != bad.query)
    nodes[0] = outsider
    bad.nodes = nodes
    for attr in ("values", "lower", "upper"):
        arr = np.array(getattr(bad, attr), copy=True)
        arr[0] = arr[0] * 10.0 + 1.0
        setattr(bad, attr, arr)
    return bad


@pytest.mark.parametrize("name", sorted(TOY))
def test_a_corrupted_answer_trips_the_check(name, monkeypatch):
    if name == "serve":
        original = ShardedServer.serve_requests

        def wrong(self, requests):
            return [_corrupt(r) for r in original(self, requests)]

        monkeypatch.setattr(ShardedServer, "serve_requests", wrong)
    else:
        original = QuerySession.top_k
        armed = {"on": False}

        def wrong(self, query, k, **kw):
            result = original(self, query, k, **kw)
            return _corrupt(result) if armed["on"] else result

        # Corrupt only what the workload serves, not the references the
        # check computes afterwards with the same session class.
        real_pass = {
            "cold": workloads._cold_pass, "churn": workloads._churn_pass
        }[name]

        def corrupted_pass(*args, **kwargs):
            armed["on"] = True
            try:
                return real_pass(*args, **kwargs)
            finally:
                armed["on"] = False

        monkeypatch.setattr(QuerySession, "top_k", wrong)
        monkeypatch.setattr(workloads, f"_{name}_pass", corrupted_pass)
    outcome = _run(name, False)
    line = run.report(outcome, False)
    assert not line["correct"]
    assert line["failed"] >= 1
    assert outcome.problems


def test_inputs_depend_only_on_the_seed():
    first = _run("cold", True, seed=5)
    second = _run("cold", True, seed=5)
    for metric in ("kernels.sweeps", "kernels.rows_swept", "engine.runs",
                   "localgraph.expand_calls", "graph.fetch_calls"):
        assert first.metrics[metric] == second.metrics[metric]


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "cold", "--seed", "1",
                     "--seconds", "1"]) == 2



def test_serve_leaves_no_process_behind():
    from multiprocessing import active_children, resource_tracker

    _run("serve", False)
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None  # started by the shared-memory segment
    run.stop_helper_processes()
    assert not active_children()
    with pytest.raises(ChildProcessError):  # ended and reaped
        os.waitpid(tracker, os.WNOHANG)
