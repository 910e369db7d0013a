"""Tests for the ASCII chart renderer used in benchmark reports."""

import pytest

from benchmarks.benchkit.ascii_chart import ascii_chart, chart_from_runs
from benchmarks.benchkit.runner import MethodRun


def test_basic_rendering():
    out = ascii_chart(
        {"A": [(1, 10.0), (2, 100.0)], "B": [(1, 5.0), (2, 5.0)]},
        title="demo",
        width=30,
        height=8,
    )
    assert out.startswith("demo")
    assert "o=A" in out and "x=B" in out
    assert "x: 1  2" in out


def test_log_scale_orders_rows():
    out = ascii_chart({"A": [(1, 1.0), (2, 1000.0)]}, width=20, height=10)
    lines = out.splitlines()
    # The large value appears above the small one.
    row_big = next(i for i, l in enumerate(lines) if "o" in l)
    row_small = max(i for i, l in enumerate(lines) if "o" in l)
    assert row_big < row_small


def test_linear_scale_and_zero_values():
    out = ascii_chart(
        {"A": [(1, 0.0), (2, 5.0)]}, log_y=False, width=20, height=6
    )
    assert "o" in out


def test_zero_values_dropped_on_log_scale():
    out = ascii_chart({"A": [(1, 0.0)]}, log_y=True)
    assert "(no data)" in out


def test_overlap_marker():
    out = ascii_chart(
        {"A": [(1, 10.0)], "B": [(1, 10.0)]}, width=11, height=5
    )
    assert "!" in out


def test_constant_series_does_not_crash():
    out = ascii_chart({"A": [(1, 3.0), (2, 3.0)]})
    assert "o" in out


def test_chart_from_runs():
    runs = [
        MethodRun("FLoS", 1, query_seconds=[0.001]),
        MethodRun("FLoS", 4, query_seconds=[0.002]),
        MethodRun("GI", 1, query_seconds=[0.1]),
        MethodRun("GI", 4, query_seconds=[0.1]),
    ]
    out = chart_from_runs(runs, [1, 4], title="t vs k")
    assert "t vs k" in out
    assert "o=FLoS" in out and "x=GI" in out
    assert "mean query time" in out
