"""Helpers for the paper-figure benchmarks: workload sampling, timing
runners, table and report emitters, ASCII series charts.

The ``bench_*`` modules import this package as ``benchkit`` (their
directory is on ``sys.path``); the tier-1 tests import it as
``benchmarks.benchkit`` from the repository root.
"""
