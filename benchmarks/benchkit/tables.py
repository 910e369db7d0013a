"""Plain-text table formatting and report files for the benchmarks.

Every benchmark writes its paper-style table to
``benchmarks/results/<name>.txt`` (and echoes it to stdout), so a full
``pytest benchmarks/ --benchmark-only`` run leaves one artifact per
figure/table that can be compared against the paper side by side.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    note: str | None = None,
) -> str:
    """Fixed-width table with a title rule, à la psql."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    header = " | ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines = [f"== {title} ==", header, sep]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0.0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2e}"
    return str(cell)


def results_dir() -> Path:
    """``benchmarks/results/``, the directory for benchmark artifacts
    (created on demand)."""
    out = Path(__file__).resolve().parents[1] / "results"
    out.mkdir(exist_ok=True)
    return out


def write_report(name: str, content: str) -> Path:
    """Write (and print) one benchmark report."""
    path = results_dir() / f"{name}.txt"
    path.write_text(content, encoding="utf-8")
    print(f"\n{content}")
    print(f"[report written to {path}]")
    return path
