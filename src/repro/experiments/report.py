"""Plain-text report formatting for benchmark outputs.

Every benchmark regenerates one paper table or figure as text: a header
naming the experiment, fixed-width columns, and (for figures) one row per
x-axis point and series.  Reports are printed and also written under
``results/`` (docs/BENCHMARKS.md, "Reading the reports", explains the
columns).
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

#: Default output directory for report files (created on demand).
RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))), "results"),
)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width text table.

    Floats are shown with 4 significant decimals; everything else via
    ``str``.  Column widths fit the widest cell.
    """
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.4f}"
        return str(cell)

    rendered_rows: List[List[str]] = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def write_report(name: str, text: str, directory: Optional[str] = None) -> str:
    """Write ``text`` to ``<results>/<name>.txt``; returns the path."""
    directory = directory or RESULTS_DIR
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
    return path


def print_and_save(name: str, text: str) -> str:
    """Print a report and persist it; returns the saved path."""
    print()
    print(text)
    return write_report(name, text)
