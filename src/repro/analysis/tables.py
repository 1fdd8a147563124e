"""Plain-text table rendering for command-line and example output.

The small formatting helpers the CLI, the examples and the paper's claims
(:mod:`repro.experiments.claims`) share, so every table renders alike.
"""

from __future__ import annotations

from typing import Optional, Sequence


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Monospace table with per-column width, suitable for tee'd logs."""
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[index]) for row in text_rows)) if text_rows else len(header)
        for index, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def fmt_cost(cost: Optional[float]) -> str:
    """Format a per-decision cost; None means the protocol was not live."""
    if cost is None:
        return "no decisions (not live)"
    return f"{cost:.1f}"
