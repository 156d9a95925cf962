"""Plain-text rendering of experiment results (tables and series)."""

from __future__ import annotations

from typing import Mapping, Sequence


def format_matrix(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Sequence[Sequence[float]],
    width: int = 12,
    precision: int = 4,
) -> str:
    """A labelled numeric matrix as aligned text."""
    head = " " * 10 + "".join(f"{c:>{width}}" for c in col_labels)
    lines = [head]
    for label, row in zip(row_labels, values):
        cells = "".join(f"{v:>{width}.{precision}f}" for v in row)
        lines.append(f"{label:>10}{cells}")
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A coarse one-line chart (useful in terminal reports)."""
    blocks = " ▁▂▃▄▅▆▇█"
    if not values:
        return ""
    n = len(values)
    step = max(1, n // width)
    sampled = [max(values[i : i + step]) for i in range(0, n, step)]
    hi = max(sampled)
    if hi <= 0:
        return " " * len(sampled)
    return "".join(blocks[min(8, int(v / hi * 8))] for v in sampled)


def format_summary(summary: Mapping[str, float], title: str = "") -> str:
    lines = [title] if title else []
    for k, v in summary.items():
        lines.append(f"  {k:<24} {v:,.4f}")
    return "\n".join(lines)
