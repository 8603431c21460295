"""Plain-text tables: ``repro check``'s text report, the campaign
report and the experiments' paper-vs-measured rows.

Standard library only, so a warm text-mode verdict renders without
loading any engine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

__all__ = ["format_value", "Table"]


def format_value(value) -> str:
    """Compact rendering of times/bounds: exact for ints and small
    fractions, decimal otherwise, ``inf`` spelled out."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        if value.denominator <= 100:
            return "{}/{}".format(value.numerator, value.denominator)
        return "{:.4g}".format(float(value))
    if isinstance(value, float):
        return "{:.4g}".format(value)
    return str(value)


class Table:
    """A fixed-header text table with aligned columns."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                "expected {} cells, got {}".format(len(self.headers), len(cells))
            )
        self.rows.append([format_value(c) if not isinstance(c, str) else c for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())
