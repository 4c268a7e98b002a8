"""ASCII tables, the output format of every experiment driver.

Each driver prints the same rows/series the corresponding paper figure or
table contains; these helpers keep that output aligned and consistent.
"""

from __future__ import annotations

import math
from typing import List, Sequence


def format_float(value: float, digits: int = 2) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.{digits}f}"


class Table:
    """A printable, monospace-aligned table."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([self._format(cell) for cell in cells])

    @staticmethod
    def _format(cell: object) -> str:
        if isinstance(cell, float):
            return format_float(cell)
        return str(cell)

    def render(self) -> str:
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers))
        lines.append(header_line)
        lines.append("-" * len(header_line))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())
        print()
