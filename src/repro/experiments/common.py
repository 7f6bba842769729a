"""Shared machinery of the experiment reproductions (Sec. 4)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.sim.flows import SOLVER_VERSION
from repro.stats import jain_index, mean, median, minutes, percentile, std

__all__ = [
    "ExperimentTable", "mean", "std", "median", "minutes",
    "jain_index", "percentile",
]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


@dataclass
class ExperimentTable:
    """One regenerated table or figure series, printable as text."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.experiment_id}: row width {len(values)} != "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list:
        """All values of one column, by header name."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def format(self) -> str:
        """Fixed-width text rendering (what the paper checks print).

        Both renderings end with the flow solver version stamp, so every
        recorded table is attributable.
        """
        cells = [self.columns] + [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.columns))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells[1:]:
            lines.append("  ".join(v.rjust(widths[i]) for i, v in enumerate(row)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        lines.append(f"solver_version: {SOLVER_VERSION}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering (used by EXPERIMENTS.md)."""
        lines = [
            "| " + " | ".join(self.columns) + " |",
            "|" + "|".join("---" for _ in self.columns) + "|",
        ]
        for row in self.rows:
            lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
        lines.append(f"\n_solver_version: {SOLVER_VERSION}_")
        return "\n".join(lines)
