#!/usr/bin/env python3
"""Epsilon-diff for recorded experiment tables.

Compares two results trees (or two single files) cell by cell and
reports the maximum relative drift per table. Use it to check that a
change regenerates the committed ``results/`` tables (0 drift), or to
measure a declared drift: a one-ULP shift in a task completion time can
flip a HEFT tie-break, so table-level drift is *measured*, never
assumed. EXPERIMENTS.md records the drift each flow-solver change
measured this way.

Non-numeric content (headers, notes, rules) is ignored, as are
``solver_version:`` stamps and ``(wall time Ns)`` footers — those are
*expected* to differ between runs. A ``.txt`` or ``.md`` table present
in only one of two trees is printed and fails the comparison.

Usage:
    python scripts/diff_tables.py results regenerated
    python scripts/diff_tables.py a/table2.txt b/table2.txt --epsilon 0.02
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

#: Lines that never carry comparable data.
_SKIP = re.compile(
    r"^\s*(note:|solver_version:|_solver_version:"
    r"|\(wall time\b|\(regenerated in\b|==|--+\s*$)"
)

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def table_numbers(path: str) -> list[list[float]]:
    """Numeric cells per data line, format-agnostic (.txt or .md)."""
    rows: list[list[float]] = []
    with open(path) as fh:
        for line in fh:
            if _SKIP.match(line):
                continue
            cells = [float(tok) for tok in _NUMBER.findall(line.replace("|", " "))]
            if cells:
                rows.append(cells)
    return rows


def relative_drift(a: float, b: float) -> float:
    """|a-b| scaled by the larger magnitude; 0 when both are zero."""
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def diff_tables(path_a: str, path_b: str) -> float:
    """Max relative drift between two recorded tables.

    Returns ``inf`` on a structural mismatch (different row/cell
    counts) — a shape change is not a drift, it's a different table.
    """
    rows_a = table_numbers(path_a)
    rows_b = table_numbers(path_b)
    if len(rows_a) != len(rows_b):
        return math.inf
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        if len(row_a) != len(row_b):
            return math.inf
        for cell_a, cell_b in zip(row_a, row_b):
            worst = max(worst, relative_drift(cell_a, cell_b))
    return worst


def paired_files(a: str, b: str) -> tuple[list[tuple[str, str, str]], list[str]]:
    """(label, path_a, path_b) pairs, and the paths of the tables only one
    tree holds; single files pair directly."""
    if os.path.isfile(a):
        return [(os.path.basename(a), a, b)], []
    tables = {
        tree: {
            name
            for name in os.listdir(tree)
            if name.endswith((".txt", ".md"))
            and os.path.isfile(os.path.join(tree, name))
        }
        for tree in (a, b)
    }
    pairs = [
        (name, os.path.join(a, name), os.path.join(b, name))
        for name in sorted(tables[a] & tables[b])
    ]
    unpaired = sorted(
        os.path.join(tree, name)
        for tree, other in ((a, b), (b, a))
        for name in tables[tree] - tables[other]
    )
    return pairs, unpaired


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline results tree or file")
    parser.add_argument("b", help="candidate results tree or file")
    parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="gate: exit 1 if any table drifts beyond this relative bound",
    )
    args = parser.parse_args()

    pairs, unpaired = paired_files(args.a, args.b)
    if not pairs and not unpaired:
        print(f"no comparable tables between {args.a} and {args.b}", file=sys.stderr)
        return 2
    failed = []
    print(f"{'table':<24} {'max_rel_drift':>14}")
    for label, path_a, path_b in pairs:
        drift = diff_tables(path_a, path_b)
        shown = "SHAPE MISMATCH" if math.isinf(drift) else f"{drift:.3e}"
        print(f"{label:<24} {shown:>14}")
        if args.epsilon is not None and not drift <= args.epsilon:
            failed.append(label)
    for path in unpaired:
        print(f"unpaired table (only in one tree): {path}", file=sys.stderr)
    if failed:
        print(
            f"drift beyond epsilon={args.epsilon:g} in: {', '.join(failed)}",
            file=sys.stderr,
        )
    return 1 if failed or unpaired else 0


if __name__ == "__main__":
    sys.exit(main())
