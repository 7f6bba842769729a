"""``scripts/diff_tables.py`` compares two results trees table by table."""

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "diff_tables.py"

TABLE = "| workers | runtime |\n|---|---|\n| 4 | 12.5 |\n"


def diff(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True)


def make_tree(root, names):
    root.mkdir()
    for name in names:
        (root / name).write_text(TABLE)
    return root


def test_identical_trees_pass(tmp_path):
    a = make_tree(tmp_path / "a", ["table1.txt", "table1.md"])
    b = make_tree(tmp_path / "b", ["table1.txt", "table1.md"])
    run = diff(a, b)
    assert run.returncode == 0, run.stderr
    assert "table1.md" in run.stdout and "table1.txt" in run.stdout


def test_a_table_missing_or_extra_fails_and_is_named(tmp_path):
    a = make_tree(tmp_path / "a", ["table1.txt", "fig9.txt"])
    b = make_tree(tmp_path / "b", ["table1.txt", "table1.md"])
    run = diff(a, b)
    assert run.returncode != 0
    assert str(a / "fig9.txt") in run.stderr  # missing from b
    assert str(b / "table1.md") in run.stderr  # extra in b
    assert "table1.txt" in run.stdout  # the paired table is still compared
