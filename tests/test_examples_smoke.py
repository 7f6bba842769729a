"""Smoke tests: the fast example scripts run as published.

The two heavyweight examples (genomics sweep, Montage learning curve)
are exercised through their underlying experiment modules elsewhere;
here we pin the quick ones end to end so the documentation never rots.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


def test_quickstart_example(capsys):
    out = run_example("quickstart.py", capsys)
    assert "success:     True" in out
    assert "provenance trace:" in out


def test_multilingual_reproducibility_example(capsys):
    out = run_example("multilingual_reproducibility.py", capsys)
    assert "trace replay:" in out


def test_kmeans_example(capsys):
    out = run_example("kmeans_iterative.py", capsys)
    assert "converged after" in out
    assert "cannot run iterative workflows" in out


@pytest.mark.parametrize("name", [
    "quickstart.py",
    "genomics_variant_calling.py",
    "montage_adaptive_scheduling.py",
    "kmeans_iterative.py",
    "multilingual_reproducibility.py",
])
def test_examples_compile(name):
    source = (EXAMPLES / name).read_text()
    compile(source, name, "exec")
