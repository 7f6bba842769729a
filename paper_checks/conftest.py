"""Shared helpers for the paper-shape checks.

Every check regenerates one of the paper's tables/figures (in its
laptop-sized "quick" configuration by default; set ``REPRO_FULL=1`` for
the paper-scale parameters), prints the regenerated rows and asserts
the paper's result shape, so running
``PYTHONPATH=src python -m pytest -s paper_checks/`` reproduces the
evaluation section end to end.
"""

import os

import pytest


def full_scale() -> bool:
    """Whether to run paper-scale parameters (slow)."""
    return os.environ.get("REPRO_FULL", "") == "1"


@pytest.fixture
def quick() -> bool:
    """Fixture: True unless REPRO_FULL=1."""
    return not full_scale()
