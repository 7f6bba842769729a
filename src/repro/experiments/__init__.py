"""Reproductions of every table and figure in the paper's evaluation.

Each table or figure has its own module (``repro.experiments.fig4`` and
so on); the package itself loads only the shared reporting helpers, and
:func:`runner` imports an experiment's module when it runs.
"""

import importlib
from typing import Callable

from repro.experiments.common import (
    ExperimentTable,
    jain_index,
    mean,
    median,
    minutes,
    percentile,
    std,
)

__all__ = [
    "ExperimentTable",
    "jain_index",
    "mean",
    "median",
    "percentile",
    "std",
    "minutes",
    "EXPERIMENTS",
    "runner",
]

#: ``results/`` file stem -> (module in this package, runner name). The
#: runner takes keyword arguments ``quick`` and ``jobs`` and returns an
#: ExperimentTable. Each entry runs the config whose table
#: ``results/<stem>.txt`` commits; ``--quick`` runs its laptop-sized
#: variant. ``jobs`` is the process-pool width (1 = serial, None = all
#: cores); parallel runs produce byte-identical tables (see
#: repro.perf.grid).
EXPERIMENTS = {
    "table1": ("table1", "run_table1"),
    "table2": ("table2", "run_table2"),
    "fig4": ("fig4", "run_fig4_standard"),
    "fig4_full": ("fig4", "run_fig4_full"),
    "fig4_concurrent": ("fig4", "run_fig4_concurrent"),
    "fig6": ("fig6", "run_fig6"),
    "fig8": ("fig8", "run_fig8"),
    "fig9": ("fig9", "run_fig9"),
    "openloop": ("openloop", "run_openloop"),
}


def runner(name: str) -> Callable[..., ExperimentTable]:
    """The runner of experiment ``name``, importing its module."""
    module, function = EXPERIMENTS[name]
    return getattr(importlib.import_module(f"repro.experiments.{module}"), function)
