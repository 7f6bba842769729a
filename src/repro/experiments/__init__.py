"""Reproductions of every table and figure in the paper's evaluation."""

from repro.experiments.common import (
    ExperimentTable,
    jain_index,
    mean,
    median,
    minutes,
    percentile,
    std,
)
from repro.experiments.fig4 import (
    Fig4ConcurrentConfig,
    Fig4Config,
    run_fig4,
    run_fig4_concurrent,
)
from repro.experiments.fig6 import Fig6Config, run_fig6
from repro.experiments.fig8 import Fig8Config, run_fig8
from repro.experiments.fig9 import Fig9Config, run_fig9
from repro.experiments.openloop import OpenLoopConfig, run_openloop
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import Table2Config, run_table2

__all__ = [
    "ExperimentTable",
    "jain_index",
    "mean",
    "median",
    "percentile",
    "std",
    "minutes",
    "run_table1",
    "run_fig4",
    "Fig4Config",
    "run_fig4_concurrent",
    "Fig4ConcurrentConfig",
    "run_table2",
    "Table2Config",
    "run_fig6",
    "Fig6Config",
    "run_fig8",
    "Fig8Config",
    "run_fig9",
    "Fig9Config",
    "run_openloop",
    "OpenLoopConfig",
    "EXPERIMENTS",
]

#: ``results/`` file stem -> callable(quick: bool, jobs: int | None) ->
#: ExperimentTable, called with keyword arguments. Each entry runs the
#: config whose table ``results/<stem>.txt`` commits; ``--quick`` runs
#: its laptop-sized variant. ``jobs`` is the process-pool width (1 =
#: serial, None = all cores); parallel runs produce byte-identical
#: tables (see repro.perf.grid).
EXPERIMENTS = {
    "table1": lambda quick=False, jobs=1: run_table1(jobs=jobs),
    "table2": run_table2,
    "fig4": lambda quick=False, jobs=1: run_fig4(
        Fig4Config.quick() if quick else Fig4Config.standard(), jobs=jobs),
    "fig4_full": lambda quick=False, jobs=1: run_fig4(
        Fig4Config.quick() if quick else Fig4Config(runs=1), jobs=jobs),
    "fig4_concurrent": run_fig4_concurrent,
    "fig6": run_fig6,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "openloop": run_openloop,
}
