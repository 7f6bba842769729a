"""Parallel grid running for the experiment harnesses.

:mod:`repro.perf.grid` is a deterministic process-pool runner the
experiment harnesses (fig4/fig6/fig8/fig9/table2) use to spread their
(workflow x scheduler x scale x seed) grids over cores.
"""

from repro.perf.grid import default_jobs, run_grid

__all__ = ["run_grid", "default_jobs"]
