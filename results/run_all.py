"""Regenerate the paper results recorded in EXPERIMENTS.md.

Every table runs its experiment config's defaults (``Table2Config()``,
``Fig9Config()``, ...), so ``python -m repro.experiments <name>``
regenerates the same committed table. Figure 4 is produced by the
sibling script run_fig4_standard.py, and the paper-scale Fig4Config() by
run_fig4_full.py (about a minute on one core).

Usage::

    python results/run_all.py [--outdir DIR]
"""
import argparse, os, time
from repro.experiments import (
    run_fig6, run_fig8, run_fig9, run_openloop, run_table1, run_table2,
)

parser = argparse.ArgumentParser()
parser.add_argument("--outdir", default=os.path.dirname(os.path.abspath(__file__)))
args = parser.parse_args()
os.makedirs(args.outdir, exist_ok=True)

JOBS = [
    ("table1", run_table1),
    ("table2", run_table2),
    ("fig6", run_fig6),
    ("fig8", run_fig8),
    ("fig9", run_fig9),
    ("openloop", lambda: run_openloop(jobs=None)),
]
for name, job in JOBS:
    started = time.time()
    table = job()
    elapsed = time.time() - started
    with open(os.path.join(args.outdir, f"{name}.md"), "w") as fh:
        fh.write(table.to_markdown() + "\n")
    with open(os.path.join(args.outdir, f"{name}.txt"), "w") as fh:
        fh.write(table.format() + "\n")
    print(f"{name} done in {elapsed:.0f}s", flush=True)
print("ALL DONE", flush=True)
