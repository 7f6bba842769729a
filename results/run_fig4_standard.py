"""Fig. 4 at 'standard scale': full 24-node topology, half-scale data.

The paper-scale configuration (96 samples x 8 x 1 GB, 576 containers)
is Fig4Config(), run by run_fig4_full.py in about a minute; this standard
scale halves container counts and data proportionally, preserving the
compute-to-network balance and therefore the crossover shape.
"""
import argparse, os, time
from repro.experiments.fig4 import Fig4Config, run_fig4

parser = argparse.ArgumentParser()
parser.add_argument("--outdir", default=os.path.dirname(os.path.abspath(__file__)))
args = parser.parse_args()
os.makedirs(args.outdir, exist_ok=True)

config = Fig4Config(
    node_count=24,
    container_counts=(24, 48, 96, 192),
    samples=36,
    files_per_sample=8,
    mb_per_file=512.0,
    backbone_mb_s=30.0,
    runs=1,
)
started = time.time()
table = run_fig4(config)
print(table.format())
with open(os.path.join(args.outdir, "fig4.md"), "w") as fh:
    fh.write(table.to_markdown() + "\n")
with open(os.path.join(args.outdir, "fig4.txt"), "w") as fh:
    fh.write(table.format() + "\n")
print(f"done in {time.time()-started:.0f}s")
