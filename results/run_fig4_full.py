"""Fig. 4 at the paper-scale configuration (Fig4Config defaults)."""
import argparse, os, time
from repro.experiments.fig4 import Fig4Config, run_fig4

parser = argparse.ArgumentParser()
parser.add_argument("--outdir", default=os.path.dirname(os.path.abspath(__file__)))
args = parser.parse_args()
os.makedirs(args.outdir, exist_ok=True)

started = time.time()
table = run_fig4(Fig4Config(runs=1))
print(table.format())
with open(os.path.join(args.outdir, "fig4_full.txt"), "w") as fh:
    fh.write(table.format() + "\n")
print(f"done in {time.time()-started:.0f}s", flush=True)
