"""Compare two benchmark results: ``compare.py BASE.json NEW.json``.

Both files come from ``run.py --out``. One row per workload and
end-to-end metric: medians, quartiles, the change against the base and
a verdict from the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` when either side's p25-p75 spread, as a share of its
  median, is wider than the bound, unless every new sample beats every
  base sample (then ``better``);
* otherwise ``worse`` or ``better`` when the medians differ by more
  than the bound, ``unchanged`` when they do not.

Then a per-layer diff: shares in percentage points and exact deltas of
the counts, so the place a saving comes from shows. Exits 1 on any
``worse``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric for metric in json.load(handle)["end_to_end"]}


def _spread(stats: dict) -> float:
    return (stats["p75"] - stats["p25"]) / abs(stats["value"]) if stats["value"] else 0.0


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, signed change of the median as a share of the base)."""
    change = (new["value"] - base["value"]) / base["value"]
    gain = -change if better == "lower" else change
    if max(_spread(base), _spread(new)) > bound:
        if better == "lower":
            wins = max(new["samples"]) < min(base["samples"])
        else:
            wins = min(new["samples"]) > max(base["samples"])
        return ("better" if wins else "unresolved"), change
    if gain < -bound:
        return "worse", change
    if gain > bound:
        return "better", change
    return "unchanged", change


def compare(base_doc: dict, new_doc: dict, declared: dict) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':<16} {'metric':<12} {'base p25/med/p75':>30} "
        f"{'new p25/med/p75':>30} {'change':>8} {'bound':>6}  verdict"
    ]
    any_worse = False
    shared = [name for name in base_doc["workloads"] if name in new_doc["workloads"]]
    for workload in shared:
        base_e2e = base_doc["workloads"][workload]["end_to_end"]
        new_e2e = new_doc["workloads"][workload]["end_to_end"]
        for metric, spec in declared.items():
            if metric not in base_e2e or metric not in new_e2e:
                continue
            base, new = base_e2e[metric], new_e2e[metric]
            outcome, change = verdict(base, new, spec["better"], spec["bound"])
            any_worse = any_worse or outcome == "worse"
            lines.append(
                f"{workload:<16} {metric:<12} "
                f"{base['p25']:>9.4g} {base['value']:>9.4g} {base['p75']:>9.4g}   "
                f"{new['p25']:>9.4g} {new['value']:>9.4g} {new['p75']:>9.4g}   "
                f"{change * 100:>+7.1f}% {spec['bound'] * 100:>5.0f}%  {outcome}"
            )
    for workload in shared:
        base_digest = base_doc["workloads"][workload]["sim_digest"]
        new_digest = new_doc["workloads"][workload]["sim_digest"]
        lines.append(
            f"\n{workload}: sim_digest "
            + ("identical" if base_digest == new_digest else f"{base_digest} -> {new_digest}")
        )
        base_layers = base_doc["workloads"][workload].get("per_layer")
        new_layers = new_doc["workloads"][workload].get("per_layer")
        if not base_layers or not new_layers:
            continue
        counts_moved = False
        for metric in base_layers:
            if metric not in new_layers:
                continue
            old, now = base_layers[metric]["value"], new_layers[metric]["value"]
            if metric.endswith(".share"):
                lines.append(
                    f"  {metric:<36} {old * 100:>7.1f}% -> {now * 100:>7.1f}%"
                    f"  ({(now - old) * 100:+.1f} pp)"
                )
            elif base_layers[metric]["unit"] in ("count", "bytes"):
                if now != old:
                    counts_moved = True
                    lines.append(f"  {metric:<36} {old:>12g} -> {now:<12g} ({now - old:+g})")
            else:
                lines.append(f"  {metric:<36} {old:>12.4g} -> {now:<12.4g}")
        if not counts_moved:
            lines.append("  every count identical")
    return lines, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    lines, any_worse = compare(documents[0], documents[1], _declared())
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
